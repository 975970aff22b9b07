// The traced run (README.md "Per-layer metrics"): replays a workload's
// per-step call sequence through the public functions of each module with a
// span around every call, adds a single-worker pass and standalone layer
// probes, and derives the per-layer metrics from the spans.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "workloads.hpp"

namespace perf {

struct TraceReport {
  /// Per-layer metrics in output order: name, value, unit.
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  /// Empty when every check passed; else what failed.
  std::string problem;
  size_t spans = 0;
};

/// Runs the untraced reference run, the traced replay, the single-worker
/// pass and the probes for `workload`, writes the spans to `trace_path` as
/// Chrome trace-event JSON, and returns the metrics.
TraceReport traced_run(const BenchWorkload& workload, uint64_t seed,
                       const std::string& trace_path);

}  // namespace perf
