// The benchmark's four workloads (README.md "Workloads"). Each is a fixed
// selsync configuration built through the library's public entry points —
// workload_by_name -> make_job — with only the seed and the step budget
// left to the caller.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"

namespace perf {

struct BenchWorkload {
  std::string name;
  /// Per-worker step budget of one run, traced or not.
  uint64_t iterations = 0;

  selsync::TrainJob make_job(uint64_t seed, uint64_t iterations) const;
};

const std::vector<BenchWorkload>& bench_workloads();

/// Throws std::invalid_argument naming the accepted workloads.
const BenchWorkload& bench_workload(const std::string& name);

}  // namespace perf
