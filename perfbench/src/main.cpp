// selsync_perf: the benchmark's measuring program. run.py drives it; each
// invocation does one thing and prints one JSON object on stdout.
//
//   selsync_perf run   --workload W --seed S   one untraced end-to-end run
//   selsync_perf trace --workload W --seed S --trace-out F
//                                               the traced per-layer run
//   selsync_perf info                           build type, flags, compiler
#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <string>

#include "core/metrics.hpp"
#include "core/trainer.hpp"
#include "replay.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

namespace perf {
namespace {

using selsync::TrainResult;

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc)
      throw std::invalid_argument("expected --flag value, got '" + key + "'");
    flags[key.substr(2)] = argv[++i];
  }
  return flags;
}

std::string need(const std::map<std::string, std::string>& flags,
                 const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end()) throw std::invalid_argument("missing --" + key);
  return it->second;
}

/// FNV-1a over the deterministic outputs the repeats of one seed must
/// agree on.
class Digest {
 public:
  template <typename T>
  void add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) hash_ = (hash_ ^ b) * 0x100000001b3ULL;
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

uint64_t result_digest(const TrainResult& r) {
  Digest d;
  d.add(r.iterations);
  d.add(r.sync_steps);
  d.add(r.local_steps);
  d.add(r.sim_time_s);
  d.add(r.best_top1);
  for (const selsync::EvalPoint& pt : r.eval_history) {
    d.add(pt.iteration);
    d.add(pt.sim_time_s);
    d.add(pt.loss);
    d.add(pt.top1);
  }
  return d.value();
}

/// Peak resident set of this process plus the largest reaped child (the
/// forked TCP replicas), in MiB.
double peak_rss_mb() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

int run_mode(const std::map<std::string, std::string>& flags) {
  // Everything from here to the first step is set-up: dataset synthesis
  // (on first use of the workload), job and replica construction, and on
  // tcp the worker fork + Hello handshake.
  selsync::WallTimer elapsed;
  const BenchWorkload& w = bench_workload(need(flags, "workload"));
  const uint64_t seed = std::stoull(need(flags, "seed"));
  const selsync::TrainJob job = w.make_job(seed, w.iterations);
  const TrainResult r = selsync::run_training(job);
  const double total_s = elapsed.elapsed_s();
  std::printf(
      "{\"workload\":\"%s\",\"seed\":%" PRIu64 ",\"workers\":%zu,"
      "\"budget\":%" PRIu64 ",\"iterations\":%" PRIu64 ","
      "\"diverged\":%s,\"wall_time_s\":%.9g,\"setup_s\":%.9g,"
      "\"peak_rss_mb\":%.6g,\"sim_time_s\":%.17g,\"best_top1\":%.17g,"
      "\"sync_steps\":%" PRIu64 ",\"local_steps\":%" PRIu64 ","
      "\"digest\":\"%016" PRIx64 "\"}\n",
      w.name.c_str(), seed, job.workers, w.iterations, r.iterations,
      r.diverged ? "true" : "false", r.wall_time_s, total_s - r.wall_time_s,
      peak_rss_mb(), r.sim_time_s, r.best_top1, r.sync_steps, r.local_steps,
      result_digest(r));
  return 0;
}

int trace_mode(const std::map<std::string, std::string>& flags) {
  const BenchWorkload& w = bench_workload(need(flags, "workload"));
  const uint64_t seed = std::stoull(need(flags, "seed"));
  const TraceReport report =
      traced_run(w, seed, need(flags, "trace-out"));
  std::printf("{\"workload\":\"%s\",\"seed\":%" PRIu64 ",\"spans\":%zu,"
              "\"problem\":\"%s\",\"metrics\":{",
              w.name.c_str(), seed, report.spans, report.problem.c_str());
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const TraceReport::Metric& m = report.metrics[i];
    std::printf("%s\"%s\":{\"value\":%.9g,\"unit\":\"%s\"}", i ? "," : "",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}

int info_mode() {
  std::printf("{\"build_type\":\"%s\",\"flags\":\"%s\",\"compiler\":\"%s\"}\n",
              SELSYNC_PERF_BUILD_TYPE, SELSYNC_PERF_CXX_FLAGS,
              SELSYNC_PERF_COMPILER);
  return 0;
}

}  // namespace
}  // namespace perf

int main(int argc, char** argv) {
  try {
    const std::string mode = argc > 1 ? argv[1] : "";
    if (mode == "info") return perf::info_mode();
    const auto flags = perf::parse_flags(argc, argv);
    if (mode == "run") return perf::run_mode(flags);
    if (mode == "trace") return perf::trace_mode(flags);
    std::fprintf(stderr, "usage: selsync_perf run|trace|info [--flag value]\n");
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "selsync_perf: %s\n", e.what());
    return 1;
  }
}
