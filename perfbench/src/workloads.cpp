#include "workloads.hpp"

#include <stdexcept>

#include "core/sync_plan.hpp"
#include "core/workloads.hpp"

namespace perf {

using namespace selsync;

namespace {

// Every workload trains the paper's headline model.
constexpr const char* kModel = "ResNet101";

TrainJob base_job(StrategyKind strategy, size_t workers, uint64_t seed,
                  uint64_t iterations) {
  TrainJob job = make_job(workload_by_name(kModel), strategy, workers,
                          iterations);
  job.seed = seed;
  // As selsync_cli does: keep the per-round SyncCost account, which the
  // trace run reads its byte counts from.
  job.record_sync_cost = true;
  return job;
}

}  // namespace

TrainJob BenchWorkload::make_job(uint64_t seed, uint64_t budget) const {
  if (name == "hybrid-n4-des") {
    TrainJob job = base_job(StrategyKind::kBsp, 4, seed, budget);
    job.engine = EngineKind::kDes;
    job.selsync.delta = 0.05;
    SyncPhase phase = parse_sync_phase_spec("selsync");
    phase.trigger.kind = SwitchTriggerKind::kAtIteration;
    phase.trigger.at_iteration = 200;
    job.sync_plan.phases.push_back(phase);
    return job;
  }
  if (name == "bsp-n128-des") {
    TrainJob job = base_job(StrategyKind::kBsp, 128, seed, budget);
    job.engine = EngineKind::kDes;
    return job;
  }
  if (name == "ring-topk-tcp-n4") {
    TrainJob job = base_job(StrategyKind::kBsp, 4, seed, budget);
    job.backend = BackendKind::kRing;
    job.compression.kind = CompressionKind::kTopK;
    job.compression.topk_fraction = 0.01;
    job.slices = 4;
    job.slice_order = SliceScheduleKind::kOutputFirst;
    job.transport = TransportKind::kTcp;
    return job;
  }
  if (name == "ssp-ps-n64-des") {
    TrainJob job = base_job(StrategyKind::kSsp, 64, seed, budget);
    job.backend = BackendKind::kParameterServer;
    job.ps_shards = 4;
    job.engine = EngineKind::kDes;
    return job;
  }
  throw std::logic_error("no job recipe for workload " + name);
}

const std::vector<BenchWorkload>& bench_workloads() {
  // README.md lists each workload's equivalent selsync_cli flags.
  static const std::vector<BenchWorkload> workloads = {
      {"hybrid-n4-des", 1000},
      {"bsp-n128-des", 8},
      {"ring-topk-tcp-n4", 600},
      {"ssp-ps-n64-des", 30},
  };
  return workloads;
}

const BenchWorkload& bench_workload(const std::string& name) {
  std::string known;
  for (const BenchWorkload& w : bench_workloads()) {
    if (w.name == name) return w;
    known += (known.empty() ? "" : ", ") + w.name;
  }
  throw std::invalid_argument("unknown workload '" + name + "' (expected " +
                              known + ")");
}

}  // namespace perf
