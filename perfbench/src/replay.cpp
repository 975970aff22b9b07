#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "comm/cluster.hpp"
#include "comm/comm_backend.hpp"
#include "comm/compressed_chunk.hpp"
#include "comm/event_loop.hpp"
#include "comm/parameter_server.hpp"
#include "comm/slice_schedule.hpp"
#include "comm/wire_format.hpp"
#include "core/backend_factory.hpp"
#include "core/replica.hpp"
#include "core/sync_plan.hpp"
#include "core/sync_policy.hpp"
#include "core/time_model.hpp"
#include "core/trainer.hpp"
#include "core/workloads.hpp"
#include "stats/grad_change.hpp"
#include "tensor/ops.hpp"
#include "tracer.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace perf {

using namespace selsync;

namespace {

// Span names. The per-layer metrics are read back by these names.
constexpr const char* kStep = "step";
constexpr const char* kLoadBatch = "data.load_batch";
constexpr const char* kTrainStep = "nn.train_step";
constexpr const char* kEvaluate = "nn.evaluate";
constexpr const char* kFlatParams = "nn.flat_params";
constexpr const char* kSetFlatParams = "nn.set_flat_params";
constexpr const char* kSetFlatGrads = "nn.set_flat_grads";
constexpr const char* kOptimStep = "optim.step";
constexpr const char* kGradChange = "stats.gradchange";
constexpr const char* kAllreduce = "comm.allreduce_sliced";
constexpr const char* kFlags = "comm.allgather_flags";
constexpr const char* kMax = "comm.allreduce_max";
constexpr const char* kPsPull = "comm.ps_pull";
constexpr const char* kPsPush = "comm.ps_push";
constexpr const char* kPsStale = "comm.ps_staleness";
constexpr const char* kSingleStep = "single.train_step";
constexpr const char* kProbe = "probe";
constexpr const char* kVerbTcp = "comm.verb_tcp";
constexpr const char* kVerbInproc = "comm.verb_inproc";

/// Mirrors the trainer's EWMA smoothing rule: the job's alpha, or N/100.
double ewma_alpha(const TrainJob& job) {
  if (job.selsync.ewma_alpha > 0.0)
    return std::min(job.selsync.ewma_alpha, 1.0);
  return std::clamp(static_cast<double>(job.workers) / 100.0, 0.02, 1.0);
}

bool gradient_payload(const TrainJob& job) {
  return job.strategy == StrategyKind::kBsp ||
         (job.strategy == StrategyKind::kSelSync &&
          job.selsync.aggregation == AggregationMode::kGradients);
}

/// What the replay produced, for the check against the reference run.
struct ReplayOutcome {
  uint64_t sync_rounds = 0;
  uint64_t local_steps = 0;
  std::vector<EvalPoint> evals;  // the root rank's evaluations
  double wall_s = 0.0;
};

/// Everything one rank's replay shares with the others.
struct ReplayShared {
  const TrainJob& job;
  std::vector<TrainJob> phases;  // phase jobs, derived from the sync plan
  std::vector<uint64_t> phase_start;
  Tracer& tracer;
  std::vector<std::unique_ptr<Replica>> replicas;
  std::unique_ptr<CommBackend> backend;
  ReplayOutcome outcome;

  size_t phase_at(uint64_t it) const {
    size_t p = 0;
    while (p + 1 < phase_start.size() && it >= phase_start[p + 1]) ++p;
    return p;
  }
};

/// One rank of a bulk-synchronous run: the SynchronousWorkerLoop stage
/// sequence (data -> compute -> Δ(g) -> vote -> aggregate -> evaluate)
/// issued as public calls, fault-free.
void replay_synchronous(ReplayShared& sh, WorkerContext& ctx) {
  const TrainJob& job = sh.job;
  const size_t track = ctx.rank;
  Tracer& tr = sh.tracer;
  Replica& rep = *sh.replicas[ctx.rank];
  CommBackend& backend = *sh.backend;
  StepTimeModel time(job.paper_model, job.device, job.network, job.topology,
                     job.workers);
  RelativeGradChange grad_change(ewma_alpha(job), job.selsync.ewma_window);
  std::vector<std::unique_ptr<SyncPolicy>> policies;
  for (const TrainJob& p : sh.phases) policies.push_back(make_sync_policy(p));
  const CommGroup group = CommGroup::full(job.workers);
  const SliceSchedule slices =
      job.slices <= 1
          ? SliceSchedule::single(rep.param_count())
          : SliceSchedule::build(rep.layer_sizes(), job.slices,
                                 job.slice_order);
  const uint64_t steps_per_epoch = job.steps_per_epoch();
  double sim_time = 0.0;
  uint64_t sync_rounds = 0, local_steps = 0;

  for (uint64_t it = 0; it < job.max_iterations; ++it) {
    des_yield(sim_time);
    Scoped step(tr, track, kStep, static_cast<int64_t>(it));
    const int64_t s = static_cast<int64_t>(it);
    const TrainJob& pj = sh.phases[sh.phase_at(it)];
    SyncPolicy& policy = *policies[sh.phase_at(it)];
    const double epoch =
        static_cast<double>(it) / static_cast<double>(steps_per_epoch);

    {
      Scoped span(tr, track, kLoadBatch, s);
      rep.load_next_batch();
    }
    std::vector<float> grads;
    {
      Scoped span(tr, track, kTrainStep, s);
      grads = rep.train_step_grads();
    }
    sim_time += time.compute_time(pj.batch_size);
    double delta = 0.0;
    {
      Scoped span(tr, track, kGradChange, s);
      delta = grad_change.update_from_grad(grads);
    }
    des_tick(sim_time);

    const bool vote = policy.local_vote(it, delta);
    bool any_sync = vote;
    if (policy.needs_flag_exchange()) {
      std::vector<uint8_t> flags;
      {
        Scoped span(tr, track, kFlags, s);
        flags = backend.allgather_flags(ctx, vote ? 1 : 0, group);
      }
      const size_t votes = static_cast<size_t>(std::count_if(
          flags.begin(), flags.end(), [](uint8_t f) { return f != 0; }));
      const size_t needed = std::max<size_t>(
          1, static_cast<size_t>(std::ceil(pj.selsync.sync_quorum *
                                           static_cast<double>(group.size))));
      any_sync = votes >= needed;
      sim_time += time.flag_time();
    }

    if (any_sync) {
      SyncCost cost;
      double wire_ratio = 1.0;
      const float weight = 1.f / static_cast<float>(job.workers);
      rep.take_measured();
      if (gradient_payload(pj)) {
        {
          Scoped span(tr, track, kAllreduce, s);
          wire_ratio = backend.allreduce_sliced(ctx, grads, slices, group,
                                                sim_time, delta, weight, true);
        }
        {
          Scoped span(tr, track, kSetFlatGrads, s);
          rep.set_flat_grads(grads);
        }
        Scoped span(tr, track, kOptimStep, s);
        rep.optimizer_step(it, epoch);
      } else {
        {
          Scoped span(tr, track, kOptimStep, s);
          rep.optimizer_step(it, epoch);
        }
        std::vector<float> params;
        {
          Scoped span(tr, track, kFlatParams, s);
          params = rep.flat_params();
        }
        {
          Scoped span(tr, track, kAllreduce, s);
          backend.allreduce_sliced(ctx, params, slices, group, sim_time,
                                   delta, weight, false);
        }
        Scoped span(tr, track, kSetFlatParams, s);
        rep.set_flat_params(params);
      }
      time.price_sync(cost, backend, slices, pj.overlap,
                      time.backward_time(pj.batch_size), wire_ratio);
      rep.take_measured();
      {
        Scoped span(tr, track, kMax, s);
        sim_time = backend.allreduce_max(ctx, sim_time, group) +
                   cost.round_time();
      }
      ++sync_rounds;
    } else {
      Scoped span(tr, track, kOptimStep, s);
      rep.optimizer_step(it, epoch);
      ++local_steps;
    }
    des_tick(sim_time);

    if ((it + 1) % job.eval_interval == 0 || it + 1 == job.max_iterations) {
      double stop_vote = 0.0;
      if (ctx.is_root()) {
        Scoped span(tr, track, kEvaluate, s);
        const EvalPoint pt = rep.evaluate(
            it + 1,
            static_cast<double>(it + 1) / static_cast<double>(steps_per_epoch),
            sim_time);
        sh.outcome.evals.push_back(pt);
        if (!std::isfinite(pt.loss)) stop_vote = 1.0;
      }
      Scoped span(tr, track, kMax, s);
      if (backend.allreduce_max(ctx, stop_vote, group) > 0.5) break;
    }
  }
  if (ctx.is_root()) {
    sh.outcome.sync_rounds = sync_rounds;
    sh.outcome.local_steps = local_steps;
  }
}

/// One rank of an SSP run: the SspWorkerLoop stage sequence (pull -> data
/// -> compute -> push -> staleness gate -> evaluate) as public calls.
void replay_ssp(ReplayShared& sh, WorkerContext& ctx) {
  const TrainJob& job = sh.job;
  const size_t track = ctx.rank;
  Tracer& tr = sh.tracer;
  Replica& rep = *sh.replicas[ctx.rank];
  ShardedParameterServer& ps = *sh.backend->central_store();
  StepTimeModel time(job.paper_model, job.device, job.network, job.topology,
                     job.workers);
  const uint64_t steps_per_epoch = job.steps_per_epoch();
  double sim_time = 0.0;

  for (uint64_t it = 0; it < job.max_iterations; ++it) {
    des_yield(sim_time);
    Scoped step(tr, track, kStep, static_cast<int64_t>(it));
    const int64_t s = static_cast<int64_t>(it);
    const double epoch =
        static_cast<double>(it) / static_cast<double>(steps_per_epoch);
    std::vector<float> pulled;
    {
      Scoped span(tr, track, kPsPull, s);
      pulled = ps.pull();
    }
    {
      Scoped span(tr, track, kSetFlatParams, s);
      rep.set_flat_params(pulled);
    }
    {
      Scoped span(tr, track, kLoadBatch, s);
      rep.load_next_batch();
    }
    {
      Scoped span(tr, track, kTrainStep, s);
      rep.train_step();
    }
    {
      Scoped span(tr, track, kOptimStep, s);
      rep.optimizer_step(it, epoch);
    }
    std::vector<float> delta;
    {
      Scoped span(tr, track, kFlatParams, s);
      delta = rep.flat_params();
    }
    for (size_t i = 0; i < delta.size(); ++i) delta[i] -= pulled[i];
    {
      Scoped span(tr, track, kPsPush, s);
      ps.apply_delta_async(delta);
    }
    sim_time += time.compute_time(job.batch_size) +
                time.ssp_step_comm_time(job.batch_size);
    des_tick(sim_time);
    {
      Scoped span(tr, track, kPsStale, s);
      ps.enforce_staleness(ctx.rank, it + 1, job.ssp.staleness);
    }
    des_tick(sim_time);
    if (ctx.is_root() && ((it + 1) % job.eval_interval == 0 ||
                          it + 1 == job.max_iterations)) {
      {
        Scoped span(tr, track, kPsPull, s);
        pulled = ps.pull();
      }
      rep.set_flat_params(pulled);
      Scoped span(tr, track, kEvaluate, s);
      sh.outcome.evals.push_back(rep.evaluate(
          it + 1,
          static_cast<double>(it + 1) / static_cast<double>(steps_per_epoch),
          sim_time));
    }
  }
  ps.finish(ctx.rank);
}

/// Runs the traced replay of `job` on its own engine and transport.
ReplayOutcome replay(const TrainJob& job, Tracer& tracer) {
  ReplayShared sh{job, {}, {}, tracer, {}, nullptr, {}};
  for (size_t p = 0; p < job.sync_plan.phase_count(); ++p) {
    sh.phases.push_back(derive_phase_job(job, p));
    sh.phase_start.push_back(
        p == 0 ? 0 : job.sync_plan.phases[p - 1].trigger.at_iteration);
  }
  // Every phase of the benchmark's plans runs on the same backend kind
  // with no codec, so one backend serves the whole replay.
  std::unique_ptr<TransportSession> session = open_transport(job);
  for (size_t r = 0; r < job.workers; ++r)
    sh.replicas.push_back(session->make_replica(r));
  sh.backend = make_backend(sh.phases.front());

  WallTimer wall;
  try {
    run_cluster(
        job.engine, job.workers,
        [&](WorkerContext& ctx) {
          if (job.strategy == StrategyKind::kSsp)
            replay_ssp(sh, ctx);
          else
            replay_synchronous(sh, ctx);
        },
        [&] {
          sh.backend->abort();
          session->abort();
        });
  } catch (...) {
    session->finish();
    throw;
  }
  sh.outcome.wall_s = wall.elapsed_s();
  session->finish();
  return sh.outcome;
}

/// Repeats `fn` until at least `min_seconds` have passed (and at least
/// `min_reps` times) inside one probe span; returns seconds per call.
template <typename Fn>
double time_per_call(Tracer& tr, const char* name, double min_seconds,
                     size_t min_reps, Fn&& fn) {
  Scoped span(tr, tr.host_track(), name, -1);
  WallTimer timer;
  size_t reps = 0;
  while (reps < min_reps || timer.elapsed_s() < min_seconds) {
    fn();
    ++reps;
  }
  return timer.elapsed_s() / static_cast<double>(reps);
}

std::vector<float> random_vector(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.normal());
  return v;
}

/// Sums the durations of every span in `names` per (track, step) over rank
/// tracks [0, ranks); one sample per (track, step) that has any.
std::vector<double> per_step_sum(const Tracer& tr, size_t ranks,
                                 const std::vector<const char*>& names) {
  std::vector<double> out;
  for (size_t t = 0; t < ranks; ++t) {
    std::map<int64_t, double> by_step;
    for (const Span& s : tr.track(t))
      for (const char* n : names)
        if (std::string(n) == s.name) by_step[s.step] += s.seconds();
    for (const auto& [step, sec] : by_step) out.push_back(sec);
  }
  return out;
}

/// Every rank's spans of one collective call: the k-th call named `name`
/// in a step, keyed by (step, k).
std::map<std::pair<int64_t, size_t>, std::vector<const Span*>> calls_of(
    const Tracer& tr, size_t ranks, const char* name) {
  std::map<std::pair<int64_t, size_t>, std::vector<const Span*>> calls;
  for (size_t t = 0; t < ranks; ++t) {
    std::map<int64_t, size_t> seen;
    for (const Span& s : tr.track(t))
      if (std::string(name) == s.name)
        calls[{s.step, seen[s.step]++}].push_back(&s);
  }
  return calls;
}

/// The collective's own time per call: from the last rank's entry to the
/// first rank's exit. Before the last entry the call only waits for
/// arrivals; after the first exit a rank is back in its own step. Under
/// DES the ranks are fibers on one thread, so a rank's whole span would
/// also hold the other fibers' compute.
std::vector<double> collective_times(const Tracer& tr, size_t ranks,
                                     const char* name) {
  std::vector<double> out;
  for (const auto& [key, spans] : calls_of(tr, ranks, name)) {
    if (spans.size() != ranks) continue;  // not a full-group call
    Clock::time_point last_in = spans.front()->start;
    Clock::time_point first_out = spans.front()->end;
    for (const Span* s : spans) {
      last_in = std::max(last_in, s->start);
      first_out = std::min(first_out, s->end);
    }
    out.push_back(std::chrono::duration<double>(first_out - last_in).count());
  }
  return out;
}

/// Share of the allreduce calls' time spent waiting for the last rank to
/// arrive: per round, each rank waits (last entry - own entry).
double allreduce_wait_share(const Tracer& tr, size_t ranks) {
  double wait = 0.0, total = 0.0;
  for (const auto& [key, spans] : calls_of(tr, ranks, kAllreduce)) {
    Clock::time_point last = spans.front()->start;
    for (const Span* s : spans) last = std::max(last, s->start);
    for (const Span* s : spans) {
      wait += std::chrono::duration<double>(last - s->start).count();
      total += s->seconds();
    }
  }
  return total > 0.0 ? wait / total : 0.0;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

bool same_evals(const std::vector<EvalPoint>& a,
                const std::vector<EvalPoint>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i)
    if (a[i].iteration != b[i].iteration || a[i].loss != b[i].loss ||
        a[i].top1 != b[i].top1)
      return false;
  return true;
}

}  // namespace

TraceReport traced_run(const BenchWorkload& workload, uint64_t seed,
                       const std::string& trace_path) {
  TraceReport report;
  const TrainJob job = workload.make_job(seed, workload.iterations);
  const size_t n = job.workers;
  const bool ssp = job.strategy == StrategyKind::kSsp;

  // 1. The untraced reference run: the counts that pin sim_time_s, and the
  //    untraced per-step time the tracing overhead is measured against. A
  //    short run first warms the process, as the replay after it is warm.
  run_training(
      workload.make_job(seed, std::max<uint64_t>(1, job.max_iterations / 4)));
  const TrainResult ref = run_training(job);
  const double steps = static_cast<double>(n * job.max_iterations);
  if (ref.iterations != job.max_iterations || ref.diverged)
    report.problem = "reference run stopped short or diverged";

  // 2. The traced replay.
  Tracer tr(n);
  const ReplayOutcome out = replay(job, tr);
  if (!same_evals(out.evals, ref.eval_history))
    report.problem = "replay evaluations differ from run_training's";
  if (!ssp && (out.sync_rounds != ref.sync_steps ||
               out.local_steps != ref.local_steps))
    report.problem = "replay sync/local step counts differ from "
                     "run_training's";

  // 3. The plain single-worker baseline: the same model and batch on one
  //    in-proc replica, nothing else running.
  const Workload model = workload_by_name("ResNet101");
  TrainJob single = make_job(model, StrategyKind::kBsp, 1, 200);
  single.seed = seed;
  std::unique_ptr<TransportSession> local = open_transport(single);
  std::unique_ptr<Replica> solo = local->make_replica(0);
  for (uint64_t it = 0; it < single.max_iterations; ++it) {
    solo->load_next_batch();
    {
      Scoped span(tr, tr.host_track(), kSingleStep, static_cast<int64_t>(it));
      solo->train_step_grads();
    }
    solo->optimizer_step(it, 0.0);
  }

  // 4. Standalone probes at the workload's shapes, inside one host span.
  const size_t probes = tr.open(tr.host_track(), kProbe, -1);
  const size_t params = solo->param_count();

  // tensor: the model's own Linear layers, forward + both backward kernels.
  double macs = 0.0;
  std::vector<std::pair<Tensor, Tensor>> shapes;  // {weight, batch input}
  {
    Rng rng(seed);
    auto net = model.model_factory(seed);
    for (Param* p : net->params())
      if (p->value.rank() == 2) {
        const size_t out_dim = p->value.dim(0), in_dim = p->value.dim(1);
        shapes.emplace_back(p->value,
                            Tensor::randn({job.batch_size, in_dim}, rng));
        macs += 3.0 * static_cast<double>(job.batch_size * in_dim * out_dim);
      }
  }
  float sink = 0.f;
  const double matmul_s = time_per_call(tr, "tensor.matmul", 0.2, 10, [&] {
    for (const auto& [w, x] : shapes) {
      const Tensor y = ops::matmul_nt(x, w);   // forward
      const Tensor gw = ops::matmul_tn(y, x);  // weight gradient
      const Tensor gx = ops::matmul(y, w);     // input gradient
      sink += y.data()[0] + gw.data()[0] + gx.data()[0];
    }
  });

  // stats: Δ(g) on a payload-sized gradient (SSP runs no Δ(g), so this is
  // its only sample there).
  const std::vector<float> payload = random_vector(params, seed);
  RelativeGradChange probe_gc;
  const double gradchange_probe_s = time_per_call(
      tr, kGradChange, 0.05, 10,
      [&] { sink += static_cast<float>(probe_gc.update_from_grad(payload)); });

  // comm codec: the workload's codec (Top-k 1% where it ships dense) on its
  // chunk size — a ring chunk is one rank's share of one slice; the other
  // backends code the whole vector.
  CompressionConfig codec_cfg = job.compression;
  if (codec_cfg.kind == CompressionKind::kNone) {
    codec_cfg.kind = CompressionKind::kTopK;
    codec_cfg.topk_fraction = 0.01;
  }
  const size_t chunk =
      job.backend == BackendKind::kRing
          ? std::max<size_t>(1, params / (n * std::max<size_t>(1, job.slices)))
          : params;
  ChunkCodec codec(codec_cfg, 1);
  std::vector<float> chunk_buf(payload.begin(), payload.begin() + chunk);
  const double codec_s = time_per_call(tr, "comm.codec_transform", 0.1, 10,
                                       [&] {
                                         codec.begin_round(0, 0.0);
                                         sink += static_cast<float>(
                                             codec.transform(0, 0, chunk_buf));
                                       });

  // comm wire format: header + dense f32 payload, encoded and decoded.
  const double wire_s = time_per_call(tr, "comm.wire_roundtrip", 0.1, 10, [&] {
    std::vector<uint8_t> frame = wire::encode_header(7, params * 4);
    wire::put_f32s(frame, payload);
    const wire::FrameHeader h =
        wire::decode_header(frame.data(), wire::kHeaderBytes);
    wire::Reader in(frame.data() + wire::kHeaderBytes,
                    frame.size() - wire::kHeaderBytes);
    sink += wire::get_f32s(in, h.payload_len / 4).back();
  });
  const double wire_bytes = 2.0 * static_cast<double>(params * 4);

  // comm DES scheduler at the workload's N: fiber spawn, then switches.
  const size_t yields = 64;
  const double spawn_s = time_per_call(tr, "comm.des_spawn", 0.05, 3, [&] {
    run_cluster(EngineKind::kDes, n, [](WorkerContext&) {});
  });
  const double switch_run_s = time_per_call(tr, "comm.des_switch", 0.1, 3, [&] {
    run_cluster(EngineKind::kDes, n, [&](WorkerContext&) {
      for (size_t y = 1; y <= yields; ++y) des_yield(static_cast<double>(y));
    });
  });

  // comm TCP replica verb: flat_params over a one-rank loopback session,
  // minus the same verb on the in-proc replica.
  {
    TrainJob wire_job = single;
    wire_job.transport = TransportKind::kTcp;
    std::unique_ptr<TransportSession> session = open_transport(wire_job);
    std::unique_ptr<Replica> remote = session->make_replica(0);
    for (int i = 0; i < 200; ++i) {
      {
        Scoped span(tr, tr.host_track(), kVerbTcp, i);
        sink += remote->flat_params().front();
      }
      Scoped span(tr, tr.host_track(), kVerbInproc, i);
      sink += solo->flat_params().front();
    }
    remote.reset();
    session->finish();
  }
  tr.close(tr.host_track(), probes);
  if (!std::isfinite(sink)) report.problem = "probe produced non-finite data";

  // ---- metrics -------------------------------------------------------------
  const auto ms = [](double s) { return s * 1e3; };
  const auto us = [](double s) { return s * 1e6; };
  const auto p50 = [&](const char* name) {
    return percentile(tr.durations(name, 0, n), 0.5);
  };
  const std::vector<double> train = tr.durations(kTrainStep, 0, n);
  const auto host_p50 = [&](const char* name) {
    return percentile(
        tr.durations(name, tr.host_track(), tr.host_track() + 1), 0.5);
  };
  const double single_p50 = host_p50(kSingleStep);
  const double verb_rtt = host_p50(kVerbTcp) - host_p50(kVerbInproc);
  // A remote train step also carries one verb round trip; contention
  // compares the replica's compute alone with the single worker's.
  const double train_compute_p50 =
      percentile(train, 0.5) -
      (job.transport == TransportKind::kTcp ? verb_rtt : 0.0);
  std::vector<double> control = collective_times(tr, n, kFlags);
  for (double d : collective_times(tr, n, kMax)) control.push_back(d);
  const std::vector<double> allreduce = collective_times(tr, n, kAllreduce);
  // The PS's own work per step is pull + push; the staleness gate only
  // waits for slower ranks.
  const std::vector<double> ps_round = per_step_sum(tr, n, {kPsPull, kPsPush});
  const double ps_wait = sum(tr.durations(kPsStale, 0, n));
  const double rounds = static_cast<double>(ref.sync_cost.rounds);
  const auto per_round = [&](double total) {
    return rounds > 0.0 ? total / rounds : 0.0;
  };
  const double untraced_step = ref.wall_time_s / steps;
  const double traced_step = out.wall_s / steps;
  const double stats_p50 =
      ssp ? gradchange_probe_s : p50(kGradChange);

  report.metrics = {
      {"tensor.matmul_gmacs", macs / matmul_s / 1e9, "GMAC/s"},
      {"nn.train_step_ms.p50", ms(percentile(train, 0.5)), "ms"},
      {"nn.train_step_ms.p99", ms(percentile(train, 0.99)), "ms"},
      {"nn.evaluate_ms", ms(p50(kEvaluate)), "ms"},
      {"nn.train_step_contention",
       single_p50 > 0.0 ? train_compute_p50 / single_p50 : 0.0, "ratio"},
      {"data.load_batch_us.p50", us(p50(kLoadBatch)), "us"},
      {"optim.step_us.p50", us(p50(kOptimStep)), "us"},
      {"stats.gradchange_us.p50", us(stats_p50), "us"},
      {"comm.allreduce_ms.p50", ms(percentile(allreduce, 0.5)), "ms"},
      {"comm.allreduce_ms.p99", ms(percentile(allreduce, 0.99)), "ms"},
      {"comm.allreduce_wait_share", allreduce_wait_share(tr, n), "share"},
      {"comm.control_us.p50", us(percentile(control, 0.5)), "us"},
      {"comm.des_switch_ns",
       std::max(0.0, switch_run_s - spawn_s) * 1e9 /
           static_cast<double>(n * yields),
       "ns"},
      {"comm.des_spawn_us", us(spawn_s / static_cast<double>(n)), "us"},
      {"comm.codec_ns_per_value",
       codec_s * 1e9 / static_cast<double>(chunk), "ns"},
      {"comm.wire_encode_gbps", wire_bytes / wire_s / 1e9, "GB/s"},
      {"comm.verb_rtt_us.p50", us(verb_rtt), "us"},
      {"comm.measured_sync_ms_per_round",
       ms(per_round(ref.sync_cost.measured_sync_s)), "ms"},
      {"comm.ps_round_ms.p50", ms(percentile(ps_round, 0.5)), "ms"},
      {"comm.ps_wait_share",
       ps_round.empty() ? 0.0 : ps_wait / (ps_wait + sum(ps_round)), "share"},
      {"core.sync_rounds", static_cast<double>(ref.sync_steps), "count"},
      {"core.lssr", ref.lssr(), "ratio"},
      {"comm.wire_bytes_per_round", per_round(ref.sync_cost.wire_bytes),
       "bytes"},
      {"comm.dense_bytes_per_round", per_round(ref.sync_cost.dense_bytes),
       "bytes"},
      {"trace.overhead_share",
       untraced_step > 0.0 ? traced_step / untraced_step - 1.0 : 0.0,
       "share"},
  };

  std::vector<std::string> names;
  for (size_t r = 0; r < n; ++r) names.push_back("rank " + std::to_string(r));
  names.push_back("host (single worker + probes)");
  report.spans = tr.span_count();
  tr.write_chrome(trace_path, names);
  return report;
}

}  // namespace perf
