#!/usr/bin/env python3
"""SelSync performance benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the library and the selsync_perf
program from source into .bench_build/perfbench, then:

  --trace 0  repeats untraced end-to-end runs of the workload (one fresh
             process each) for S seconds, checks every run's outputs, and
             reports the end-to-end metrics as medians over the runs.
  --trace 1  repeats the traced per-layer run for S seconds, writes its
             spans as Chrome trace-event JSON under .bench_build/traces/,
             and reports the per-layer metrics as medians over the runs.

--workload all measures every workload in turn, S seconds each, and names
each metric <workload>.<metric>. The last line of stdout is one JSON object:
correct, attempted, failed and metrics. Lines before it are a human-readable report and a "# info" record
of the commit, build and host.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD_DIR, "selsync_perf")

WORKLOADS = ["hybrid-n4-des", "bsp-n128-des", "ring-topk-tcp-n4",
             "ssp-ps-n64-des"]
# An end-to-end run repeats at least this many times, however long one
# takes. Its first repeat warms the host (page cache, idle vCPUs) and is
# checked but left out of the timing medians.
MIN_REPEATS = 4
# Backstop for one child process; a whole run must end within 180 s.
CHILD_TIMEOUT_S = 120
JOBS = max(1, min(4, os.cpu_count() or 1))


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark package; exits 1 when the
    checkout cannot build it."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: no library sources at src/; run from a full checkout")
        sys.exit(1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(JOBS)])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("run.py: build step failed: " + " ".join(cmd))
            sys.exit(1)


def git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        return done.stdout.strip() if done.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def child(args):
    """Runs selsync_perf with `args`; returns its JSON result or None."""
    try:
        done = subprocess.run([BINARY] + args, cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: selsync_perf timed out: " + " ".join(args))
        return None
    if done.returncode != 0:
        log(done.stderr.strip())
        return None
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log("run.py: unreadable selsync_perf output: " + done.stdout[-500:])
        return None


def repeat(seconds, once, min_repeats):
    """Calls once() at least `min_repeats` times, then for as long as another
    call, as long as the last one, still ends within `seconds`."""
    start = time.monotonic()
    results, last = [], 0.0
    while (len(results) < min_repeats
           or time.monotonic() - start + last <= seconds):
        begun = time.monotonic()
        results.append(once())
        last = time.monotonic() - begun
    return results


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(workload, seed, seconds):
    """Untraced repeats. A repeat fails if it threw, diverged, stopped short
    of its budget, or its digest of the deterministic outputs (sync/local
    steps, sim_time_s, best_top1, eval history) differs from the first
    repeat's — every repeat runs the same seed."""
    args = ["run", "--workload", workload, "--seed", str(seed)]
    runs = repeat(seconds, lambda: child(args), MIN_REPEATS)
    reference = next((r for r in runs if r is not None), None)
    ok, failed = [], 0
    for r in runs:
        good = (r is not None and r["iterations"] == r["budget"]
                and not r["diverged"]
                and r["digest"] == reference["digest"])
        if good:
            ok.append(r)
        else:
            failed += 1
    timed = [r for r in ok if r is not runs[0]]
    steps_per_s = [r["workers"] * r["iterations"] / r["wall_time_s"]
                   for r in timed]
    metrics = {
        "worker_steps_per_s": (median(steps_per_s), "1/s"),
        "setup_s": (median([r["setup_s"] for r in timed]), "s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in timed]), "MiB"),
    }
    # Modeled time and quality are deterministic per seed (the digest pins
    # them), so they are reported, not measured.
    report = dict(metrics)
    report["sim_time_s"] = (reference["sim_time_s"] if reference else 0.0,
                            "s (modeled)")
    report["best_top1"] = (reference["best_top1"] if reference else 0.0,
                           "fraction")
    report["run_failure_ratio"] = (failed / len(runs), "ratio")
    print(f"workload {workload} seed {seed}: {len(runs)} runs, "
          f"{len(ok)} passed the output check")
    if reference:
        print(f"  budget {reference['budget']} steps x "
              f"{reference['workers']} workers; sync rounds "
              f"{reference['sync_steps']}, local steps "
              f"{reference['local_steps']}; digest {reference['digest']}")
    if steps_per_s:
        print(f"  worker_steps_per_s over {len(steps_per_s)} runs: min "
              f"{min(steps_per_s):.1f}, median {median(steps_per_s):.1f}, "
              f"max {max(steps_per_s):.1f}")
    for name, (value, unit) in report.items():
        print(f"  {name:<22} {value:>16.6g} {unit}")
    return len(runs), failed, metrics


def per_layer(workload, seed, seconds):
    """Traced repeats; a repeat fails if its replay disagreed with
    run_training or a probe misbehaved."""
    os.makedirs(TRACE_DIR, exist_ok=True)
    trace_file = os.path.join(TRACE_DIR, f"{workload}-seed{seed}.json")
    args = ["trace", "--workload", workload, "--seed", str(seed),
            "--trace-out", trace_file]
    runs = repeat(seconds, lambda: child(args), 1)
    ok = [r for r in runs if r is not None and not r["problem"]]
    for r in runs:
        if r is not None and r["problem"]:
            log(f"run.py: traced run failed its check: {r['problem']}")
    metrics = {}
    if ok:
        for name, m in ok[0]["metrics"].items():
            metrics[name] = (median([r["metrics"][name]["value"] for r in ok]),
                             m["unit"])
    print(f"workload {workload} seed {seed}: {len(runs)} traced runs, "
          f"{len(ok)} passed; spans in {os.path.relpath(trace_file, ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    return len(runs), len(runs) - len(ok), metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    if opts.seed < 0:
        parser.error("--seed must be non-negative")

    build()
    info = child(["info"]) or {}
    info.update({"commit": git_commit(), "nproc": os.cpu_count(),
                 "workload": opts.workload, "seed": opts.seed,
                 "trace": opts.trace})
    print("# info " + json.dumps(info, sort_keys=True))

    measure = per_layer if opts.trace else end_to_end
    names = WORKLOADS if opts.workload == "all" else [opts.workload]
    attempted, failed, metrics = 0, 0, {}
    for name in names:
        a, f, m = measure(name, opts.seed, opts.seconds)
        attempted, failed = attempted + a, failed + f
        for metric, value in m.items():
            metrics[metric if len(names) == 1 else f"{name}.{metric}"] = value
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
