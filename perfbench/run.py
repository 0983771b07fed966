"""Run one workload of the mvgb benchmark and print its metrics.

    python3 perfbench/run.py --workload multiview --seed 1 --seconds 10 --trace 0

Workloads: multiview, certify, fan, census (see README.md).  Every sample
runs in a fresh process (worker.py) with MVGB_NODE_CAP cleared and the
numpy/BLAS thread counts pinned to 1, so the load comes from one thread.

Times are scaled to a nominal machine speed (speed.py): a reference loop
sampled every 20 ms tells how fast the shared machine ran during each job.
--trace 0 takes SETUP_SAMPLES set-up samples, one of them from the process
that then runs the timed part, and reports the end-to-end metrics; the
times as measured are in the detail line.  --trace 1 runs the workload once
untraced and once traced with the same seed and reports the per-layer
metrics, whose times are scaled the same way; the traced mean job time over
the untraced one, minus one, is the tracing overhead.  Spans are written to
.bench_out/trace-<workload>-<seed>.json.

Output: a summary for people, one JSON line of details (seed, jobs per kind,
tail latency with its percentile and job count, failures), and as the last
line {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 9
DEADLINE_S = 170  # the whole command must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END = (("jobs_per_s", "1/s"), ("job_p50_s", "s"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))


class BenchError(Exception):
    pass


def worker_env():
    env = {k: v for k, v in os.environ.items() if k != "MVGB_NODE_CAP"}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, deadline, extra=()):
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("a worker was still running at the deadline")
    if proc.returncode != 0:
        raise BenchError("a worker exited with code %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(times):
    """Job time at the highest percentile that still has at least ten jobs
    beyond it, with that percentile and the job count; None below 11 jobs."""
    n = len(times)
    if n < 11:
        return None
    return {"value": sorted(times)[n - 11], "percentile": 100 * (n - 10) / n,
            "jobs": n}


def job_details(run):
    """Scaled job times and the details of a worker's timed part."""
    times = [adjusted for _, _, adjusted in run["jobs"]]
    by_kind = defaultdict(list)
    for kind, _, adjusted in run["jobs"]:
        by_kind[kind].append(adjusted)
    return times, {
        "rounds": run["rounds"],
        "elapsed_s": run["elapsed_s"],
        "jobs": len(times),
        "slowdown": run["slowdown"],
        "measured_jobs_per_s": len(times) / run["elapsed_s"],
        "measured_job_p50_s": statistics.median(
            wall for _, wall, _ in run["jobs"]),
        "kinds": {k: {"jobs": len(v), "p50_s": statistics.median(v)}
                  for k, v in sorted(by_kind.items())},
        "job_tail_s": tail(times),
        "failed_frac": len(run["problems"]) / len(times),
        "problems": run["problems"][:5],
    }


def untraced(args, deadline):
    setups = [run_worker(args, deadline, ["--setup-only"])
              for _ in range(SETUP_SAMPLES - 1)]
    run = run_worker(args, deadline)
    setups.append(run)
    times, detail = job_details(run)
    detail["setup_samples_s"] = [s["setup_adjusted_s"] for s in setups]
    detail["measured_setup_samples_s"] = [s["setup_s"] for s in setups]
    detail["warmup_problems"] = [s["warmup_problem"] for s in setups
                                 if s["warmup_problem"]]
    values = {
        "jobs_per_s": len(times) / run["timed_adjusted_s"],
        "job_p50_s": statistics.median(times),
        "peak_rss_mb": run["peak_rss_mb"],
        "setup_s": statistics.median(detail["setup_samples_s"]),
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    correct = not run["problems"] and not detail["warmup_problems"]
    return correct, len(times), len(run["problems"]), metrics, detail


def traced(args, deadline):
    plain = run_worker(args, deadline)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / ("trace-%s-%d.json" % (args.workload, args.seed))
    run = run_worker(args, deadline, ["--trace", str(trace_file)])
    values = dict(run["layers"])
    values["trace.overhead_frac"] = (
        statistics.mean(a for _, _, a in run["jobs"])
        / statistics.mean(a for _, _, a in plain["jobs"]) - 1)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in tracing.PER_LAYER}
    _, detail = job_details(run)
    detail["untraced"] = {"rounds": plain["rounds"],
                          "elapsed_s": plain["elapsed_s"]}
    detail["timed_self_s"] = run["timed_self_s"]
    detail["trace_file"] = str(trace_file.relative_to(ROOT))
    problems = [p for r in (plain, run)
                for p in r["problems"] + [r["warmup_problem"]] if p]
    # self times of nested calls cannot add up to more than the timed part
    consistent = run["timed_self_s"] <= run["timed_adjusted_s"]
    detail["self_times_within_wall"] = consistent
    attempted = len(plain["jobs"]) + len(run["jobs"])
    failed = len(plain["problems"]) + len(run["problems"])
    return (consistent and not problems, attempted, failed, metrics,
            detail)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mvgb" / "__init__.py").is_file():
        print("error: the mvgb sources are not under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        correct, attempted, failed, metrics, detail = (
            traced if args.trace else untraced)(args, deadline)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    detail.update({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "python": platform.python_version(),
                   "nproc": os.cpu_count()})
    print("mvgb benchmark: workload %s, seed %d, %d rounds, %d jobs in "
          "%.2f s" % (args.workload, args.seed, detail["rounds"],
                      detail["jobs"], detail["elapsed_s"]))
    for kind, k in detail["kinds"].items():
        print("  %-16s %4d jobs, median %.4f s" % (kind, k["jobs"],
                                                   k["p50_s"]))
    for name, m in metrics.items():
        print("  %-26s %.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
