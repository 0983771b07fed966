"""Run the benchmark over several seeds and summarize every metric.

    python3 perfbench/collect.py --seeds 10 [--out FILE] [--baseline FILE]

Reads the command, run_seconds, workloads, end-to-end metrics and bounds from
BENCHMARK.json and runs the command with --trace 0 once per workload and
seed 1..N, one run at a time.  For each end-to-end metric it reports the
median, the quartiles from statistics.quantiles(values, n=4) and the spread
(Q3 - Q1) / median, marked "steady" below a third of the metric's bound.
With --baseline, it also reports how far each median moved from the baseline
file's median, in the metric's worse direction, against the bound.  --out
writes all values and summaries to a JSON file, with the git commit, Python
version and CPU count.
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values),
            "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def worse_by(metric, new, old):
    """Relative change of the median in the metric's worse direction."""
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out")
    parser.add_argument("--baseline")
    args = parser.parse_args(argv)
    if args.seeds < 2:
        parser.error("--seeds must be at least 2 to give quartiles")
    baseline = json.loads(Path(args.baseline).read_text()) \
        if args.baseline else None
    report = {"git_sha": git_sha(), "python": platform.python_version(),
              "nproc": os.cpu_count(),
              "date": datetime.datetime.now(datetime.timezone.utc)
              .isoformat(timespec="seconds"),
              "run_seconds": bench["run_seconds"],
              "seeds": list(range(1, args.seeds + 1)),
              "baseline": args.baseline, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in report["seeds"]:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]),
                "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            if proc.returncode != 0:
                sys.exit("%s failed:\n%s" % (" ".join(cmd), proc.stderr))
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            runs.append(result)
            print("%s seed %d: correct=%s attempted=%d failed=%d" % (
                workload, seed, result["correct"], result["attempted"],
                result["failed"]), flush=True)
        summary = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            summary[name] = summarize(
                [r["metrics"][name]["value"] for r in runs])
            s = summary[name]
            line = "  %-26s median %-12.6g spread %s" % (
                name, s["median"],
                "%.4f" % s["spread"] if s["spread"] is not None else "-")
            if s["spread"] is not None:
                line += " (bound %.2f: %s)" % (
                    metric["bound"], "steady" if s["spread"] < metric["bound"]
                    / 3 else "within bound" if s["spread"] <= metric["bound"]
                    else "too wide")
            if baseline:
                old = baseline["workloads"][workload][name]["median"]
                s["worse_than_baseline"] = worse_by(metric, s["median"], old)
                line += "; %+.4f worse than baseline (%s)" % (
                    s["worse_than_baseline"],
                    "ok" if s["worse_than_baseline"] <= metric["bound"]
                    else "REGRESSED")
            print(line, flush=True)
        report["workloads"][workload] = summary
        report["workloads"][workload]["correct_runs"] = sum(
            r["correct"] for r in runs)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
