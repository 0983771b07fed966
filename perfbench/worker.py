"""One process of the mvgb benchmark: set a workload up, run it, report.

    python3 perfbench/worker.py --workload fan --seed 3 --seconds 15
                                [--setup-only] [--trace spans.json]

Set-up is everything before the first timed job: importing mvgb, building
the seeded inputs and one untimed warm-up job.  The timed part runs whole
rounds of jobs until --seconds have passed.  Every time is reported both as
measured and scaled to the nominal machine speed (speed.py).  With --trace,
spans around each layer's public functions are recorded and written to the
given file when the run ends.  The last line of output is one JSON object.
run.py starts this script in a fresh process for every sample.
"""

import time

STARTED = time.perf_counter()  # set-up time counts from here

import speed  # noqa: E402

SPEEDOMETER = speed.Speedometer()
SPEEDOMETER.start()

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402  (imports mvgb)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", metavar="FILE")
    args = parser.parse_args(argv)

    recorder = None
    if args.trace:
        recorder = tracing.Recorder()
        tracing.install(recorder)
    rng = random.Random(args.seed)
    workload = workloads.BUILDERS[args.workload](rng)
    warmup = workloads.run_job(workload.warmup)
    setup_end = time.perf_counter()
    out = {"setup_s": setup_end - STARTED, "warmup_problem": warmup.problem}
    if not args.setup_only:
        timed_start = time.perf_counter()
        records, rounds, elapsed = workloads.run_rounds(
            workload, rng, args.seconds,
            before_job=recorder.start_job if recorder else None)
        timed_end = time.perf_counter()
        SPEEDOMETER.stop()
        scaled = SPEEDOMETER.measure()
        out.update({
            "rounds": rounds,
            "elapsed_s": elapsed,
            "timed_adjusted_s": scaled(timed_start, timed_end),
            "jobs": [[r.kind, r.wall_s,
                      scaled(r.started, r.started + r.wall_s)]
                     for r in records],
            "problems": [[i, r.kind, r.problem]
                         for i, r in enumerate(records) if r.problem],
            "slowdown": SPEEDOMETER.slowdown(),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        })
        if recorder:
            out["layers"], out["timed_self_s"] = tracing.summarize(
                recorder.spans, rounds, timed_start, timed_end, scaled)
            recorder.write(args.trace)
    SPEEDOMETER.stop()
    out["setup_adjusted_s"] = SPEEDOMETER.measure()(STARTED, setup_end)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
