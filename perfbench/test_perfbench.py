"""Tests of the benchmark itself: every oracle rejects a wrong result, a
failed job is counted and never stops the run, the traced run's self times
are consistent, and the speedometer scales times as documented.

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py
"""

import json
import random
import time
from pathlib import Path

import pytest

import run
import speed
import tracing
import workloads
from mvgb import hilbscheme, lp, monomial, toric
from mvgb.monomial import MonomialIdeal


def jobs_of(name, seed=5):
    return {j.kind: j for j in workloads.BUILDERS[name](
        random.Random(seed)).jobs}


@pytest.fixture(scope="module")
def multiview_jobs():
    return jobs_of("multiview")


def test_camera_oracle(multiview_jobs):
    job = multiview_jobs["camera"]
    result = job.run()
    assert job.check(result) is None
    gens = result["block_initial"].gens
    ring = result["block_initial"].ring
    dropped = dict(result, block_initial=MonomialIdeal(ring, gens[1:]))
    assert job.check(dropped) is not None
    box = dict(result["weight_box"])
    box[(1, 1, 1)] += 1
    assert job.check(dict(result, weight_box=box)) is not None
    assert job.check(dict(result, parsed=result["parsed"][:-1])) is not None


def test_degeneration_oracle(multiview_jobs):
    job = multiview_jobs["degeneration3"]
    report = job.run()
    assert job.check(report) is None
    checks = dict(report["checks"], hilbert_box={"pass": False})
    assert job.check(dict(report, checks=checks)) is not None
    assert job.check(dict(report, **{"pass": False})) is not None
    assert workloads.check_degeneration(report, 4) is not None


def test_certify_oracle():
    job = jobs_of("certify")["certify"]
    result = job.run()
    assert job.check(result) is None
    witness = {"order_index": 0, "pair": (0, 1)}
    assert job.check(dict(result, minors=(False, witness))) is not None
    assert job.check(dict(result, minimal=(True, None))) is not None
    assert job.check(dict(result, minimal=(False, None))) is not None
    assert job.check(dict(result, orders=result["orders"] - 1)) is not None


def test_fan_oracles():
    jobs = jobs_of("fan")
    toric_result = jobs["toric"].run()
    assert jobs["toric"].check(toric_result) is None
    assert jobs["toric"].check(dict(toric_result, nodes=19)) is not None
    shapes = [(1, 6), (1, 6), (2, 5)]
    assert jobs["toric"].check(dict(toric_result, shapes=shapes)) is not None
    pair_result = jobs["pair_fan"].run()
    assert jobs["pair_fan"].check(pair_result) is None
    assert jobs["pair_fan"].check({"nodes": 8, "distinct": 8}) is not None


def test_census_oracle():
    right = {"ideals": 13824, "classes": 16,
             "hash": workloads.CENSUS3_HASH,
             "tangent": {15: 2, 18: 7, 19: 5, 21: 2}}
    assert workloads.check_census(right) is None
    two = hilbscheme.monomial_ideal_census(2)
    wrong = [dict(right, ideals=13823),
             dict(right, hash=hilbscheme.census_hash(two)),
             dict(right, classes=15),
             dict(right, tangent={15: 2, 16: 5, 18: 2, 19: 5, 21: 2})]
    for result in wrong:
        assert workloads.check_census(result) is not None


def test_tangent_oracles():
    jobs = jobs_of("census")
    assert jobs["tangent5"].check(jobs["tangent5"].run()) is None
    assert jobs["tangent5"].check(39) is not None
    basis = jobs["tangent_basis5"].run()
    assert jobs["tangent_basis5"].check(basis) is None
    assert jobs["tangent_basis5"].check((False, basis[1])) is not None
    details = dict(basis[1], tangent_dimension=21)
    assert jobs["tangent_basis5"].check((True, details)) is not None


def test_census_warmup_runs_the_orbit_code():
    wl = workloads.BUILDERS["census"](random.Random(1))
    warmup = wl.warmup
    assert "orbits" not in [j.kind for j in wl.jobs]
    tangent5, orbits = warmup.run()
    assert warmup.check([tangent5, orbits]) is None
    assert warmup.check([39, orbits]) is not None
    assert warmup.check([tangent5, orbits * 2]) is not None


def test_failed_jobs_are_counted_and_do_not_stop_the_run():
    def boom():
        raise RuntimeError("raised inside a job")

    jobs = (workloads.Job("right", lambda: 40, lambda r:
                          workloads.check_tangent(r, 5)),
            workloads.Job("wrong", lambda: 39, lambda r:
                          workloads.check_tangent(r, 5)),
            workloads.Job("raises", boom, lambda r: None))
    wl = workloads.Workload(jobs[0], jobs, workloads.shuffled)
    records, rounds, _ = workloads.run_rounds(wl, random.Random(1), 0)
    assert rounds == 1
    assert sorted(r.kind for r in records) == ["raises", "right", "wrong"]
    problems = {r.kind: r.problem for r in records}
    assert problems["right"] is None
    assert "expected 40" in problems["wrong"]
    assert "raised inside a job" in problems["raises"]


def test_traced_self_times_fit_in_wall_time():
    original = lp.feasible_point
    recorder = tracing.Recorder()
    restore = tracing.install(recorder)
    try:
        assert toric.feasible_point is lp.feasible_point is not original
        wl = workloads.BUILDERS["fan"](random.Random(2))
        pair = next(j for j in wl.jobs if j.kind == "pair_fan")
        single = workloads.Workload(pair, (pair,), workloads.shuffled)
        timed_start = time.perf_counter()
        records, rounds, _ = workloads.run_rounds(
            single, random.Random(2), 0, before_job=recorder.start_job)
        timed_end = time.perf_counter()
    finally:
        restore()
    assert toric.feasible_point is lp.feasible_point is original
    assert not hasattr(monomial.symmetry_orbits, "__wrapped__")
    assert records[0].problem is None
    values, timed_self = tracing.summarize(recorder.spans, rounds,
                                           timed_start, timed_end)
    assert 0 < timed_self <= timed_end - timed_start
    assert min(tracing.self_times(recorder.spans)) >= 0
    assert values["toric.nodes"] == 9
    assert values["lp.calls"] > 0 and values["groebner.basis_calls"] > 0
    assert values["trace.unattributed_s"] >= 0
    names = {name for name, _ in tracing.PER_LAYER}
    assert names - set(values) == {"trace.overhead_frac"}


def test_benchmark_json_matches_the_code():
    bench = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json")
        .read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.BUILDERS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        list(tracing.PER_LAYER)
    assert max(m["bound"] for m in bench["end_to_end"]) == next(
        m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s")


def meter_with(starts, slowdowns):
    meter = speed.Speedometer()
    meter.origin = 0.0
    meter.starts = starts
    meter.costs = [k * speed.NOMINAL_S for k in slowdowns]
    return meter


def test_speedometer_scales_each_window_to_the_nominal_speed():
    c = speed.NOMINAL_S
    # half speed in the first half second, quarter speed after it
    scaled = meter_with([0.1, 0.3, 0.6, 0.8], [2, 2, 4, 4]).measure()
    whole = (0.5 - 4 * c) / 2 + (0.5 - 8 * c) / 4
    assert scaled(0.0, 1.0) == pytest.approx(whole)
    assert scaled(0.0, 0.7) + scaled(0.7, 1.0) == pytest.approx(whole)
    # an interval with no sample of its own runs at its window's rate
    assert scaled(0.31, 0.33) == pytest.approx(0.01)
    # a window without samples takes the rate of the one before it
    scaled = meter_with([0.1, 1.1], [2, 4]).measure()
    assert scaled(0.5, 1.0) == pytest.approx(0.25)


def test_layer_times_leave_out_samples():
    scaled = meter_with([0.1, 0.3, 0.5, 0.7], [2] * 4).measure()
    parent = tracing.Span("toric.fan", 0, -1, 0.0)
    parent.end = 1.0
    child = tracing.Span("lp.feasible", 0, 0, 0.2)
    child.end = 0.6
    sample = 2 * speed.NOMINAL_S
    # the child holds the samples at 0.3 and 0.5, the parent's own time the
    # ones at 0.1 and 0.7; the machine ran at half speed throughout
    assert tracing.self_times([parent, child], scaled) == pytest.approx(
        [(0.6 - 2 * sample) / 2, (0.4 - 2 * sample) / 2])
    values, timed_self = tracing.summarize([parent, child], 1, 0.0, 1.0,
                                           scaled)
    assert timed_self == pytest.approx((1.0 - 4 * sample) / 2)
    assert values["lp.feasible_s"] == pytest.approx((0.4 - 2 * sample) / 2)
    assert values["trace.unattributed_s"] == pytest.approx(0)


def test_speedometer_samples_while_code_runs():
    meter = speed.Speedometer()
    meter.start()
    try:
        started = time.perf_counter()
        while time.perf_counter() - started < 0.2:
            speed.reference_loop()
        ended = time.perf_counter()
    finally:
        meter.stop()
    assert len(meter.costs) >= 3
    assert meter.measure()(started, ended) > 0
