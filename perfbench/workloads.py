"""Seeded inputs, jobs and per-job oracles of the mvgb benchmark.

A workload is a stream of rounds.  A round is a fixed list of jobs, built
once from the seed before timing; each round runs the same jobs in an order
drawn from the seed.  A job is a sequence of calls into mvgb's public API
(`run`) and an oracle that inspects the returned value (`check`).  Jobs take
plain inputs (integer matrices, weight vectors, permutations) and build every
mvgb object themselves, so no per-instance cache of the program carries over
from one job to the next.

The program is only ever called through module attributes
(`groebner.initial_ideal`, not a name imported from it), so the tracing
wrappers installed on those attributes see every call.
"""

from __future__ import annotations

import itertools
import random
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from mvgb import (
    cameras, checks, degeneration, groebner, hilbscheme, monomial, polyring,
    tangent, toric,
)

# census_hash of hilbscheme.census(3) at the commit the benchmark was
# defined on; the census workload checks that the program's output is
# unchanged, not that it agrees with the paper.
CENSUS3_HASH = (
    "8b19a66ad347a27c2809d5ec8e4d11879caa9e2507fc7a67a64c87139e37cfe8")
CENSUS3_TANGENT = {15: 2, 18: 7, 19: 5, 21: 2}

# Round sizes, chosen so that one round takes 1 to 4 s on one core except
# census, whose single census job alone takes about 18 s.
MULTIVIEW_CAMERA_JOBS = 16      # n=3 bases, about 0.1 s each
MULTIVIEW_DEGENERATIONS = (3, 4)  # Q(e) jobs, about 0.1 s and 1.3 s
CERTIFY_JOBS = 4                # 12 orders each, about 0.06 s per order
CERTIFY_BLOCK_ORDERS = 8        # sampled from the 216 permuted block orders
CERTIFY_WEIGHT_ORDERS = 4
# two-camera jobs per round; a round runs one toric job more, so the toric
# and two-camera jobs alternate and the median job is a toric one, not the
# gap between the two kinds
FAN_PAIRS = 2
CENSUS_TANGENT_N = (5, 6)
CENSUS_BASIS_N = 5
WEIGHT_MAX = 10 ** 6            # as in groebner.random_weight_orders


@dataclass(frozen=True)
class Job:
    """One unit of closed-loop work: `run` calls mvgb, `check` returns None
    when the result is right and a description of the fault otherwise."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


@dataclass(frozen=True)
class Workload:
    warmup: Job
    jobs: tuple
    arrange: Callable[[list, random.Random], list]


def shuffled(jobs, rng):
    return rng.sample(jobs, len(jobs))


# ---------------------------------------------------------------------------
# oracles: pure functions of a job's result, so a test can feed wrong ones

def check_camera(result, expected_initial, expected_box):
    if result["block_initial"] != expected_initial:
        return "block-order initial ideal is not generic_initial_ideal(3)"
    if result["weight_box"] != expected_box:
        return "weight-order standard counts on the box <= 2 differ from " \
               "multiview_hilbert_function"
    if result["parsed"] != result["basis"]:
        return "text round trip changed the basis"
    return None


def check_degeneration(report, n):
    if report.get("n") != n or report.get("pass") is not True:
        return "verify_collinear_degeneration(%d) did not pass" % n
    failed = [k for k, c in report["checks"].items() if not c["pass"]]
    if failed or not report["checks"]:
        return "failed certificates: %s" % failed
    return None


def check_certify(result, n_orders):
    if result["orders"] != n_orders:
        return "checked %d orders, expected %d" % (result["orders"], n_orders)
    if tuple(result["minors"]) != (True, None):
        return "minors not a basis: %r" % (result["minors"],)
    flag, witness = result["minimal"]
    if flag is not False or not isinstance(witness, dict) \
            or not 0 <= witness.get("order_index", -1) < n_orders \
            or len(witness.get("pair") or ()) != 2:
        return "minimal generators not rejected with a witness: %r" % (
            result["minimal"],)
    return None


def check_toric(result):
    got = (result["nodes"], result["classes"], result["shapes"])
    if got != (20, 3, [(1, 6)] * 3):
        return "toric fan: %d ideals, %d classes, shapes %s; expected 20, " \
               "3, 1 cube and 6 prisms each" % got
    return None


def check_pair_fan(result):
    if result != {"nodes": 9, "distinct": 9}:
        return "two-camera fan: %r, expected 9 distinct initial ideals" % (
            result,)
    return None


def check_census(result):
    expected = {"ideals": 13824, "classes": 16, "hash": CENSUS3_HASH,
                "tangent": CENSUS3_TANGENT}
    wrong = sorted(k for k in expected if result.get(k) != expected[k])
    if wrong:
        return "census differs in %s" % ", ".join(wrong)
    return None


def check_tangent(dim, n):
    if dim != 11 * n - 15:
        return "tangent dimension %r at n=%d, expected %d" % (
            dim, n, 11 * n - 15)
    return None


def check_tangent_basis(result, n):
    ok, details = result
    if ok is not True or details.get("tangent_dimension") != 11 * n - 15 \
            or details.get("count") != 11 * n - 15:
        return "collinear tangent basis at n=%d rejected: %r" % (n, details)
    return None


# ---------------------------------------------------------------------------
# jobs

def _camera_matrices(rng, n):
    return [m.rows for m in checks.random_generic_config(rng, n).matrices]


def _weights(rng, nvars):
    return [rng.randint(1, WEIGHT_MAX) for _ in range(nvars)]


def camera_job(matrices, weights, expected_initial, expected_box):
    def run():
        cfg = cameras.CameraConfig(matrices)
        ring = cfg.ring()
        I = groebner.ideal(ring, cameras.multiview_generators(cfg))
        block_initial = groebner.initial_ideal(I)
        weighted = groebner.initial_ideal(
            I, polyring.WeightOrder(ring, weights))
        basis = groebner.reduced_groebner_basis(I)
        text = "\n".join(polyring.format_polynomial(p) for p in basis)
        parsed = tuple(polyring.parse_polynomial(ring, line)
                       for line in text.splitlines())
        return {"block_initial": block_initial,
                "weight_box": monomial.standard_count_box(weighted, 2),
                "basis": basis, "parsed": parsed}
    return Job("camera", run,
               lambda r: check_camera(r, expected_initial, expected_box))


def degeneration_job(n):
    return Job("degeneration%d" % n,
               lambda: degeneration.verify_collinear_degeneration(n),
               lambda r: check_degeneration(r, n))


def certify_job(matrices, perms, weights):
    n_orders = len(perms) + len(weights)

    def run():
        cfg = cameras.CameraConfig(matrices)
        ring = cfg.ring()
        orders = [polyring.LexOrder(ring, p) for p in perms]
        orders += [polyring.WeightOrder(ring, w) for w in weights]
        return {
            "orders": len(orders),
            "minors": groebner.universal_groebner_check(
                cameras.multiview_generators(cfg), orders, jobs=1),
            "minimal": groebner.universal_groebner_check(
                cameras.minimal_multiview_generators(cfg), orders, jobs=1),
        }
    return Job("certify", run, lambda r: check_certify(r, n_orders))


def toric_job():
    def run():
        cm = toric.cayley_matrix(3)
        I = toric.toric_ideal(cm)
        nodes = toric.enumerate_initial_ideals(
            I, kernel_rows=toric.variable_kernel_rows(cm))
        classes = toric.symmetry_classes([nd.initial for nd in nodes])
        shapes = []
        for rep, _ in classes:
            fc, _ = toric.mixed_subdivision(rep)
            shapes.append((fc.labels.count("cube"), fc.labels.count("prism")))
        return {"nodes": len(nodes), "classes": len(classes),
                "shapes": shapes}
    return Job("toric", run, check_toric)


def pair_fan_job(matrices):
    def run():
        I = cameras.multiview_ideal(cameras.CameraConfig(matrices))
        nodes = toric.enumerate_initial_ideals(I)
        return {"nodes": len(nodes),
                "distinct": len({nd.initial for nd in nodes})}
    return Job("pair_fan", run, check_pair_fan)


def census_job():
    def run():
        res = hilbscheme.census(3, tangent=True)
        return {"ideals": len(res.ideals), "classes": len(res.orbits),
                "hash": hilbscheme.census_hash(res.ideals),
                "tangent": dict(Counter(res.tangent.values()))}
    return Job("census", run, check_census)


def tangent_job(n):
    return Job("tangent%d" % n,
               lambda: tangent.tangent_dimension(
                   monomial.collinear_initial_ideal(n)),
               lambda r: check_tangent(r, n))


def orbits_job(I):
    return Job("orbits", lambda: monomial.symmetry_orbits([I]),
               lambda r: None if len(r) == 1 else
               "one ideal fell into %d orbits" % len(r))


def warmup_job(*jobs):
    """One untimed job that runs the given jobs in turn and checks each."""
    def check(results):
        for job, result in zip(jobs, results):
            problem = job.check(result)
            if problem:
                return problem
        return None
    return Job("warmup", lambda: [j.run() for j in jobs], check)


def tangent_basis_job(n):
    return Job("tangent_basis%d" % n,
               lambda: tangent.verify_collinear_tangent_basis(n),
               lambda r: check_tangent_basis(r, n))


# ---------------------------------------------------------------------------
# workloads

def multiview(rng):
    """Buchberger building bases over Q (n=3 minors, block and weight
    orders, text round trip) interleaved with Q(e) degeneration checks."""
    gin = monomial.generic_initial_ideal(3)
    box = {u: monomial.multiview_hilbert_function(3, u)
           for u in itertools.product(range(3), repeat=3)}
    jobs = [camera_job(_camera_matrices(rng, 3), _weights(rng, 9), gin, box)
            for _ in range(MULTIVIEW_CAMERA_JOBS)]
    jobs += [degeneration_job(n) for n in MULTIVIEW_DEGENERATIONS]
    return Workload(jobs[0], tuple(jobs), shuffled)


def certify(rng):
    """One fixed minor set reduced under many orders, no basis growth."""
    family = [o.perm for o in
              groebner.permuted_block_lex_orders(polyring.Ring(3))]
    jobs = [certify_job(_camera_matrices(rng, 3),
                        rng.sample(family, CERTIFY_BLOCK_ORDERS),
                        [_weights(rng, 9)
                         for _ in range(CERTIFY_WEIGHT_ORDERS)])
            for _ in range(CERTIFY_JOBS)]
    return Workload(jobs[0], tuple(jobs), shuffled)


def fan(rng):
    """Groebner fan traversal, alternating the three-camera toric ideal
    (with kernel rows) and seeded generic two-camera ideals (without)."""
    pairs = [_camera_matrices(rng, 2) for _ in range(FAN_PAIRS)]

    def arrange(jobs, rng):
        toric_jobs = [j for j in jobs if j.kind == "toric"]
        pair_jobs = shuffled([j for j in jobs if j.kind != "toric"], rng)
        return [j for two in itertools.zip_longest(toric_jobs, pair_jobs)
                for j in two if j is not None]

    jobs = [toric_job() for _ in range(FAN_PAIRS + 1)]
    jobs += [pair_fan_job(m) for m in pairs]
    return Workload(jobs[0], tuple(jobs), arrange)


def census(rng):
    """Monomial combinatorics only: the three-camera census with tangent
    data, collinear tangent dimensions and the explicit tangent basis.  The
    inputs are fixed objects of the paper; the seed only orders the jobs."""
    jobs = [census_job()]
    jobs += [tangent_job(n) for n in CENSUS_TANGENT_N]
    jobs.append(tangent_basis_job(CENSUS_BASIS_N))

    def arrange(jobs, rng):
        # the census runs last, so the tangent jobs never start from the
        # heap the census leaves behind, whatever the seed
        return shuffled(jobs[1:], rng) + jobs[:1]

    # the warm-up also canonicalizes one squarefree n=3 ideal, so the numpy
    # import and the group tables of the orbit code are paid in set-up
    warmup = warmup_job(jobs[1], orbits_job(monomial.generic_initial_ideal(3)))
    return Workload(warmup, tuple(jobs), arrange)


BUILDERS = {"multiview": multiview, "certify": certify, "fan": fan,
            "census": census}


# ---------------------------------------------------------------------------
# closed loop

@dataclass(frozen=True)
class JobRecord:
    kind: str
    started: float  # time.perf_counter() when the job began
    wall_s: float
    problem: "str | None"


def run_job(job):
    """Run and check one job; an exception or a failed check is recorded as
    the job's problem, never raised."""
    started = time.perf_counter()
    try:
        result = job.run()
    except Exception:
        return JobRecord(job.kind, started, time.perf_counter() - started,
                         traceback.format_exc())
    wall = time.perf_counter() - started
    try:
        problem = job.check(result)
    except Exception:
        problem = traceback.format_exc()
    return JobRecord(job.kind, started, wall, problem)


def run_rounds(workload, rng, seconds, before_job=None):
    """Run whole rounds until `seconds` have passed; returns the job records,
    the number of rounds and the elapsed wall time.

    The loop stops only at a round boundary, so every run measures the same
    mix of jobs and throughput does not depend on where the clock ran out.
    """
    records = []
    rounds = 0
    started = time.perf_counter()
    while True:
        for job in workload.arrange(list(workload.jobs), rng):
            if before_job is not None:
                before_job(len(records))
            records.append(run_job(job))
        rounds += 1
        elapsed = time.perf_counter() - started
        if elapsed >= seconds:
            return records, rounds, elapsed
