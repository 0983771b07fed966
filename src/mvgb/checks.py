"""The acceptance suite: one callable per verification criterion, each
returning a machine-readable report entry."""

from __future__ import annotations

import functools
import random
import time
from fractions import Fraction
from math import comb

from . import cameras as cam
from . import degeneration as deg
from . import groebner as gb
from . import hilbscheme as hs
from . import monomial as mono
from . import tangent as tan
from . import toric
from .exactalg import Matrix, rank
from .monomial import canonical_form, ideal_key
from .polyring import Ring, parse_monomial, parse_polynomial

__all__ = ["run_all", "CRITERIA", "random_generic_config"]


def _span(values, n_max):
    return [n for n in values if n_max is None or n <= n_max]


def random_generic_config(rng, n):
    while True:
        mats = [[[Fraction(rng.randint(-9, 9)) for _ in range(4)]
                 for _ in range(3)] for _ in range(n)]
        try:
            c = cam.CameraConfig(mats)
        except ValueError:
            continue
        if cam.is_generic(c)[0]:
            return c


class _Details(dict):
    """A criterion's details; ok falls on the first recorded failure."""
    ok = True

    def fail(self, key, witness):
        """Mark the criterion failed, with its witness under key."""
        self.ok = False
        self[key] = witness

    def expect(self, key, value, want):
        """Record value under key; the criterion fails unless it is want."""
        self[key] = value
        self.ok = self.ok and value == want


def _criterion(name, budget=None, n_min=2):
    """Declare a criterion by name, time budget in seconds and smallest
    camera count.  The body computes into a _Details; the callable it
    becomes, criterion(n_max=None), times the body, skips it when n_max is
    below n_min, fails it over budget, and returns the report entry."""
    def declare(body):
        @functools.wraps(body)
        def run(n_max=None):
            started = time.time()
            details = _Details()
            if n_max is not None and n_max < n_min:
                details["skipped"] = "needs n >= %d" % n_min
            else:
                body(details, n_max)
            elapsed = time.time() - started
            return {"name": name, "seconds": round(elapsed, 2),
                    "pass": details.ok and (budget is None
                                            or elapsed <= budget),
                    "budget_seconds": budget, "details": dict(details)}
        return run
    return declare


@_criterion("generic initial ideal")
def criterion_1_generic_initial_ideal(details, n_max):
    """in(J_A) equals the generic initial ideal for random configurations,
    each n = 4 trial within 60 s."""
    rng = random.Random(101)
    slowest = 0.0
    for n in _span((2, 3, 4, 5, 6), n_max):
        expected = mono.generic_initial_ideal(n)
        for trial in range(1 if n == 6 else 3):
            cfg = random_generic_config(rng, n)
            t1 = time.time()
            init = gb.initial_ideal(cam.multiview_ideal(cfg))
            if n == 4:
                slowest = max(slowest, time.time() - t1)
            if init != expected:
                details.fail("failure", {"n": n, "trial": trial})
    if slowest > 60:
        details.fail("n4_over_budget", round(slowest, 2))


@_criterion("universal basis over every term order", budget=600)
def criterion_2_universal_basis(details, n_max):
    """The minors form a Groebner basis under every term order: the cone
    certificate over all 6^n rankings of each camera's letters."""
    rng = random.Random(202)
    for n in _span((2, 3, 4), n_max):
        cfg = random_generic_config(rng, n)
        good, witness = gb.universal_basis_certificate(
            cam.multiview_generators(cfg))
        details["n%d_cones" % n] = 6 ** n
        if not good:
            details.fail("n%d_witness" % n, witness)


@_criterion("hilbert identities on the box", budget=120)
def criterion_3_hilbert_identities(details, n_max):
    """Standard counts of both named ideals equal the closed form on the box."""
    for n in _span((2, 3, 4, 5), n_max):
        bad = {mono.multiview_hilbert_mismatch(I) for I in (
            mono.generic_initial_ideal(n),
            mono.collinear_initial_ideal(n))} - {None}
        if bad:
            details.fail("n%d_mismatch" % n, list(min(bad)))


@_criterion("focal point dichotomy")
def criterion_4_focal_dichotomy(details, n_max):
    """Coincident focal points force the value 6 or lower at (1,1)."""
    rng = random.Random(404)
    cfg = random_generic_config(rng, 2)
    g = Matrix([[Fraction(1), Fraction(2), Fraction(0)],
                [Fraction(0), Fraction(1), Fraction(1)],
                [Fraction(1), Fraction(0), Fraction(1)]])
    bad = cam.CameraConfig([cfg.matrices[0], g * cfg.matrices[0]])
    good_value, bad_value = (
        gb.hilbert_value(cam.multiview_ideal_via_elimination(c), (1, 1))
        for c in (cfg, bad))
    details.expect("distinct", good_value, 8)
    details["coincident"] = bad_value
    if bad_value > 6:
        details.fail("coincident", bad_value)


@_criterion("prime decomposition and shelling")
def criterion_5_prime_decomposition(details, n_max):
    """Prime counts, the expected three-camera primes, Borel fixedness, and
    the stated shelling order."""
    for n in _span((3, 4, 5, 6), n_max):
        primes = mono.minimal_primes(mono.generic_initial_ideal(n))
        details.expect("primes_n%d" % n, len(primes),
                       comb(n, 3) + 2 * comb(n, 2))
    r3 = Ring(3)
    expected = [{"x1", "x2", "y1"}, {"x1", "x2", "y2"}, {"x1", "x3", "y1"},
                 {"x1", "x3", "y3"}, {"x2", "x3", "y2"}, {"x2", "x3", "y3"},
                 {"x1", "x2", "x3"}]
    got = [{r3.name(v) for v in p}
           for p in mono.minimal_primes(mono.generic_initial_ideal(3))]
    if not all(d in got for d in expected) or len(got) != 7:
        details.fail("three_camera_primes", sorted(map(sorted, got)))
    for n in _span((2, 3, 4, 5, 6), n_max):
        if not mono.is_borel_fixed(mono.generic_initial_ideal(n))[0]:
            details.fail("borel_failure", n)
    for n in _span((3, 4, 5), n_max):
        facets = mono.generic_shelling_order(n)
        fc = mono.stanley_reisner_complex(mono.generic_initial_ideal(n))
        if set(facets) != set(fc.facets) or not mono.is_shelling(facets):
            details.fail("shelling_failure", n)


@_criterion("toric three cameras", budget=60, n_min=3)
def criterion_6_toric_three_cameras(details, n_max):
    """Three-camera toric ideal, its fan, classes, facet shapes, and the
    quadric intersection identity."""
    R3 = Ring(3)
    cm = toric.cayley_matrix(3)
    I3 = toric.toric_ideal(cm)
    expected_gens = gb.ideal(R3, [parse_polynomial(R3, s) for s in (
        "z1*y3 - x1*z3", "z2*x3 - x2*z3", "z1*y2 - y1*z2",
        "x1*y2*x3 - y1*x2*y3")])
    if not gb.ideal_equal(I3, expected_gens) or len(I3.generators) != 4:
        details.fail("ideal", [str(p) for p in I3.generators])
    nodes = toric.enumerate_initial_ideals(
        I3, kernel_rows=toric.variable_kernel_rows(cm))
    details.expect("initial_ideals", len(nodes), 20)
    classes = mono.symmetry_orbits([n.initial for n in nodes])
    details.expect("classes", len(classes), 3)
    for rep, _ in classes:
        fc, _ = toric.mixed_subdivision(rep)
        if fc.labels.count("cube") != 1 or fc.labels.count("prism") != 6:
            details.fail("facet_shape_failure", str(rep))
    zs = gb.ideal(R3, [parse_polynomial(R3, s) for s in ("z1", "z2", "z3")])
    quadrics = gb.ideal(R3, expected_gens.generators[:3])
    if not gb.ideal_equal(gb.intersect(I3, zs), quadrics):
        details.fail("intersection_identity", False)


Y1_STRINGS = ["y1*z2", "z1*y3", "x1*z4", "z2*x3", "y2*x4", "x3*y4",
              "x1*y2*x3", "z1*y2*x3", "x1*z2*x4", "z1*x3*z4", "z2*y3*x4",
              "z2*y3*z4"]
Y2_STRINGS = ["z1*y2", "x1*z3", "x1*z4", "x2*z3", "y2*x4", "y3*x4",
              "y1*z2*x3*y4", "x1*y2*x3", "x1*z2*x3", "x1*z2*x4", "x4*z2*y1",
              "y1*z3*x4", "y1*z3*y4", "y2*x3*y4", "y2*z3*y4"]
Y3_STRINGS = ["z1*y2", "z1*y3", "x1*z4", "x2*z3", "x2*z4", "y3*x4",
              "x1*y2*z3", "y1*x2*y3", "x1*y2*x4", "x1*z2*x4", "x1*z3*x4",
              "y1*z3*x4", "y2*z3*x4", "y2*z3*y4"]


@_criterion("toric four cameras", budget=7200, n_min=4)
def criterion_7_toric_four_cameras(details, n_max):
    """Four-camera toric ideal: full fan, classes, generator statistics, the
    reference representative ideals, facet shapes."""
    R4 = Ring(4)
    cm = toric.cayley_matrix(4)
    I4 = toric.toric_ideal(cm)
    degrees = sorted(p.total_degree() for p in I4.generators)
    details["generators"] = len(I4.generators)
    if degrees != [2] * 6 + [3] * 4:
        details.fail("generator_degrees", degrees)
    nodes = toric.enumerate_initial_ideals(
        I4, kernel_rows=toric.variable_kernel_rows(cm))
    details.expect("initial_ideals", len(nodes), 1002)
    if not all(n.initial.is_squarefree() for n in nodes):
        details.fail("squarefree", False)
    ideals = [n.initial for n in nodes]
    classes = mono.symmetry_orbits(ideals)
    details.expect("classes", len(classes), 48)
    table = toric.class_invariant_table(classes)
    gencounts = sorted(t["generators"] for t in table)
    details.expect("generator_count_range", [gencounts[0], gencounts[-1]],
                   [12, 15])
    twelve = [i for i, t in enumerate(table) if t["generators"] == 12]
    fifteen = [i for i, t in enumerate(table) if t["generators"] == 15]
    quartic = [i for i, t in enumerate(table) if t["max_degree"] >= 4]
    details.expect("twelve_generator_classes", len(twelve), 1)
    details.expect("fifteen_generator_classes", len(fifteen), 2)
    if set(quartic) != set(fifteen):
        details.fail("quartic_classes", quartic)

    def parse_ideal(strings):
        return mono.MonomialIdeal(R4, [parse_monomial(R4, s)
                                       for s in strings])

    y1, y2, y3 = (parse_ideal(s) for s in
                  (Y1_STRINGS, Y2_STRINGS, Y3_STRINGS))
    canon = {i: canonical_form(rep) for i, (rep, _) in enumerate(classes)}
    if [i for i in twelve if canon[i] == canonical_form(y1)] != twelve:
        details.fail("y1_match", False)
    if not any(canon[i] == canonical_form(y2) for i in fifteen):
        details.fail("y2_match", False)
    if ideal_key(y3) in {ideal_key(I) for I in ideals}:
        details.fail("y3_absent", False)
    if not all(t["cubes"] == 4 and t["prisms"] == 12 for t in table):
        details.fail("facet_shapes", False)


@_criterion("collinear degeneration chain", budget=600)
def criterion_8_degeneration_chain(details, n_max):
    """All certificates of the collinear degeneration for n = 2..7."""
    for n in _span(range(2, 8), n_max):
        report = deg.verify_collinear_degeneration(n)
        details["n%d" % n] = report["pass"]
        if not report["pass"]:
            details.fail("n%d_report" % n, report["checks"])


@_criterion("tangent dimensions", budget=300)
def criterion_9_tangent_dimensions(details, n_max):
    """Tangent dimension 11n-15 at the collinear ideal with a verified
    explicit basis, and dimension 8 at every bilinear point."""
    for n in _span((3, 4, 5, 6, 7, 8), n_max):
        good, info = tan.verify_collinear_tangent_basis(n)
        details.expect("n%d" % n, info["tangent_dimension"], 11 * n - 15)
        if not good:
            details.fail("basis_n%d" % n, info)
    r2 = Ring(2)
    for a in "xyz":
        for b in "xyz":
            I = mono.MonomialIdeal(r2, [parse_monomial(r2,
                                                       "%s1*%s2" % (a, b))])
            if tan.tangent_dimension(I) != 8:
                details.fail("plane_failure", a + b)


# Number of census(3) classes per tangent dimension, confirmed on every class
# representative by the triple-constraint variant and the dense oracle in
# tests/test_tangent.py.
CENSUS3_TANGENT_DISTRIBUTION = {15: 2, 18: 7, 19: 5, 21: 2}


@_criterion("three-camera census", budget=3600, n_min=3)
def criterion_10_census(details, n_max):
    """Three-camera census: counts, orbit classes, tangent statistics,
    Borel uniqueness and membership of the named ideals.

    The multiview varieties form a family of dimension 11n - 15 = 18 whose
    closure is a component of the Hilbert scheme, and tangent dimension is
    upper-semicontinuous, so every class holding a point of that component
    (M3, N3, an initial ideal of a generic configuration) reads at least 18;
    the collinear ideal N3 reads exactly 18.  On any failure the entry also
    lists every class with its tangent dimension.
    """
    res = hs.census(3, tangent=True)
    details.expect("ideals", len(res.ideals), 13824)
    details.expect("classes", len(res.orbits), 16)
    dist = {}
    for d in res.tangent.values():
        dist[d] = dist.get(d, 0) + 1
    details["tangent_below_18"] = sum(1 for d in res.tangent.values()
                                      if d < 18)
    details["tangent_distribution"] = {str(k): v
                                       for k, v in sorted(dist.items())}
    class_of = {ideal_key(I): idx
                for idx, (_, members) in enumerate(res.orbits)
                for I in members}
    M3 = mono.generic_initial_ideal(3)
    N3 = mono.collinear_initial_ideal(3)
    rng = random.Random(1010)
    cfg = random_generic_config(rng, 3)
    init = gb.initial_ideal(cam.multiview_ideal(cfg))
    main = {"M3": class_of.get(ideal_key(M3)),
            "N3": class_of.get(ideal_key(N3)),
            "initial_ideal": class_of.get(ideal_key(init))}
    details["main_component_classes"] = main
    if main["M3"] is None or main["N3"] is None:
        details.fail("membership", False)
    if main["initial_ideal"] is None:
        details.fail("initial_ideal_membership", False)
    low = [name for name, idx in main.items()
           if idx is not None and res.tangent[idx] < 18]
    if low:
        details.fail("semicontinuity_failures", low)
    if main["N3"] is not None and res.tangent[main["N3"]] != 11 * 3 - 15:
        details.fail("collinear_failure", res.tangent[main["N3"]])
    if not details.ok or dist != CENSUS3_TANGENT_DISTRIBUTION:
        details.fail("tangent_witness", [
            {"index": idx, "size": len(members), "dimension": res.tangent[idx],
             "representative": mono.ideal_lines(rep)}
            for idx, (rep, members) in enumerate(res.orbits)])
    borel = [I for I in res.ideals if mono.is_borel_fixed(I)[0]]
    if borel != [M3]:
        details.fail("borel", len(borel))


@_criterion("fundamental matrix")
def criterion_11_fundamental_matrix(details, n_max):
    """Rank bound on random pairs and the exact toric epipolar form."""
    rng = random.Random(1111)
    checked = 0
    while checked < 100:
        mats = [[[Fraction(rng.randint(-9, 9)) for _ in range(4)]
                 for _ in range(3)] for _ in range(2)]
        try:
            cfg = cam.CameraConfig(mats)
        except ValueError:
            continue
        checked += 1
        if rank(cam.fundamental_matrix(cfg, 1, 2)) > 2:
            details.fail("rank_failure", checked)
    details["pairs_checked"] = checked
    form = cam.epipolar_form(cam.toric_cameras(4), 1, 2)
    R4 = Ring(4)
    if not cam.proportional(form, parse_polynomial(R4, "z1*y2 - y1*z2")):
        details.fail("toric_pair", str(form))


CRITERIA = [
    criterion_1_generic_initial_ideal,
    criterion_2_universal_basis,
    criterion_3_hilbert_identities,
    criterion_4_focal_dichotomy,
    criterion_5_prime_decomposition,
    criterion_6_toric_three_cameras,
    criterion_7_toric_four_cameras,
    criterion_8_degeneration_chain,
    criterion_9_tangent_dimensions,
    criterion_10_census,
    criterion_11_fundamental_matrix,
]


def run_all(only=None, n_max=None):
    """Run the acceptance criteria (all, or a list of 1-based indices);
    n_max caps the configuration sizes exercised.  Each entry keeps the
    wall-clock seconds its criterion took, for the caller to show apart
    from the report."""
    if n_max is not None and n_max < 2:
        raise ValueError("n_max must be at least 2")
    if only and not all(1 <= idx <= len(CRITERIA) for idx in only):
        raise ValueError("criteria are numbered 1 to %d" % len(CRITERIA))
    report = {"criteria": [], "pass": True}
    for idx, fn in enumerate(CRITERIA, start=1):
        if only and idx not in only:
            continue
        entry = dict(fn(n_max=n_max), id=idx)
        report["criteria"].append(entry)
        report["pass"] = report["pass"] and entry["pass"]
    return report
