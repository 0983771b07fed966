"""The acceptance suite: one callable per verification criterion, each
returning a machine-readable report entry."""

from __future__ import annotations

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


def _entry(name, ok, started, budget, details):
    elapsed = time.time() - started
    ok = bool(ok) and (budget is None or elapsed <= budget)
    return {"name": name, "pass": ok, "seconds": round(elapsed, 2),
            "budget_seconds": budget, "details": details}


def criterion_1_generic_initial_ideal(n_max=None):
    """in(J_A) equals the generic initial ideal for random configurations."""
    t0 = time.time()
    rng = random.Random(101)
    details = {}
    ok = True
    for n in _span((2, 3, 4, 5, 6), n_max):
        expected = mono.generic_initial_ideal(n)
        times = []
        for trial in range(1 if n == 6 else 3):
            cfg = random_generic_config(rng, n)
            t1 = time.time()
            init = gb.initial_ideal(cam.multiview_ideal(cfg))
            times.append(round(time.time() - t1, 2))
            if init != expected:
                ok = False
                details["failure"] = {"n": n, "trial": trial}
        details["n%d_seconds" % n] = times
        if n == 4 and max(times) > 60:
            ok = False
            details["n4_over_budget"] = True
    return _entry("generic initial ideal", ok, t0, None, details)


def criterion_2_universal_basis(n_max=None):
    """The minors form a Groebner basis under every term order: the cone
    certificate over all 6^n rankings of each camera's letters."""
    t0 = time.time()
    rng = random.Random(202)
    details = {}
    ok = True
    for n in _span((2, 3, 4), n_max):
        cfg = random_generic_config(rng, n)
        good, witness = gb.universal_basis_certificate(
            cam.multiview_generators(cfg))
        details["n%d_cones" % n] = 6 ** n
        if not good:
            ok = False
            details["n%d_witness" % n] = witness
    return _entry("universal basis over every term order", ok, t0, 600,
                  details)


def criterion_3_hilbert_identities(n_max=None):
    """Standard counts of both named ideals equal the closed form on the box."""
    t0 = time.time()
    details = {}
    ok = True
    for n in _span((2, 3, 4, 5), n_max):
        bad = {mono.multiview_hilbert_mismatch(I) for I in (
            mono.generic_initial_ideal(n), mono.collinear_initial_ideal(n))}
        bad.discard(None)
        if bad:
            ok = False
            details.setdefault("failures", []).append(
                {"n": n, "u": list(min(bad))})
    return _entry("hilbert identities on the box", ok, t0, 120, details)


def criterion_4_focal_dichotomy(n_max=None):
    """Coincident focal points force the value 6 or lower at (1,1)."""
    t0 = time.time()
    rng = random.Random(404)
    cfg = random_generic_config(rng, 2)
    good_value = gb.hilbert_value(cam.multiview_ideal_via_elimination(cfg),
                                  (1, 1))
    g = Matrix([[Fraction(1), Fraction(2), Fraction(0)],
                [Fraction(0), Fraction(1), Fraction(1)],
                [Fraction(1), Fraction(0), Fraction(1)]])
    bad = cam.CameraConfig([cfg.matrices[0], g * cfg.matrices[0]])
    bad_value = gb.hilbert_value(cam.multiview_ideal_via_elimination(bad),
                                 (1, 1))
    ok = good_value == 8 and bad_value <= 6
    return _entry("focal point dichotomy", ok, t0, None,
                  {"distinct": good_value, "coincident": bad_value})


def criterion_5_prime_decomposition(n_max=None):
    """Prime counts, the expected three-camera primes, Borel fixedness, and
    the stated shelling order."""
    t0 = time.time()
    details = {}
    ok = True
    for n in _span((3, 4, 5, 6), n_max):
        primes = mono.minimal_primes(mono.generic_initial_ideal(n))
        expected = comb(n, 3) + 2 * comb(n, 2)
        details["primes_n%d" % n] = len(primes)
        if len(primes) != expected:
            ok = False
    r3 = Ring(3)
    expected = [{"x1", "x2", "y1"}, {"x1", "x2", "y2"}, {"x1", "x3", "y1"},
                 {"x1", "x3", "y3"}, {"x2", "x3", "y2"}, {"x2", "x3", "y3"},
                 {"x1", "x2", "x3"}]
    got = [{r3.name(v) for v in p}
           for p in mono.minimal_primes(mono.generic_initial_ideal(3))]
    if not all(d in got for d in expected) or len(got) != 7:
        ok = False
        details["three_camera_primes"] = sorted(map(sorted, got))
    for n in _span((2, 3, 4, 5, 6), n_max):
        if not mono.is_borel_fixed(mono.generic_initial_ideal(n))[0]:
            ok = False
            details["borel_failure"] = n
    for n in _span((3, 4, 5), n_max):
        facets = mono.generic_shelling_order(n)
        fc = mono.stanley_reisner_complex(mono.generic_initial_ideal(n))
        if set(facets) != set(fc.facets) or not mono.is_shelling(facets):
            ok = False
            details["shelling_failure"] = n
    return _entry("prime decomposition and shelling", ok, t0, None, details)


def criterion_6_toric_three_cameras(n_max=None):
    """Three-camera toric ideal, its fan, classes, facet shapes, and the
    quadric intersection identity."""
    t0 = time.time()
    details = {}
    ok = True
    if n_max is not None and n_max < 3:
        return _entry("toric three cameras", True, t0, 60,
                      {"skipped": "needs n >= 3"})
    R3 = Ring(3)
    cm = toric.cayley_matrix(3)
    I3 = toric.toric_ideal(cm)
    expected_gens = gb.ideal(R3, [parse_polynomial(R3, s) for s in (
        "z1*y3 - x1*z3", "z2*x3 - x2*z3", "z1*y2 - y1*z2",
        "x1*y2*x3 - y1*x2*y3")])
    if not gb.ideal_equal(I3, expected_gens) or len(I3.generators) != 4:
        ok = False
        details["ideal"] = [str(p) for p in I3.generators]
    nodes = toric.enumerate_initial_ideals(
        I3, kernel_rows=toric.variable_kernel_rows(cm))
    details["initial_ideals"] = len(nodes)
    if len(nodes) != 20:
        ok = False
    classes = toric.symmetry_classes([n.initial for n in nodes])
    details["classes"] = len(classes)
    if len(classes) != 3:
        ok = False
    for rep, _ in classes:
        fc, _ = toric.mixed_subdivision(rep)
        if fc.labels.count("cube") != 1 or fc.labels.count("prism") != 6:
            ok = False
            details["facet_shape_failure"] = str(rep)
    zs = gb.ideal(R3, [parse_polynomial(R3, s) for s in ("z1", "z2", "z3")])
    quadrics = gb.ideal(R3, expected_gens.generators[:3])
    if not gb.ideal_equal(gb.intersect(I3, zs), quadrics):
        ok = False
        details["intersection_identity"] = False
    return _entry("toric three cameras", ok, t0, 60, details)


Y1_STRINGS = ["y1*z2", "z1*y3", "x1*z4", "z2*x3", "y2*x4", "x3*y4",
              "x1*y2*x3", "z1*y2*x3", "x1*z2*x4", "z1*x3*z4", "z2*y3*x4",
              "z2*y3*z4"]
Y2_STRINGS = ["z1*y2", "x1*z3", "x1*z4", "x2*z3", "y2*x4", "y3*x4",
              "y1*z2*x3*y4", "x1*y2*x3", "x1*z2*x3", "x1*z2*x4", "x4*z2*y1",
              "y1*z3*x4", "y1*z3*y4", "y2*x3*y4", "y2*z3*y4"]
Y3_STRINGS = ["z1*y2", "z1*y3", "x1*z4", "x2*z3", "x2*z4", "y3*x4",
              "x1*y2*z3", "y1*x2*y3", "x1*y2*x4", "x1*z2*x4", "x1*z3*x4",
              "y1*z3*x4", "y2*z3*x4", "y2*z3*y4"]


def criterion_7_toric_four_cameras(n_max=None):
    """Four-camera toric ideal: full fan, classes, generator statistics, the
    reference representative ideals, facet shapes."""
    t0 = time.time()
    details = {}
    ok = True
    if n_max is not None and n_max < 4:
        return _entry("toric four cameras", True, t0, 7200,
                      {"skipped": "needs n >= 4"})
    R4 = Ring(4)
    cm = toric.cayley_matrix(4)
    I4 = toric.toric_ideal(cm)
    degrees = sorted(p.total_degree() for p in I4.generators)
    details["generators"] = len(I4.generators)
    if degrees != [2] * 6 + [3] * 4:
        ok = False
        details["generator_degrees"] = degrees
    nodes = toric.enumerate_initial_ideals(
        I4, kernel_rows=toric.variable_kernel_rows(cm))
    details["initial_ideals"] = len(nodes)
    if len(nodes) != 1002:
        ok = False
    if not all(n.initial.is_squarefree() for n in nodes):
        ok = False
        details["squarefree"] = False
    ideals = [n.initial for n in nodes]
    classes = toric.symmetry_classes(ideals)
    details["classes"] = len(classes)
    if len(classes) != 48:
        ok = False
    table = toric.class_invariant_table(classes)
    gencounts = sorted(t["generators"] for t in table)
    details["generator_count_range"] = [gencounts[0], gencounts[-1]]
    if gencounts[0] != 12 or gencounts[-1] != 15:
        ok = False
    twelve = [i for i, t in enumerate(table) if t["generators"] == 12]
    fifteen = [i for i, t in enumerate(table) if t["generators"] == 15]
    quartic = [i for i, t in enumerate(table) if t["max_degree"] >= 4]
    details["twelve_generator_classes"] = len(twelve)
    details["fifteen_generator_classes"] = len(fifteen)
    if len(twelve) != 1 or len(fifteen) != 2 or set(quartic) != set(fifteen):
        ok = False

    def parse_ideal(strings):
        return mono.MonomialIdeal(R4, [parse_monomial(R4, s)
                                       for s in strings])

    y1, y2, y3 = (parse_ideal(s) for s in
                  (Y1_STRINGS, Y2_STRINGS, Y3_STRINGS))
    canon = {i: canonical_form(rep) for i, (rep, _) in enumerate(classes)}
    if [i for i in twelve if canon[i] == canonical_form(y1)] != twelve:
        ok = False
        details["y1_match"] = False
    if not any(canon[i] == canonical_form(y2) for i in fifteen):
        ok = False
        details["y2_match"] = False
    keyset = {ideal_key(I) for I in ideals}
    if ideal_key(y3) in keyset:
        ok = False
        details["y3_absent"] = False
    if not all(t["cubes"] == 4 and t["prisms"] == 12 for t in table):
        ok = False
        details["facet_shapes"] = False
    return _entry("toric four cameras", ok, t0, 7200, details)


def criterion_8_degeneration_chain(n_max=None):
    """All certificates of the collinear degeneration for n = 2..7."""
    t0 = time.time()
    details = {}
    ok = True
    for n in _span(range(2, 8), n_max):
        report = deg.verify_collinear_degeneration(n)
        details["n%d" % n] = report["pass"]
        if not report["pass"]:
            ok = False
            details["n%d_report" % n] = report["checks"]
    return _entry("collinear degeneration chain", ok, t0, 600, details)


def criterion_9_tangent_dimensions(n_max=None):
    """Tangent dimension 11n-15 at the collinear ideal with a verified
    explicit basis, and dimension 8 at every bilinear point."""
    t0 = time.time()
    details = {}
    ok = True
    for n in _span((3, 4, 5, 6, 7, 8), n_max):
        good, info = tan.verify_collinear_tangent_basis(n)
        d = details["n%d" % n] = info["tangent_dimension"]
        if d != 11 * n - 15:
            ok = False
        if not good:
            ok = False
            details["basis_n%d" % n] = info
    r2 = Ring(2)
    for a in "xyz":
        for b in "xyz":
            I = mono.MonomialIdeal(r2, [parse_monomial(r2,
                                                       "%s1*%s2" % (a, b))])
            if tan.tangent_dimension(I) != 8:
                ok = False
                details["plane_failure"] = a + b
    return _entry("tangent dimensions", ok, t0, 300, details)


# Number of census(3) classes per tangent dimension, confirmed on every class
# representative by the triple-constraint variant and the dense oracle in
# tests/test_tangent.py.
CENSUS3_TANGENT_DISTRIBUTION = {15: 2, 18: 7, 19: 5, 21: 2}


def criterion_10_census(n_max=None):
    """Three-camera census: counts, orbit classes, tangent statistics,
    Borel uniqueness and membership of the named ideals.

    The multiview varieties form a family of dimension 11n - 15 = 18 whose
    closure is a component of the Hilbert scheme, and tangent dimension is
    upper-semicontinuous, so every class holding a point of that component
    (M3, N3, an initial ideal of a generic configuration) reads at least 18;
    the collinear ideal N3 reads exactly 18.
    """
    t0 = time.time()
    details = {}
    ok = True
    if n_max is not None and n_max < 3:
        return _entry("three-camera census", True, t0, 3600,
                      {"skipped": "needs n >= 3"})
    res = hs.census(3, tangent=True)
    details["ideals"] = len(res.ideals)
    details["classes"] = len(res.orbits)
    if len(res.ideals) != 13824 or len(res.orbits) != 16:
        ok = False
    dist = {}
    for d in res.tangent.values():
        dist[d] = dist.get(d, 0) + 1
    details["tangent_below_18"] = sum(1 for d in res.tangent.values()
                                      if d < 18)
    details["tangent_distribution"] = {str(k): v
                                       for k, v in sorted(dist.items())}
    tangent_ok = dist == CENSUS3_TANGENT_DISTRIBUTION
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
        ok = False
        details["membership"] = False
    if main["initial_ideal"] is None:
        ok = False
        details["initial_ideal_membership"] = False
    low = [name for name, idx in main.items()
           if idx is not None and res.tangent[idx] < 18]
    if low:
        tangent_ok = False
        details["semicontinuity_failures"] = low
    if main["N3"] is not None and res.tangent[main["N3"]] != 11 * 3 - 15:
        tangent_ok = False
        details["collinear_failure"] = res.tangent[main["N3"]]
    if not tangent_ok:
        ok = False
        details["tangent_witness"] = [
            {"index": idx, "size": len(members), "dimension": res.tangent[idx],
             "representative": mono.ideal_lines(rep)}
            for idx, (rep, members) in enumerate(res.orbits)]
    borel = [I for I in res.ideals if mono.is_borel_fixed(I)[0]]
    if borel != [M3]:
        ok = False
        details["borel"] = len(borel)
    return _entry("three-camera census", ok, t0, 3600, details)


def criterion_11_fundamental_matrix(n_max=None):
    """Rank bound on random pairs and the exact toric epipolar form."""
    t0 = time.time()
    rng = random.Random(1111)
    ok = True
    details = {}
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
            ok = False
            details["rank_failure"] = checked
    details["pairs_checked"] = checked
    tor = cam.toric_cameras(4)
    form = cam.epipolar_form(tor, 1, 2)
    R4 = Ring(4)
    if not cam.proportional(form, parse_polynomial(R4, "z1*y2 - y1*z2")):
        ok = False
        details["toric_pair"] = str(form)
    return _entry("fundamental matrix", ok, t0, None, details)


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
    n_max caps the configuration sizes exercised."""
    report = {"schema_version": 1, "criteria": [], "pass": True}
    if n_max is not None and n_max < 2:
        raise ValueError("n_max must be at least 2")
    if only and not all(1 <= idx <= len(CRITERIA) for idx in only):
        raise ValueError("criteria are numbered 1 to %d" % len(CRITERIA))
    for idx, fn in enumerate(CRITERIA, start=1):
        if only and idx not in only:
            continue
        entry = fn(n_max=n_max)
        entry["id"] = idx
        report["criteria"].append(entry)
        if not entry["pass"]:
            report["pass"] = False
    return report
