import hashlib
from math import comb

import pytest

from mvgb import degeneration
from mvgb.degeneration import (
    collinear_family_generators, collinear_fiber_ideal,
    decomposition_factor_ideal, minimal_valuation, special_fiber,
    verify_collinear_degeneration,
)
from mvgb.exactalg import EpsRational, eps
from mvgb.groebner import (
    ideal, ideal_equal, initial_ideal, reduced_groebner_basis,
)
from mvgb.monomial import collinear_initial_ideal
from mvgb.polyring import (
    Polynomial, Ring, block_order, format_polynomial, parse_polynomial,
)


def test_family_generator_counts():
    assert len(collinear_family_generators(2)) == 1
    assert len(collinear_family_generators(3)) == 3 + 3
    assert len(collinear_family_generators(5)) == comb(5, 2) + 3 * comb(5, 3)


def test_cubic_coefficients_sum_to_zero():
    for g in collinear_family_generators(4)[comb(4, 2):]:
        total = EpsRational(0)
        for c in g.terms.values():
            total = total + c
        assert not total


def test_fiber_ideal_generators():
    L3 = collinear_fiber_ideal(3)
    assert len(L3.generators) == 6
    o = block_order(L3.ring)
    lms = {g.leading_term(o)[1] for g in L3.generators}
    assert lms == set(collinear_initial_ideal(3).gens)
    for g in L3.generators:
        assert g.is_homogeneous()
        assert all(d <= 1 for d in g.multidegree())


def test_special_fiber_of_eps_free_polynomial():
    R = Ring(2)
    p = parse_polynomial(R, "x1*y2 - x2*y1")
    fiber, certified = special_fiber([p])
    assert certified
    assert ideal_equal(fiber, ideal(R, [p]))


def test_special_fiber_normalizes_leading_power():
    R = Ring(2)
    from mvgb.polyring import parse_monomial
    p = Polynomial(R, {parse_monomial(R, "x1*y2"): eps(1),
                       parse_monomial(R, "x2*y1"): -eps(2)})
    fiber, _ = special_fiber([p])
    assert [str(g) for g in fiber.generators] == ["x1*y2"]
    assert minimal_valuation(p) == 1


def test_special_fiber_equals_fiber_ideal():
    for n in (2, 3):
        fiber, certified = special_fiber(collinear_family_generators(n))
        assert certified
        assert ideal_equal(fiber, collinear_fiber_ideal(n))


def test_initial_ideal_of_fiber():
    for n in (2, 3):
        assert initial_ideal(collinear_fiber_ideal(n)) == \
            collinear_initial_ideal(n)


def test_degenerate_two_camera_case():
    L2 = collinear_fiber_ideal(2)
    R = L2.ring
    assert [str(g) for g in L2.generators] == ["x1*y2 - x2*y1"]
    assert collinear_initial_ideal(2).gens == \
        (parse_polynomial(R, "x1*y2").leading_term(block_order(R))[1],)


def test_factor_ideals():
    I3 = decomposition_factor_ideal(3, 3)
    names = sorted(str(g) for g in I3.generators)
    assert "x3" in names and "y3" in names
    with pytest.raises(ValueError):
        decomposition_factor_ideal(3, 2)


VERIFY_CHECKS = (
    "factors_intersect_to_fiber", "family_generates_minor_ideal",
    "hilbert_box", "initial_ideal_of_fiber", "initial_ideals_intersect_to_N",
    "special_fiber_certified", "special_fiber_is_binomial_ideal",
)


def test_verify_chain_small():
    for n in (2, 3, 4):
        report = verify_collinear_degeneration(n)
        assert report == {"n": n, "pass": True,
                          "checks": {k: {"pass": True} for k in VERIFY_CHECKS}}


def test_collinear_family_basis_text_is_pinned():
    # the Q(e) reduced basis as the Fraction-based normalization printed it
    gens = collinear_family_generators(3)
    basis = reduced_groebner_basis(ideal(gens[0].ring, gens))
    assert [format_polynomial(p) for p in basis] == [
        "y1*y2*z3 + ((-e - 1)/(e))*y1*y3*z2 + (1/(e))*y2*y3*z1",
        "x2*y3 - x3*y2",
        "x2*y1*z3 + ((-e - 1)/(e))*x3*y1*z2 + (1/(e))*x3*y2*z1",
        "x1*y3 - x3*y1",
        "x1*y2 - x2*y1",
        "x1*x2*z3 + ((-e - 1)/(e))*x1*x3*z2 + (1/(e))*x2*x3*z1",
    ]
    # at n = 4 the coefficients reach denominators such as e^2 + e
    gens = collinear_family_generators(4)
    text = "\n".join(format_polynomial(p) for p in
                     reduced_groebner_basis(ideal(gens[0].ring, gens)))
    assert "/(e^2 + e))" in text
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "64faad3e38194fb4a036d741fbd49549bfb62978f6e9040139511a4636631164")


@pytest.mark.parametrize("mutate", [
    lambda gens, ring: gens + [parse_polynomial(ring, "z1")],   # larger
    lambda gens, ring: gens[1:],                                # smaller
    # the same initial ideal, but no longer containing the fiber ideal
    lambda gens, ring: gens[:2] + [parse_polynomial(ring, "x1*y2 - 2*x2*y1")],
])
def test_mutated_factor_fails_the_intersection_certificate(monkeypatch,
                                                           mutate):
    factor = degeneration.decomposition_factor_ideal

    def mutated(n, t):
        I = factor(n, t)
        return ideal(I.ring, mutate(list(I.generators), I.ring)) \
            if t == 3 else I

    monkeypatch.setattr(degeneration, "decomposition_factor_ideal", mutated)
    report = verify_collinear_degeneration(3)
    assert report["checks"]["factors_intersect_to_fiber"] == {"pass": False}
    assert not report["pass"]
