"""The collinear-camera degeneration chain: trinomial generators over Q(e),
their binomial special fiber at e = 0, its lex initial monomial ideal, and the
certificate checks tying the three together."""

from __future__ import annotations

import itertools
from functools import partial

from .cameras import (
    collinear_cameras, multiview_generators, proportional, sigma_minor,
)
from .exactalg import EpsRational, eps
from .groebner import (
    ideal, ideal_equal, initial_ideal, normal_forms, reduced_groebner_basis,
)
from .monomial import (
    collinear_initial_ideal, has_multiview_hilbert_function,
    multiview_hilbert_mismatch,
)
from .polyring import Polynomial, Ring, m_from_pairs

__all__ = [
    "collinear_family_generators", "collinear_fiber_ideal", "special_fiber",
    "minimal_valuation", "decomposition_factor_ideal",
    "verify_collinear_degeneration",
]


def _pair_minors(ring, a, b, cameras):
    """The binomials a_i b_j - a_j b_i over pairs i < j of the cameras."""
    var = partial(Polynomial.variable, ring)
    return [var(a, i) * var(b, j) - var(a, j) * var(b, i)
            for i, j in itertools.combinations(cameras, 2)]


def collinear_family_generators(n):
    """The binomial quadrics x_i y_j - x_j y_i together with the trinomial
    cubics whose coefficients are differences of powers of e."""
    if n < 2:
        raise ValueError("need n >= 2")
    ring = Ring(n)
    out = _pair_minors(ring, "x", "y", range(1, n + 1))

    def c(a, b):
        return eps(n - a) - eps(n - b)

    def mono(pattern):
        return m_from_pairs([(ring.var(L, k), 1) for L, k in pattern])

    for i, j, k in itertools.combinations(range(1, n + 1), 3):
        for pattern in ((("x", "z", "x"), ("z", "x", "x"), ("x", "x", "z")),
                        (("y", "z", "y"), ("z", "y", "y"), ("y", "y", "z")),
                        (("y", "z", "x"), ("z", "y", "x"), ("y", "x", "z"))):
            terms = {}
            coeffs = (c(k, i), c(j, k), c(i, j))
            for (l1, l2, l3), cf in zip(pattern, coeffs):
                terms[mono(((l1, i), (l2, j), (l3, k)))] = cf
            out.append(Polynomial(ring, terms))
    return out


def collinear_fiber_ideal(n):
    """The binomial ideal generated by the pair minors x_i y_j - x_j y_i and
    the exchange cubics x_i z_j x_k - z_i x_j x_k, y_i z_j y_k - z_i y_j y_k,
    y_i z_j x_k - z_i y_j x_k."""
    if n < 2:
        raise ValueError("need n >= 2")
    ring = Ring(n)
    var = partial(Polynomial.variable, ring)
    gens = _pair_minors(ring, "x", "y", range(1, n + 1))
    for i, j, k in itertools.combinations(range(1, n + 1), 3):
        for a, b in (("x", "x"), ("y", "y"), ("y", "x")):
            gens.append((var(a, i) * var("z", j) - var("z", i) * var(a, j))
                        * var(b, k))
    return ideal(ring, gens)


def minimal_valuation(p):
    """Smallest order of vanishing at e = 0 over the coefficients."""
    if not p.terms:
        raise ValueError("zero polynomial")
    return min(c.val() if isinstance(c, EpsRational) else 0
               for c in p.terms.values())


def _fiber_of(p):
    """Normalize by the minimal valuation and evaluate at e = 0."""
    scale = eps(-minimal_valuation(p))
    return Polynomial(p.ring, {m: (scale * c).evaluate(0)
                               for m, c in p.terms.items()})


def special_fiber(gens):
    """Generator-wise fiber at e = 0 of a family of polynomials.

    Each generator is scaled by the inverse of its minimal e-power and then
    evaluated at zero.  The generator-wise computation is certified by the
    Hilbert box check: the lex initial ideal of the candidate must count
    standard monomials by the closed form on the whole box.  Returns the
    candidate ideal and the certificate flag.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("empty generating set")
    fibers = [_fiber_of(p) for p in gens]
    candidate = ideal(fibers[0].ring, fibers)
    return candidate, has_multiview_hilbert_function(initial_ideal(candidate))


def decomposition_factor_ideal(n, t):
    """The component ideal with the cameras t..n cut out and the remaining
    blocks constrained by rank-one conditions."""
    if not 3 <= t <= n + 1:
        raise ValueError("t must be between 3 and n+1")
    ring = Ring(n)
    gens = [Polynomial.variable(ring, L, i)
            for i in range(t, n + 1) for L in ("x", "y")]
    gens += _pair_minors(ring, "x", "y", range(1, t))
    gens += _pair_minors(ring, "x", "z", range(1, t - 1))
    gens += _pair_minors(ring, "y", "z", range(1, t - 1))
    return ideal(ring, gens)


def _family_matches_minors(n):
    """Both inclusions between the span of the family generators and the span
    of all maximal minors of the collinear configuration."""
    config = collinear_cameras(n)
    ring = Ring(n)
    gens = collinear_family_generators(n)
    gb = reduced_groebner_basis(ideal(ring, gens))
    for k, r in enumerate(normal_forms(multiview_generators(config), gb)):
        if r:
            return False, {"direction": "minor outside family span",
                           "minor_index": k}
    # each family generator is proportional to one specific minor
    pos = 0
    for i, j in itertools.combinations(range(1, n + 1), 2):
        minor = sigma_minor(config, (i, j), tuple(range(6)))
        if not proportional(minor, gens[pos]):
            return False, {"direction": "pair minor mismatch", "pair": (i, j)}
        pos += 1
    drops = ((4, 7), (3, 6), (0, 7))  # rows y_j,y_k; x_j,x_k; x_i,y_k
    for i, j, k in itertools.combinations(range(1, n + 1), 3):
        for d in drops:
            rows = [r for r in range(9) if r not in d]
            minor = sigma_minor(config, (i, j, k), rows)
            if not proportional(minor, gens[pos]):
                return False, {"direction": "triple minor mismatch",
                               "triple": (i, j, k)}
            pos += 1
    return True, None


def verify_collinear_degeneration(n):
    """Certificates for the two-step degeneration at n collinear cameras.

    Checks: (a) the family generators span the ideal of maximal minors;
    (b) the generator-wise special fiber equals the binomial fiber ideal;
    (c) its lex initial ideal is the expected monomial ideal; (d) that ideal
    counts standard monomials by the closed form on the box u <= 3, which
    decides for squarefree ideals; (e) the fiber ideal and its initial ideal
    decompose as the stated intersections.  n is capped at 7 to bound the
    runtime.
    """
    if not 2 <= n <= 7:
        raise ValueError("n must be between 2 and 7")
    ring = Ring(n)
    report = {"n": n, "checks": {}, "pass": True}

    def record(name, ok, witness=None):
        entry = {"pass": bool(ok)}
        if witness is not None and not ok:
            entry["witness"] = witness
        report["checks"][name] = entry
        if not ok:
            report["pass"] = False

    ok, witness = _family_matches_minors(n)
    record("family_generates_minor_ideal", ok, witness)

    gens = collinear_family_generators(n)
    fiber, certified = special_fiber(gens)
    L = collinear_fiber_ideal(n)
    record("special_fiber_certified", certified)
    record("special_fiber_is_binomial_ideal", ideal_equal(fiber, L))

    N = collinear_initial_ideal(n)
    in_L_is_N = initial_ideal(L) == N
    record("initial_ideal_of_fiber", in_L_is_N)

    bad = multiview_hilbert_mismatch(N)
    record("hilbert_box", bad is None, {"multidegree": bad} if bad else None)

    factors = [decomposition_factor_ideal(n, t) for t in range(3, n + 2)]
    inits = [initial_ideal(f) for f in factors]
    meet = inits[0]
    for other in inits[1:]:
        meet = meet.intersection(other)
    record("initial_ideals_intersect_to_N", meet == N)
    # L lies in every factor F_t, so in(L) <= in(meet of F_t) <= meet of
    # in(F_t) = N = in(L).  An ideal inside another with the same initial
    # ideal equals it: L is the intersection of the factors.
    inside = not any(r for f in factors for r in normal_forms(
        L.generators, reduced_groebner_basis(f)))
    record("factors_intersect_to_fiber", inside and meet == N and in_L_is_N)
    return report
