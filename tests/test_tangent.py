import itertools
import random
from collections import Counter
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mvgb.monomial import (
    MonomialIdeal, collinear_initial_ideal, generic_initial_ideal, relabel,
    standard_monomials,
)
from mvgb import tangent
from mvgb.polyring import (
    Ring, m_deg, m_from_pairs, m_lcm, parse_monomial,
)
from mvgb.tangent import (
    _free_components, _weight_blocks, collinear_tangent_maps,
    tangent_dimension, verify_collinear_tangent_basis,
)


def pairs_and_triples(I):
    return itertools.chain(itertools.combinations(I.gens, 2),
                           itertools.combinations(I.gens, 3))


def tangent_dimension_with_triples(I):
    """Cross-check variant that additionally imposes all triple-lcm
    constraints; the dimension must not change."""
    return len(eager_free_components(I, pairs_and_triples(I)))


def eager_free_components(I, subsets):
    """Reference for tangent._free_components: every subset through a vertex
    is tested at once, tying and zeroing in one pass, and each product is
    tested against every packed generator in turn."""
    width = (2 * max(map(m_deg, I.gens), default=0) + 1).bit_length() + 1
    guard = sum(1 << (v * width + width - 1) for v in range(I.ring.nvars))

    def pack(pairs):
        return sum(e << v * width for v, e in pairs)

    packed = [pack(g) for g in I.gens]
    known = {}

    def in_ideal(x):
        hit = known.get(x)
        if hit is None:
            top = x | guard
            hit = known[x] = any((top - q) & guard == guard for q in packed)
        return hit

    through = {}
    for A in subsets:
        L = pack(reduce(m_lcm, A))
        for g in A:
            through.setdefault(g, []).append((A, L))
    out = []
    for d, members in _weight_blocks(I):
        shift = pack(d)
        parent = {g: g for g in members}

        def find(g):
            while parent[g] != g:
                parent[g] = g = parent[parent[g]]
            return g

        zeroed = []
        for g in members:
            for A, L in through.get(g, ()):
                inside = [h for h in A if h in parent]
                if inside[0] != g or in_ideal(L + shift):
                    continue  # met from its first vertex, or no constraint
                for h in inside[1:]:
                    parent[find(h)] = find(g)
                if len(inside) < len(A):
                    zeroed.append(g)
        dead = {find(g) for g in zeroed}
        comps = {}
        for g in members:
            root = find(g)
            if root not in dead:
                comps.setdefault(root, []).append(g)
        out.extend((d, frozenset(c)) for c in comps.values())
    return out


def assert_matches_eager(I):
    """The (shift, component) set equals the eager reference's, over the
    pairs and over the pairs with the triples: the pairwise syzygies
    generate the triple ones."""
    got = _free_components(I)
    assert len(got) == len(set(got))
    for subsets in (itertools.combinations(I.gens, 2), pairs_and_triples(I)):
        assert set(got) == set(eager_free_components(I, subsets))


def dense_rank(rows, ncols):
    """Independent rank oracle: dense Gaussian elimination over Q."""
    mat = [[Fraction(r.get(c, 0)) for c in range(ncols)] for r in rows]
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col] / mat[rank][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def _compositions(total, parts):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def brute_tangent_dimension(I):
    """Oracle: the dimension of Hom(I, S/I)_0 from the full constraint matrix
    over all unknowns at once, minus its dense rank.

    Works on plain exponent vectors parsed from the generators' text form
    (one block of variables per camera), with its own enumeration of
    monomials and its own divisibility test.
    """
    from mvgb.monomial import ideal_lines
    letters, n = I.ring.letters, I.ring.n
    k = len(letters)
    index = {"%s%d" % (L, c): (c - 1) * k + j
             for c in range(1, n + 1) for j, L in enumerate(letters)}
    gens = []
    for line in ideal_lines(I):
        v = [0] * (n * k)
        for factor in line.split("*"):
            name, _, e = factor.partition("^")
            v[index[name]] += int(e or 1)
        gens.append(tuple(v))

    def degree(v):
        return tuple(sum(v[c * k:(c + 1) * k]) for c in range(n))

    def standard(u):
        out = []
        for parts in itertools.product(*(_compositions(d, k) for d in u)):
            m = sum(parts, ())
            if not any(all(a >= b for a, b in zip(m, g)) for g in gens):
                out.append(m)
        return out

    def add(a, b):
        return tuple(x + y for x, y in zip(a, b))

    unknowns = {}
    for gi, g in enumerate(gens):
        for m in standard(degree(g)):
            unknowns[(gi, m)] = len(unknowns)
    rows = []
    for a, b in itertools.combinations(range(len(gens)), 2):
        ga, gb = gens[a], gens[b]
        L = tuple(map(max, ga, gb))
        qa = tuple(x - y for x, y in zip(L, ga))
        qb = tuple(x - y for x, y in zip(L, gb))
        targets = {m: {} for m in standard(degree(L))}
        for m in standard(degree(ga)):
            w = add(m, qa)
            if w in targets:
                targets[w][unknowns[(a, m)]] = Fraction(1)
        for m in standard(degree(gb)):
            w = add(m, qb)
            if w in targets:
                col = unknowns[(b, m)]
                targets[w][col] = targets[w].get(col, 0) - 1
        rows.extend(r for r in targets.values() if r)
    return len(unknowns) - dense_rank(rows, len(unknowns))


def test_principal_bilinear_ideals_have_dimension_eight():
    r2 = Ring(2)
    for a in "xyz":
        for b in "xyz":
            I = MonomialIdeal(r2, [parse_monomial(r2, "%s1*%s2" % (a, b))])
            assert tangent_dimension(I) == 8


def test_unit_ideal_has_dimension_zero():
    # S/<1> = 0: no monomial is standard, so there is no map
    I = MonomialIdeal(Ring(2), [()])
    assert tangent_dimension(I) == 0
    assert eager_free_components(I, itertools.combinations(I.gens, 2)) == []


def test_collinear_ideal_dimensions():
    for n in (3, 4, 5):
        assert tangent_dimension(collinear_initial_ideal(n)) == 11 * n - 15


def test_block_method_matches_dense_oracle():
    for I in (collinear_initial_ideal(3),
              generic_initial_ideal(3),
              MonomialIdeal(Ring(2), [parse_monomial(Ring(2), "x1*y2")])):
        assert tangent_dimension(I) == brute_tangent_dimension(I)


@pytest.mark.slow
def test_census3_tangent_dimensions_match_dense_oracle(census3):
    """Evidence for the three-camera tangent distribution: the block method,
    the triple-constraint variant and the dense oracle agree on every class
    representative; every member of a class below 18 and three seeded
    members of each other class read their class's value."""
    from mvgb.checks import CENSUS3_TANGENT_DISTRIBUTION

    rng = random.Random(10)
    dist = Counter()
    for rep, members in census3.orbits:
        d = tangent_dimension(rep)
        assert tangent_dimension_with_triples(rep) == d
        assert brute_tangent_dimension(rep) == d
        dist[d] += 1
        sample = members if d < 18 else rng.sample(members, 3)
        assert [tangent_dimension(I) for I in sample] == [d] * len(sample)
    assert dist == CENSUS3_TANGENT_DISTRIBUTION


def test_triple_constraints_do_not_change_rank():
    I = collinear_initial_ideal(3)
    assert tangent_dimension_with_triples(I) == tangent_dimension(I)


def test_generic_ideal_dimension_exceeds_component():
    # golden value, cross-checked by the dense oracle above
    d = tangent_dimension(generic_initial_ideal(3))
    assert d == 21
    assert d >= 18


def test_dimension_invariant_under_relabeling():
    rng = random.Random(1)
    I = collinear_initial_ideal(3)
    for _ in range(4):
        cams = list(range(3))
        rng.shuffle(cams)
        letters = tuple(tuple(rng.sample(range(3), 3)) for _ in range(3))
        J = relabel(I, tuple(cams), letters)
        assert tangent_dimension(J) == tangent_dimension(I)


def test_explicit_basis_counts():
    for n in (3, 4):
        maps = collinear_tangent_maps(n)
        assert len(maps) == 11 * n - 15
        names = [name for name, _ in maps]
        assert len(set(names)) == len(names)


def test_explicit_basis_images_are_standard():
    for n in (3, 4):
        I = collinear_initial_ideal(n)
        for _, table in collinear_tangent_maps(n):
            for g, img in table.items():
                assert g in set(I.gens)
                assert img not in I
                assert I.ring.multidegree(g) == I.ring.multidegree(img)


def test_explicit_basis_verifies():
    for n in (3, 4, 5):
        ok, details = verify_collinear_tangent_basis(n)
        assert ok, details
        assert details["tangent_dimension"] == 11 * n - 15


def _off_shift(maps):
    """Send one generator of a map with several generators to another
    standard monomial of its multidegree."""
    I = collinear_initial_ideal(4)
    i = next(i for i, (_, table) in enumerate(maps) if len(table) > 1)
    name, table = maps[i]
    g, img = next(iter(table.items()))
    other = next(m for m in standard_monomials(I, I.ring.multidegree(g))
                 if m != img)
    return maps[:i] + [(name, {**table, g: other})] + maps[i + 1:]


@pytest.mark.parametrize("damage, witness", [
    (lambda maps: maps[:-1], "missing"),
    (lambda maps: [("merged", {**maps[0][1], **maps[1][1]})] + maps[2:],
     "bad_map"),
    (lambda maps: maps + maps[-1:], "bad_map"),
    (_off_shift, "bad_map"),
], ids=["drop", "merge", "duplicate", "off_shift"])
def test_explicit_basis_rejects_wrong_maps(monkeypatch, damage, witness):
    maps = damage(tangent.collinear_tangent_maps(4))
    monkeypatch.setattr(tangent, "collinear_tangent_maps", lambda n: maps)
    ok, details = verify_collinear_tangent_basis(4)
    assert not ok and witness in details, details
    assert details["tangent_dimension"] == 29


@st.composite
def small_monomial_ideals(draw):
    """Ideals in Ring(2) with up to four generators of degree <= 2 per
    camera: squarefree ones, and ones with exponents up to 2."""
    top = draw(st.sampled_from((1, 2)))
    parts = [e for e in itertools.product(range(top + 1), repeat=3)
             if sum(e) <= 2]
    ring = Ring(2)
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        e = draw(st.sampled_from(parts)) + draw(st.sampled_from(parts))
        if any(e):
            gens.append(m_from_pairs(
                (ring.var(L, c), k) for (c, L), k in
                zip(itertools.product((1, 2), "xyz"), e) if k))
    assume(gens)
    return MonomialIdeal(ring, gens)


@settings(max_examples=100, deadline=None)
@given(small_monomial_ideals())
def test_weight_graph_count_matches_dense_oracle(I):
    d = tangent_dimension(I)
    assert tangent_dimension_with_triples(I) == d
    assert brute_tangent_dimension(I) == d


@st.composite
def high_exponent_ideals(draw):
    """Ideals in Ring(2) with up to three generators of exponents up to 4
    and degree up to 4 in each camera."""
    ring = Ring(2)
    block = st.sampled_from(
        [e for e in itertools.product(range(5), repeat=3) if sum(e) <= 4])
    rows = draw(st.lists(st.tuples(block, block), min_size=1, max_size=3))
    gens = [m_from_pairs((ring.var(L, c), e)
                         for c, part in ((1, a), (2, b))
                         for L, e in zip(ring.letters, part) if e)
            for a, b in rows if any(a + b)]
    assume(gens)
    return MonomialIdeal(ring, gens)


@settings(max_examples=8, deadline=None)
@given(high_exponent_ideals())
def test_packed_fields_hold_high_exponents(I):
    """Exponents up to 4, with degree up to 4 in each camera: the packed
    field width, negative shifts and the guard-bit divisibility test agree
    with the dense oracle."""
    d = tangent_dimension(I)
    assert tangent_dimension_with_triples(I) == d
    assert brute_tangent_dimension(I) == d


@pytest.mark.parametrize("text, expected", [
    (("x1^3*y2", "x1*y2^4", "z1^2*z2^2"), 57),
    (("x1^4*x2", "y1^2*z1*y2^2"), 103),
    (("z1^4*z2", "x1*z1^2*x2^3"), 51),
    # fields of L*x^d above D: x1^8 and z1^8 for the lcm x1^4*z1^4*x2*z2^2
    (("x1^4*x2", "z1^4*z2^2"), 130),
    (("z1^3", "z1*z2^4", "x2^4*z1^2"), 33),
])
def test_packed_fields_on_named_high_exponent_ideals(text, expected):
    ring = Ring(2)
    I = MonomialIdeal(ring, [parse_monomial(ring, t) for t in text])
    assert tangent_dimension(I) == expected
    assert tangent_dimension_with_triples(I) == expected
    assert brute_tangent_dimension(I) == expected


@settings(max_examples=100, deadline=None)
@given(small_monomial_ideals())
def test_components_match_eager_reference(I):
    assert_matches_eager(I)


@settings(max_examples=30, deadline=None)
@given(high_exponent_ideals())
def test_components_match_eager_reference_at_high_exponents(I):
    assert_matches_eager(I)


def test_divisor_outside_the_lowest_variable_bucket():
    """At the shift y2/x2 the lcm x1*x2*z1*z2 becomes x1*y2*z1*z2: its
    lowest variable is x1, but its only divisor z1*z2 is indexed under z1.
    Missing it would zero the vertex x1*x2 there."""
    ring = Ring(2)
    I = MonomialIdeal(ring, [parse_monomial(ring, t)
                             for t in ("x1*x2", "z1*z2")])
    assert tangent_dimension(I) == brute_tangent_dimension(I) == 14
    assert_matches_eager(I)
