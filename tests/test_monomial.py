import itertools
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mvgb.groebner import hilbert_value, permuted_block_lex_orders
from mvgb.hilbscheme import monomial_ideal_census
from mvgb.monomial import (
    MonomialIdeal, _orbit_key, _orbits, canonical_form,
    collinear_initial_ideal,
    generic_initial_ideal, generic_shelling_order, ideal_key, is_borel_fixed,
    is_shelling, minimal_primes, multidegree_support,
    multiview_hilbert_function, multiview_hilbert_mismatch,
    multiview_profiles, relabel, standard_count_box, standard_monomial_count,
    standard_monomials, standard_profiles, stanley_reisner_complex,
    symmetry_orbits,
)
from mvgb.polyring import (
    Ring, m_divides, m_from_pairs, m_mul, m_one, parse_monomial,
)
from mvgb.toric import symmetry_classes


def mono(ring, s):
    return parse_monomial(ring, s)


def brute_standard_count(I, u):
    """Oracle: enumerate every monomial of multidegree u and test divisibility."""
    ring = I.ring
    blocks = [[ring.var(L, i) for L in ring.letters]
              for i in range(1, ring.n + 1)]

    def block_monos(b, d):
        out = []
        for e1 in range(d + 1):
            for e2 in range(d - e1 + 1):
                e3 = d - e1 - e2
                out.append(tuple((v, e) for v, e in
                           zip(b, (e1, e2, e3)) if e))
        return out

    count = 0
    for combo in itertools.product(*[block_monos(b, d)
                                     for b, d in zip(blocks, u)]):
        m = m_one
        for p in combo:
            m = m_mul(m, p)
        if m not in I:
            count += 1
    return count


def test_generic_ideal_generator_counts():
    assert len(generic_initial_ideal(2)) == 1
    assert len(generic_initial_ideal(3)) == 6
    # binom(4,2) + 3*binom(4,3) + binom(4,4)
    assert len(generic_initial_ideal(4)) == 19


def test_collinear_ideal_generator_counts():
    r2 = Ring(2)
    assert generic_initial_ideal(2).gens == (mono(r2, "x1*x2"),)
    assert collinear_initial_ideal(2).gens == (mono(r2, "x1*y2"),)
    assert len(collinear_initial_ideal(3)) == 6
    assert len(collinear_initial_ideal(4)) == 18


def test_minimal_generation_no_redundancy():
    r = Ring(2)
    I = MonomialIdeal(r, [mono(r, "x1"), mono(r, "x1*y2"), mono(r, "x1")])
    assert I.gens == (mono(r, "x1"),)


def test_hilbert_closed_form_values():
    assert multiview_hilbert_function(2, (0, 0)) == 1
    assert multiview_hilbert_function(2, (1, 1)) == 8
    assert multiview_hilbert_function(2, (2, 2)) == 27
    assert multiview_hilbert_function(3, (1, 1, 1)) == 17


def test_count_standard_against_brute_oracle():
    for n in (2, 3):
        M = generic_initial_ideal(n)
        N = collinear_initial_ideal(n)
        for u in itertools.product(range(3), repeat=n):
            expected = brute_standard_count(M, u)
            assert standard_monomial_count(M, u) == expected
            assert expected == multiview_hilbert_function(n, u)
            assert standard_monomial_count(N, u) == expected


def test_count_standard_trivial():
    r2 = Ring(2)
    I = MonomialIdeal(r2, [mono(r2, "x1")])
    assert standard_monomial_count(I, (1, 0)) == 2


def test_count_standard_non_squarefree():
    r2 = Ring(2)
    I = MonomialIdeal(r2, [mono(r2, "x1^2")])
    assert standard_monomial_count(I, (2, 0)) == brute_standard_count(I, (2, 0))
    assert standard_monomial_count(I, (2, 0)) == 5


def test_count_non_squarefree_in_high_degree():
    # x1 appears at most once: 81 monomials of degree 40 on the first block
    # and all C(42, 2) = 861 on the second
    r2 = Ring(2)
    I = MonomialIdeal(r2, [mono(r2, "x1^2")])
    assert standard_monomial_count(I, (40, 40)) == 81 * 861


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_count_non_squarefree_matches_enumeration(data):
    n = data.draw(st.integers(1, 3))
    ring = Ring(n)
    gens = data.draw(st.lists(st.lists(
        st.tuples(st.integers(0, ring.nvars - 1), st.integers(1, 4)),
        min_size=1, max_size=4), min_size=1, max_size=4))
    gens = [m_from_pairs(g) for g in gens]
    I = MonomialIdeal(ring, gens)
    assume(not I.is_squarefree())
    u = tuple(data.draw(st.integers(0, 5 if n < 3 else 3)) for _ in range(n))
    assert standard_monomial_count(I, u) == len(standard_monomials(I, u))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_box_non_squarefree_matches_enumeration(data):
    n = data.draw(st.integers(1, 3))
    ring = Ring(n)
    gens = data.draw(st.lists(st.lists(
        st.tuples(st.integers(0, ring.nvars - 1), st.integers(1, 4)),
        min_size=1, max_size=4), min_size=1, max_size=6))
    I = MonomialIdeal(ring, [m_from_pairs(g) for g in gens])
    assume(not I.is_squarefree())
    box = standard_count_box(I, 2)
    assert box == {u: len(standard_monomials(I, u)) for u in box}


def test_box_of_pure_powers_on_every_variable():
    # every branch of every split reaches the same ideals again
    ring = Ring(3)
    I = MonomialIdeal(ring, [m_from_pairs([(v, 4)])
                             for v in range(ring.nvars)])
    box = standard_count_box(I, 3)
    assert box == {u: len(standard_monomials(I, u)) for u in box}
    with pytest.raises(ValueError):
        multiview_hilbert_mismatch(I)


def test_box_table_matches_closed_form():
    for n in (2, 3, 4):
        M = generic_initial_ideal(n)
        N = collinear_initial_ideal(n)
        boxM = standard_count_box(M, 3)
        boxN = standard_count_box(N, 3)
        for u in itertools.product(range(4), repeat=n):
            h = multiview_hilbert_function(n, u)
            assert boxM[u] == h
            assert boxN[u] == h


def test_multiview_profiles_are_those_of_both_distinguished_ideals():
    for n in range(2, 7):
        table = multiview_profiles(n)
        assert table == standard_profiles(generic_initial_ideal(n))
        assert table == standard_profiles(collinear_initial_ideal(n))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hilbert_mismatch_is_the_first_differing_box_entry(data):
    # the box of standard counts is the oracle for the pattern comparison
    n = data.draw(st.integers(2, 4))
    ring = Ring(n)
    M = generic_initial_ideal(n)
    # generators near M_n's, so that some ideals agree on the whole box
    kept = data.draw(st.lists(st.sampled_from(M.gens), unique=True))
    extra = data.draw(st.lists(st.sets(st.integers(0, ring.nvars - 1),
                                       min_size=1, max_size=4), max_size=3))
    I = MonomialIdeal(ring, kept + [m_from_pairs((v, 1) for v in s)
                                    for s in extra])
    box = standard_count_box(I, 3)
    assert multiview_hilbert_mismatch(I) == next(
        (u for u, got in box.items()
         if got != multiview_hilbert_function(n, u)), None)


def test_hilbert_mismatch_names_first_multidegree():
    M = generic_initial_ideal(3)
    assert multiview_hilbert_mismatch(M) is None
    assert multiview_hilbert_mismatch(collinear_initial_ideal(4)) is None
    # dropping x1*x2 adds a standard monomial at (1,1,0); adding z1*z2
    # removes one there; (1,1,0) is the first box entry either one changes
    smaller = MonomialIdeal(M.ring, M.gens[1:])
    larger = MonomialIdeal(M.ring, M.gens + (mono(M.ring, "z1*z2"),))
    assert multiview_hilbert_mismatch(smaller) == (1, 1, 0)
    assert multiview_hilbert_mismatch(larger) == (1, 1, 0)


def test_minimal_primes_small():
    r2 = Ring(2)
    I = MonomialIdeal(r2, [mono(r2, "x1*y2")])
    primes = minimal_primes(I)
    assert sorted(sorted(p) for p in primes) == \
        sorted([[r2.var("x", 1)], [r2.var("y", 2)]])


def test_minimal_primes_of_generic_ideal():
    r3 = Ring(3)
    M3 = generic_initial_ideal(3)
    primes = minimal_primes(M3)
    expected = [
        {"x1", "x2", "y1"}, {"x1", "x2", "y2"}, {"x1", "x3", "y1"},
        {"x1", "x3", "y3"}, {"x2", "x3", "y2"}, {"x2", "x3", "y3"},
        {"x1", "x2", "x3"},
    ]
    got = [{r3.name(v) for v in p} for p in primes]
    assert len(got) == 7
    for e in expected:
        assert e in got
    for n in (3, 4, 5, 6):
        P = minimal_primes(generic_initial_ideal(n))
        assert len(P) == comb(n, 3) + 2 * comb(n, 2)


def test_prime_recomposition():
    for I in (generic_initial_ideal(3), collinear_initial_ideal(3),
              generic_initial_ideal(4)):
        primes = minimal_primes(I)
        # intersection of the primes as monomial ideals equals the ideal
        current = None
        for p in primes:
            Pideal = MonomialIdeal(I.ring, [((v, 1),) for v in sorted(p)])
            current = Pideal if current is None else current.intersection(Pideal)
        assert current == I


def test_multidegree_support():
    r2 = Ring(2)
    I = MonomialIdeal(r2, [mono(r2, "x1*x2")])
    assert multidegree_support(I) == {(1, 0): 1, (0, 1): 1}
    M2 = generic_initial_ideal(2)
    assert multidegree_support(M2) == {(1, 0): 1, (0, 1): 1}
    for n in (3, 4):
        t = multidegree_support(generic_initial_ideal(n))
        cube_terms = sum(c for vec, c in t.items()
                         if sorted(vec, reverse=True) == [2] * (n - 3) + [1, 1, 1])
        prism_terms = sum(c for vec, c in t.items()
                          if sorted(vec, reverse=True) == [2] * (n - 2) + [1, 0])
        assert cube_terms == comb(n, 3)
        assert prism_terms == n * (n - 1)
        assert sum(t.values()) == comb(n, 3) + 2 * comb(n, 2)


def test_borel_fixed():
    for n in (2, 3, 4, 5):
        ok, _ = is_borel_fixed(generic_initial_ideal(n))
        assert ok
    ok, witness = is_borel_fixed(collinear_initial_ideal(3))
    assert not ok
    r3 = Ring(3)
    I = MonomialIdeal(r3, [mono(r3, "z1*z2")])
    ok, _ = is_borel_fixed(I)
    assert not ok


def test_borel_witness_example():
    # y1*z2*x3 is a generator but its exchange y1*y2*x3 is not in the ideal
    N3 = collinear_initial_ideal(3)
    r3 = N3.ring
    assert mono(r3, "y1*z2*x3") in N3
    assert mono(r3, "y1*y2*x3") not in N3


def test_facet_complex_shapes():
    for n in (3, 4):
        fc = stanley_reisner_complex(generic_initial_ideal(n))
        assert len(fc.facets) == comb(n, 3) + 2 * comb(n, 2)
        assert fc.labels.count("cube") == comb(n, 3)
        assert fc.labels.count("prism") == n * (n - 1)


def test_shelling_of_generic_ideal():
    for n in (3, 4, 5):
        facets = generic_shelling_order(n)
        fc = stanley_reisner_complex(generic_initial_ideal(n))
        assert set(facets) == set(fc.facets)
        assert is_shelling(facets)


def test_shelling_trivial_and_disconnected():
    assert is_shelling([frozenset({0, 1, 2})])
    assert not is_shelling([frozenset({0, 1}), frozenset({2, 3})])
    with pytest.raises(ValueError):
        is_shelling([frozenset({0, 1}), frozenset({0})])


def test_relabel_and_orbits():
    M3 = generic_initial_ideal(3)
    # the generic ideal is symmetric under camera relabeling
    img = relabel(M3, (1, 0, 2), ((0, 1, 2),) * 3)
    assert img == M3
    # swapping x and y in one camera moves it
    img2 = relabel(M3, (0, 1, 2), ((1, 0, 2), (0, 1, 2), (0, 1, 2)))
    assert img2 != M3
    orbits = symmetry_orbits([M3])
    assert len(orbits) == 1
    with pytest.raises(ValueError):
        symmetry_orbits([M3, img2], strict=True)  # full orbit missing
    # the two ideals are related through ideals outside the input set
    merged = symmetry_orbits([M3, img2])
    assert len(merged) == 1
    # census(2) is one orbit of nine ideals: closed as a whole, not closed
    # with one member dropped or replaced by a duplicate of another
    two = monomial_ideal_census(2)
    assert len(symmetry_orbits(two, strict=True)) == 1
    for broken in (two[1:], [two[1]] + two[1:]):
        with pytest.raises(ValueError):
            symmetry_orbits(broken, strict=True)
    assert canonical_form(MonomialIdeal(Ring(2), [])) == ((), 1)


def test_orbit_entry_points_reject_non_squarefree_ideals():
    r2 = Ring(2)
    I = MonomialIdeal(r2, [mono(r2, "x1^2*y2")])
    squarefree = MonomialIdeal(r2, [mono(r2, "x1*y2")])
    for call in (lambda: canonical_form(I),
                 lambda: symmetry_orbits([squarefree, I]),
                 lambda: symmetry_classes([I, squarefree])):
        with pytest.raises(ValueError, match="squarefree"):
            call()


def test_orbit_entry_points_refuse_six_cameras(monkeypatch):
    # the group table of Ring(6) has 6^6 * 6! rows; none may be built
    import mvgb.monomial as monomial

    def no_table(n):
        raise AssertionError("group table built for n = %d" % n)

    monkeypatch.setattr(monomial, "_group_bit_images", no_table)
    r6 = Ring(6)
    I = MonomialIdeal(r6, [mono(r6, "x1*y6"), mono(r6, "z3")])
    for call in (lambda: canonical_form(I),
                 lambda: canonical_form(MonomialIdeal(r6, [])),
                 lambda: symmetry_orbits([I])):
        with pytest.raises(ValueError, match="at most 5 cameras"):
            call()


_AUX = Ring(2, aux=1)
_AUX_IDEAL = MonomialIdeal(_AUX, [parse_monomial(_AUX, "x1*x2")])


@pytest.mark.parametrize("call", [
    lambda: canonical_form(_AUX_IDEAL),
    lambda: canonical_form(MonomialIdeal(_AUX, [])),
    lambda: symmetry_orbits([_AUX_IDEAL]),
    lambda: symmetry_classes([_AUX_IDEAL]),
    lambda: is_borel_fixed(_AUX_IDEAL),
    lambda: permuted_block_lex_orders(_AUX),
    lambda: multiview_hilbert_mismatch(_AUX_IDEAL),
    lambda: standard_monomial_count(_AUX_IDEAL, (1, 1)),
    lambda: standard_monomials(_AUX_IDEAL, (1, 1)),
    lambda: standard_count_box(_AUX_IDEAL),
    lambda: hilbert_value(_AUX_IDEAL, (1, 1)),
], ids=["canonical_form", "canonical_form_empty", "symmetry_orbits",
        "symmetry_classes", "is_borel_fixed", "permuted_block_lex_orders",
        "multiview_hilbert_mismatch", "standard_monomial_count",
        "standard_monomials", "standard_count_box", "hilbert_value"])
def test_symmetry_entry_points_reject_aux_rings(call):
    with pytest.raises(ValueError, match=r"plain 3-letter ring Ring\(2\)"):
        call()


def test_orbit_entry_points_reject_mixed_rings():
    ideals = [MonomialIdeal(r, [parse_monomial(r, "x1*x2")])
              for r in (Ring(2), Ring(3))]
    for call in (symmetry_orbits, symmetry_classes):
        with pytest.raises(ValueError, match=r"Ring\(2\) and Ring\(3\)"):
            call(ideals)


def test_orbit_of_bilinear_ideals():
    r2 = Ring(2)
    ideals = [MonomialIdeal(r2, [mono(r2, "%s1*%s2" % (a, b))])
              for a in "xyz" for b in "xyz"]
    orbits = symmetry_orbits(ideals)
    assert len(orbits) == 1
    assert sum(len(m) for _, m in orbits) == 9
    rep = orbits[0][0]
    assert ideal_key(rep) == min(ideal_key(I) for I in ideals)


# ---------------------------------------------------------------------------
# the membership and orbit kernels against brute-force oracles

RINGS = {n: Ring(n) for n in (2, 3)}


@st.composite
def monomials(draw, ring, max_exp):
    return m_from_pairs(draw(st.lists(
        st.tuples(st.integers(0, ring.nvars - 1), st.integers(1, max_exp)),
        max_size=5)))


@st.composite
def ideals(draw, ring):
    """A squarefree ideal: each generator a set of distinct variables."""
    supports = draw(st.lists(st.sets(st.integers(0, ring.nvars - 1),
                                     max_size=5), max_size=6))
    return MonomialIdeal(ring, [m_from_pairs((v, 1) for v in s)
                                for s in supports])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_membership_matches_brute_divisibility(data):
    ring = RINGS[data.draw(st.sampled_from((2, 3)))]
    # squarefree generators mixed with generators of exponent up to 3
    gens = data.draw(st.lists(st.one_of(monomials(ring, 1),
                                        monomials(ring, 3)), max_size=6))
    I = MonomialIdeal(ring, gens)
    probes = data.draw(st.lists(monomials(ring, 3), min_size=1, max_size=8))
    if I.gens:
        # multiples of generators, so that members are tested as well
        probes += [m_mul(data.draw(st.sampled_from(I.gens)), m)
                   for m in data.draw(st.lists(monomials(ring, 3),
                                               max_size=4))]
    for m in probes:
        assert (m in I) == any(m_divides(g, m) for g in I.gens)


def brute_orbits(ideals, strict=False):
    """Oracle: class the ideals by their whole-group canonical form."""
    groups, sizes = {}, {}
    for I in ideals:
        key, size = canonical_form(I)
        groups.setdefault(key, []).append(I)
        sizes[key] = size
    if strict and any(len({ideal_key(I) for I in members}) != sizes[key]
                      for key, members in groups.items()):
        raise ValueError("not closed")
    orbits = [sorted(members, key=ideal_key) for members in groups.values()]
    return sorted(((ms[0], ms) for ms in orbits),
                  key=lambda o: ideal_key(o[0]))


def orbit_of(I):
    """Every image of I under the group, by explicit relabeling."""
    n = I.ring.n
    perms3 = list(itertools.permutations(range(3)))
    return {relabel(I, tau, combo)
            for tau in itertools.permutations(range(n))
            for combo in itertools.product(perms3, repeat=n)}


def same_orbits(ideals, strict):
    try:
        want = brute_orbits(ideals, strict)
    except ValueError:
        with pytest.raises(ValueError):
            symmetry_orbits(ideals, strict)
        return
    got = symmetry_orbits(ideals, strict)
    assert got == want
    # duplicate inputs stay as separate members
    assert sum(len(ms) for _, ms in got) == len(ideals)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_orbits_match_canonical_form_classing(data):
    ring = RINGS[data.draw(st.sampled_from((2, 3)))]
    found = data.draw(st.lists(ideals(ring), max_size=8))
    if found:
        found += data.draw(st.lists(st.sampled_from(found), max_size=3))
    if data.draw(st.booleans()):
        found.append(MonomialIdeal(ring, []))
    found = data.draw(st.permutations(found))
    same_orbits(found, strict=False)
    same_orbits(found, strict=True)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_strict_orbits_on_closed_and_broken_sets(data):
    ring = RINGS[data.draw(st.sampled_from((2, 3)))]
    closed = set()
    for I in data.draw(st.lists(ideals(ring), min_size=1, max_size=2)):
        closed |= orbit_of(I)
    closed = data.draw(st.permutations(sorted(closed, key=ideal_key)))
    same_orbits(closed, strict=True)
    assert len(symmetry_orbits(closed, strict=True)) in (1, 2)
    if len(closed) > 1:
        broken = list(closed)
        broken.pop(data.draw(st.integers(0, len(broken) - 1)))
        # open unless the dropped member was an orbit of its own
        same_orbits(broken, strict=True)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_canonical_form_matches_explicit_orbit(data):
    # the images by explicit relabeling are the reference for the minimal
    # image and the orbit size
    ring = RINGS[data.draw(st.sampled_from((2, 3)))]
    I = data.draw(ideals(ring))
    images = orbit_of(I)
    label, size = canonical_form(I)
    assert size == len(images)
    assert label == min(tuple(sorted(J.support_masks())) for J in images)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_orbits_open_each_orbit_once_with_its_images(data):
    # _orbits against explicit relabeling: each list whose orbit no earlier
    # list opened yields the distinct sorted masks of its images, keyed by
    # _orbit_key row by row, and a key is the sorted masks in 16-bit slots
    ring = RINGS[data.draw(st.sampled_from((2, 3)))]
    found = data.draw(st.lists(ideals(ring), min_size=1, max_size=5))
    for I in data.draw(st.lists(st.sampled_from(found), max_size=3)):
        tau = data.draw(st.permutations(range(ring.n)))
        perms = data.draw(st.lists(st.permutations(range(3)),
                                   min_size=ring.n, max_size=ring.n))
        found.append(relabel(I, tau, perms))
    found = data.draw(st.permutations(found))
    lists = [I.support_masks() for I in found]
    images = [{tuple(sorted(J.support_masks())) for J in orbit_of(I)}
              for I in found]
    opened = [i for i, I in enumerate(found)
              if not any(tuple(sorted(lists[j])) in images[i]
                         for j in range(i))]
    got = list(_orbits(ring.n, lists))
    assert [next(i for i, m in enumerate(lists) if m is masks)
            for masks, _, _ in got] == opened
    for (masks, rows, keys), i in zip(got, opened):
        rows = [tuple(r) for r in rows.tolist()]
        assert len(set(rows)) == len(rows)
        assert set(rows) == images[i]
        assert keys == [_orbit_key(r) for r in rows]
    for masks in lists:
        assert _orbit_key(masks) == sum(
            m << 16 * k for k, m in enumerate([*sorted(masks, reverse=True),
                                               1]))
