import functools
import hashlib
import itertools
import operator
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvgb import hilbscheme, monomial
from mvgb.hilbscheme import (
    _census_psi, _groups, _pattern_orbits, _search, census, census_hash,
    has_multiview_hilbert_function, monomial_ideal_census,
)
from mvgb.monomial import (
    MonomialIdeal, canonical_form, collinear_initial_ideal,
    generic_initial_ideal, ideal_key, ideal_lines, is_borel_fixed,
    symmetry_orbits,
)
from mvgb.polyring import Ring, parse_monomial
from mvgb.toric import (
    cayley_matrix, enumerate_initial_ideals, symmetry_classes, toric_ideal,
    variable_kernel_rows,
)

# content hash of the canonically serialized three-camera census, fixed at
# the first verified run
CENSUS3_SHA256 = \
    "8b19a66ad347a27c2809d5ec8e4d11879caa9e2507fc7a67a64c87139e37cfe8"
# hash of its orbit table, one line per class in order: the representative's
# generators and the class size; recorded from the canonical-form classing
ORBIT_TABLE3_SHA256 = \
    "c5042b279c249f7e8dacc63a1b9fef4ef967d7a0f32fab4546738c0f819afb01"


def test_two_camera_census_is_the_nine_bilinear_ideals():
    r2 = Ring(2)
    found = monomial_ideal_census(2)
    assert len(found) == 9
    expected = {ideal_key(MonomialIdeal(r2, [parse_monomial(r2, "%s1*%s2" % (a, b))]))
                for a in "xyz" for b in "xyz"}
    assert {ideal_key(I) for I in found} == expected
    assert all(len(I.gens) == 1 for I in found)


def test_membership_examples():
    assert has_multiview_hilbert_function(generic_initial_ideal(3))
    assert has_multiview_hilbert_function(collinear_initial_ideal(3))
    r2 = Ring(2)
    assert has_multiview_hilbert_function(
        MonomialIdeal(r2, [parse_monomial(r2, "x1*x2")]))
    assert not has_multiview_hilbert_function(
        MonomialIdeal(r2, [parse_monomial(r2, "x1")]))


def test_two_camera_census_tangent_dimensions():
    res = census(2, tangent=True)
    assert res.counts == {"ideals": 9, "classes": 1}
    assert set(res.tangent.values()) == {8}


@pytest.mark.slow
def test_three_camera_census(census3):
    res = census3
    assert res.counts == {"ideals": 13824, "classes": 16}
    assert sum(len(m) for _, m in res.orbits) == 13824
    assert census_hash(res.ideals) == CENSUS3_SHA256
    keys = {ideal_key(I) for I in res.ideals}
    assert ideal_key(generic_initial_ideal(3)) in keys
    assert ideal_key(collinear_initial_ideal(3)) in keys
    borel = [I for I in res.ideals if is_borel_fixed(I)[0]]
    assert borel == [generic_initial_ideal(3)]


@pytest.mark.slow
def test_census_ideals_from_masks_match_the_constructor(census3):
    """The census builds each ideal from the search's support masks, sorted
    by a per-support key and not filtered again; the general constructor
    must give the same generators in the same order."""
    for ideals in (monomial_ideal_census(2), census3.ideals):
        for I in ideals:
            assert I.gens == MonomialIdeal(I.ring, I.gens).gens


@pytest.mark.slow
def test_three_camera_orbit_table(census3):
    table = "\n".join("%s | %d" % (", ".join(ideal_lines(rep)), len(members))
                      for rep, members in census3.orbits)
    assert hashlib.sha256(table.encode()).hexdigest() == ORBIT_TABLE3_SHA256


def test_unique_borel_member_two_cameras():
    found = [I for I in monomial_ideal_census(2) if is_borel_fixed(I)[0]]
    assert found == [generic_initial_ideal(2)]


@pytest.mark.slow
def test_box_counts_determine_larger_multidegrees(census3):
    import itertools
    import random

    from mvgb.monomial import multiview_hilbert_function, \
        standard_monomial_count

    rng = random.Random(7)
    ideals = census3.ideals
    for I in rng.sample(ideals, 100):
        for _ in range(50):
            u = tuple(rng.randint(0, 6) for _ in range(3))
            assert standard_monomial_count(I, u) == \
                multiview_hilbert_function(3, u)


# 2 or 3 blocks with at most 5 variables in total
BLOCK_SIZES = [s for r in (2, 3) for s in itertools.product((1, 2, 3), repeat=r)
               if sum(s) <= 5]


def _up_set(gens, nv):
    """Bitmask, over all supports, of the supersets of the generators."""
    return sum(1 << T for T in range(1 << nv)
               if any(T & S == S for S in gens))


def _brute_up_sets(profile, psi, nv):
    """Every up-set of nonempty supports holding psi[k] supports of each
    profile k.  Supports are decided from the top level down, and one may
    join only when all its supersets are already in."""
    order = sorted(profile, key=lambda S: -S.bit_count())
    # supports of the same profile that come after each one
    left = [sum(profile[T] == profile[S] for T in order[i + 1:])
            for i, S in enumerate(order)]
    found = set()

    def rec(i, upset, counts):
        if i == len(order):
            found.add(upset)
            return
        S = order[i]
        k = profile[S]
        if counts[k] < psi[k] and all(
                upset >> T & 1 for T in range(S + 1, 1 << nv)
                if T & S == S):
            rec(i + 1, upset | 1 << S, {**counts, k: counts[k] + 1})
        if counts[k] + left[i] >= psi[k]:
            rec(i + 1, upset, counts)

    rec(0, 0, dict.fromkeys(psi, 0))
    return found


def _drawn_counts(sizes, data):
    """Blocks of the given sizes over shuffled variables, the profile of
    each nonempty support, a drawn up-set and its count psi per profile,
    so at least that up-set has them."""
    nv = sum(sizes)
    perm = data.draw(st.permutations(range(nv)))
    starts = list(itertools.accumulate(sizes, initial=0))
    blocks = [sorted(perm[a:b]) for a, b in zip(starts, starts[1:])]
    gens = data.draw(st.lists(st.integers(1, (1 << nv) - 1), max_size=4))
    profile = {S: tuple(sum(S >> v & 1 for v in b) for b in blocks)
               for S in range(1, 1 << nv)}
    target = _up_set(gens, nv)
    psi = dict.fromkeys(profile.values(), 0)
    for S in profile:
        psi[profile[S]] += target >> S & 1
    return nv, blocks, profile, psi, target


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(BLOCK_SIZES), st.data())
def test_search_matches_brute_force_up_sets(sizes, data):
    nv, blocks, profile, psi, target = _drawn_counts(sizes, data)
    answers = _search(*_groups(blocks, psi))
    for chosen in answers:
        assert not any(S != T and S & T == S
                       for S in chosen for T in chosen)
    upsets = [_up_set(chosen, nv) for chosen in answers]
    assert len(set(upsets)) == len(upsets)
    assert set(upsets) == _brute_up_sets(profile, psi, nv)
    assert target in set(upsets)


class _Reads(list):
    """A list that counts the reads of its items."""
    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(BLOCK_SIZES), st.data())
def test_started_search_finds_the_answers_through_its_start(sizes, data):
    """From a support S of the first profile with a positive count, the
    search finds exactly the full answers that hold S.  Any start finds the
    full answers whose up-set holds the start's; a start that breaks a
    count gives [] after reading only its own up-sets."""
    nv, blocks, profile, psi, _ = _drawn_counts(sizes, data)
    groups, supersets = _groups(blocks, psi)
    full = {frozenset(chosen) for chosen in _search(groups, supersets)}
    first = next((masks for masks, _, count, _ in groups if count), [])
    for S in first:
        assert {frozenset(chosen)
                for chosen in _search(groups, supersets, (S,))} == \
            {chosen for chosen in full if S in chosen}
    starts = [data.draw(st.lists(st.integers(1, (1 << nv) - 1),
                                 max_size=3))]
    full_up = {_up_set(chosen, nv) for chosen in full}
    size = {k: sum(1 for h in profile.values() if h == k) for k in psi}
    open_caps = sorted(k for k in psi if psi[k] < size[k])
    if open_caps:   # one support more than a profile's count
        k = data.draw(st.sampled_from(open_caps))
        members = data.draw(st.permutations(
            [S for S in profile if profile[S] == k]))
        starts.append(members[:psi[k] + 1])
    for start in starts:
        up = _up_set(start, nv)
        counted = _Reads(supersets)
        answers = _search(groups, counted, start)
        if any(sum(up >> S & 1 for S in profile if profile[S] == k) > psi[k]
               for k in psi):
            assert answers == [] and counted.reads == len(start)
        else:
            assert {_up_set(chosen, nv) for chosen in answers} == \
                {u for u in full_up if u & up == up}


@pytest.mark.parametrize("n, orbits, walked", [(2, 1, 1), (3, 4, 146)])
def test_census_by_pattern_orbits_matches_the_full_search(n, orbits, walked):
    """The census walks the answers through one pattern of each pattern
    orbit (146 of the 13824 answers at n = 3) and lists their group orbits;
    its up-sets are those of the search with no start."""
    ring = Ring(n)
    psi = _census_psi(ring)
    groups, supersets = _groups(ring.blocks(), psi)

    def up_sets(answers):
        return {functools.reduce(operator.or_,
                                 (supersets[S] for S in masks), 0)
                for masks in answers}

    reps = _pattern_orbits(ring, psi)
    through = [len(_search(groups, supersets, pattern))
               for pattern, _ in reps]
    assert (len(reps), sum(through)) == (orbits, walked)
    if n == 3:
        assert sorted(zip((size for _, size in reps), through)) == \
            [(27, 88), (162, 44), (216, 2), (324, 12)]
    full = _search(groups, supersets)
    ideals = monomial_ideal_census(n)
    assert len(ideals) == len(full) == \
        sum(size * t for (_, size), t in zip(reps, through))
    assert up_sets(I.support_masks() for I in ideals) == up_sets(full)


@pytest.mark.parametrize("n, orbits", [(2, 1), (3, 4), (4, 45)])
def test_pattern_orbits_partition_the_patterns(n, orbits):
    """Each pattern orbit's size divides |G| = 6^n n!, and the sizes sum to
    the 9^C(n,2) patterns."""
    ring = Ring(n)
    sizes = [size for _, size in _pattern_orbits(ring, _census_psi(ring))]
    assert len(sizes) == orbits
    assert sum(sizes) == 9 ** comb(n, 2)
    assert all(6 ** n * factorial(n) % size == 0 for size in sizes)


def _pattern_ideal(ring, pattern):
    return MonomialIdeal(ring, [tuple((v, 1) for v in range(ring.nvars)
                                      if S >> v & 1) for S in pattern])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 8), min_size=3, max_size=3))
def test_a_pattern_has_as_many_answers_as_its_orbit_representative(picks):
    """The group maps the answers through a pattern one-to-one onto those
    through its image: a drawn n = 3 pattern, placed in its orbit by
    canonical_form, has as many answers as the orbit's representative."""
    ring = Ring(3)
    psi = _census_psi(ring)
    groups, supersets = _groups(ring.blocks(), psi)
    blocks = ring.blocks()
    pattern = [1 << blocks[i][p // 3] | 1 << blocks[j][p % 3]
               for (i, j), p in zip(itertools.combinations(range(3), 2),
                                    picks)]
    form = canonical_form(_pattern_ideal(ring, pattern))
    rep, = [rep for rep, _ in _pattern_orbits(ring, psi)
            if canonical_form(_pattern_ideal(ring, rep)) == form]
    assert len(_search(groups, supersets, pattern)) == \
        len(_search(groups, supersets, rep))


def test_census_classes_are_the_strict_orbit_walk(census3):
    """census() reads its classes off the image sets of the walked answers;
    symmetry_orbits(strict=True) must find the same representatives and
    members, in the same order."""
    for res in (census(2), census3):
        assert res.ideals == sorted(res.ideals, key=ideal_key)
        assert res.orbits == symmetry_orbits(res.ideals, strict=True)


def _toric3_initial_ideals():
    cm3 = cayley_matrix(3)
    return [nd.initial for nd in enumerate_initial_ideals(
        toric_ideal(cm3), kernel_rows=variable_kernel_rows(cm3))]


@pytest.mark.parametrize("call, opened", [
    (lambda: monomial_ideal_census(2), 2),
    (lambda: monomial_ideal_census(3), 4 + 16),
    (lambda: symmetry_classes(_toric3_initial_ideals()), 3),
], ids=["census2", "census3", "toric3_classes"])
def test_each_orbit_is_opened_once(monkeypatch, call, opened):
    """Opening an orbit reads the group table once: the census opens one
    orbit per pattern orbit and per answer orbit (4 + 16 at n = 3), and
    classing the 20 toric(3) initial ideals opens their 3 orbits."""
    reads = []

    def table(n):
        reads.append(n)
        return group_bit_images(n)

    group_bit_images = monomial._group_bit_images
    monkeypatch.setattr(monomial, "_group_bit_images", table)
    call()
    assert len(reads) == opened


@pytest.mark.parametrize("call", [
    lambda: census(1), lambda: census(4),
    lambda: monomial_ideal_census(4),
], ids=["census1", "census4", "monomial_ideal_census4"])
def test_census_refuses_other_camera_counts_before_searching(monkeypatch,
                                                             call):
    """n = 4 would list 3.35e9 ideals: the census refuses before any
    search."""
    def searched(*args):
        raise AssertionError("searched")

    for name in ("_groups", "_search", "_pattern_orbits"):
        monkeypatch.setattr(hilbscheme, name, searched)
    with pytest.raises(ValueError, match="n = 2 and n = 3"):
        call()


@pytest.mark.parametrize("n", range(2, 7))
def test_first_branching_profile_is_the_epipolar_one_with_psi_one(n):
    """In level order the first profile with a positive count is
    e_{n-1}+e_n, the support profile of the epipolar form, with count 1;
    every pair profile e_i+e_j has count 1 and every profile below it
    count 0, which the pattern orbits of the census rest on."""
    psi = _census_psi(Ring(n))
    first = next(k for k in sorted(psi, key=lambda k: (sum(k), k))
                 if psi[k])
    assert first == (0,) * (n - 2) + (1, 1)
    assert psi[first] == 1
    for pair in itertools.combinations(range(n), 2):
        k = tuple(int(c in pair) for c in range(n))
        assert psi[k] == 1
        below = [h for h in itertools.product(*(range(a + 1) for a in k))
                 if h != k]
        assert len(below) == 3 and not any(psi[h] for h in below)


def test_groups_leave_out_only_caps_that_cannot_bind():
    """Of the 873 pairs (profile, profile above it) at n = 3, _groups checks
    439: every one left out has psi equal to its profile's support count,
    so no pick can exceed it."""
    ring = Ring(3)
    psi = _census_psi(ring)
    groups, _ = _groups(ring.blocks(), psi)
    profiles = sorted((k for k in psi if any(k)), key=lambda k: (sum(k), k))
    size = {k: prod(comb(3, a) for a in k) for k in profiles}
    of_bits = {bits: k for k, (_, bits, _, _) in zip(profiles, groups)}
    assert [len(masks) for masks, _, _, _ in groups] == \
        [size[k] for k in profiles]
    kept = dropped = 0
    for k, (_, _, _, above) in zip(profiles, groups):
        checked = {of_bits[bits]: cap for bits, cap in above}
        assert all(cap == psi[h] < size[h] for h, cap in checked.items())
        for h in profiles:
            if h != k and all(a >= b for a, b in zip(h, k)) \
                    and h not in checked:
                assert psi[h] == size[h]
                dropped += 1
        kept += len(checked)
    assert (kept, kept + dropped) == (439, 873)
