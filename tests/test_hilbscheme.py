import hashlib

import pytest

from mvgb.hilbscheme import (
    census, census_hash, has_multiview_hilbert_function, monomial_ideal_census,
)
from mvgb.monomial import (
    MonomialIdeal, collinear_initial_ideal, generic_initial_ideal,
    ideal_key, ideal_lines, is_borel_fixed,
)
from mvgb.polyring import Ring, parse_monomial

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
