import hashlib
import itertools
import random
import warnings
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvgb.cameras import (
    CameraConfig, collinear_cameras, epipolar_form,
    extend_to_invertible, focal_points, fundamental_matrix,
    in_linearly_general_position, is_generic, minimal_multiview_generators,
    multiview_generators, multiview_ideal, multiview_ideal_via_elimination,
    projectively_equal, sigma_minor, toric_cameras,
)
from mvgb.exactalg import Matrix, det, eps, rank
from mvgb.groebner import (
    hilbert_value, ideal, ideal_equal, normal_form, reduced_groebner_basis,
)
from mvgb.polyring import Polynomial, Ring, format_polynomial, parse_polynomial
from test_exactalg import cofactor_det


def random_config(rng, n):
    while True:
        mats = [[[Fraction(rng.randint(-9, 9)) for _ in range(4)]
                 for _ in range(3)] for _ in range(n)]
        try:
            c = CameraConfig(mats)
        except ValueError:
            continue
        if is_generic(c)[0]:
            return c


def proportional(p, q):
    if p.is_zero or q.is_zero:
        return p.is_zero and q.is_zero
    m = next(iter(q.terms))
    if m not in p.terms:
        return False
    c = p.terms[m] / q.terms[m]
    return p == q * c


def test_rank3_required():
    with pytest.raises(ValueError):
        CameraConfig([[[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0]],
                      [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]])


def test_toric_focal_points_are_coordinate_points():
    c = toric_cameras(4)
    fps = focal_points(c)
    for i, fp in enumerate(fps):
        e = [Fraction(int(k == i)) for k in range(4)]
        assert projectively_equal(fp.coords, e)
    for m in c.matrices:
        assert rank(m) == 3


def test_collinear_focal_points():
    n = 4
    c = collinear_cameras(n)
    for i, fp in enumerate(focal_points(c), start=1):
        expected = (-1, 1, 1, eps(n - i))
        assert projectively_equal(fp.coords, expected)
    # all focal points lie on one line: difference vectors are parallel
    coords = [fp.coords for fp in focal_points(c)]
    for a, b, c3 in itertools.combinations(coords, 3):
        diff1 = [x - y for x, y in zip(a, b)]
        diff2 = [x - y for x, y in zip(a, c3)]
        assert rank(Matrix([diff1, diff2])) <= 1


def test_collinear_rejects_zero():
    with pytest.raises(ValueError):
        collinear_cameras(3, 0)


def test_focal_point_invariant_under_image_transform():
    rng = random.Random(3)
    c = random_config(rng, 2)
    g = Matrix([[Fraction(1), Fraction(2), Fraction(0)],
                [Fraction(0), Fraction(1), Fraction(1)],
                [Fraction(1), Fraction(0), Fraction(1)]])
    assert det(g) != 0
    c2 = CameraConfig([g * c.matrices[0], c.matrices[1]])
    f1, f2 = focal_points(c), focal_points(c2)
    for a, b in zip(f1, f2):
        assert projectively_equal(a.coords, b.coords)


def test_is_generic():
    rng = random.Random(17)
    c = random_config(rng, 3)
    assert is_generic(c)[0]
    ok, witness = is_generic(toric_cameras(4))
    assert not ok
    cols = witness
    rows = [toric_cameras(4).matrices[g // 3].rows[g % 3] for g in cols]
    assert det(Matrix(rows)) == 0
    # two cameras with equal rowspace are never generic
    g = Matrix([[Fraction(2), Fraction(1), Fraction(0)],
                [Fraction(0), Fraction(1), Fraction(0)],
                [Fraction(1), Fraction(0), Fraction(1)]])
    c2 = CameraConfig([c.matrices[0], g * c.matrices[0]])
    assert not is_generic(c2)[0]


def rational_config(rng, n):
    """A configuration whose entries have denominators up to 7."""
    while True:
        mats = [[[Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                  for _ in range(4)] for _ in range(3)] for _ in range(n)]
        try:
            return CameraConfig(mats)
        except ValueError:
            continue


def stacked_camera_rows(config, sigma):
    """The 3s x (s+4) block matrix of polynomials whose maximal minors
    sigma_minor expands: camera rows, then one variable column per camera
    of sigma."""
    ring = config.ring()
    rows = []
    for b, cam in enumerate(sigma):
        for r, letter in enumerate(ring.letters):
            rows.append(
                [Polynomial.constant(ring, e)
                 for e in config.matrices[cam - 1].rows[r]]
                + [Polynomial.variable(ring, letter, cam) if bb == b
                   else Polynomial.zero(ring) for bb in range(len(sigma))])
    return rows


def test_sigma_minor_matches_determinant_oracle():
    # integer, non-integer rational, Q(e), and Q(e) with non-integer rows
    rng = random.Random(11)
    configs = [random_config(rng, 3), rational_config(rng, 3),
               collinear_cameras(3),
               CameraConfig([m * Fraction(k) for m, k in zip(
                   collinear_cameras(3).matrices, [Fraction(1, 2), 3, 1])])]
    for c in configs:
        for sigma in [(1, 2), (2, 3), (1, 2, 3)]:
            s = len(sigma)
            A = stacked_camera_rows(c, sigma)
            subsets = list(itertools.combinations(range(3 * s), s + 4))
            rng.shuffle(subsets)
            for rows in subsets[:6]:
                oracle = cofactor_det([A[r] for r in rows])
                assert sigma_minor(c, sigma, rows) == oracle


BRACKET_CONFIGS = {
    "integer": random_config(random.Random(13), 3),
    "rational": rational_config(random.Random(13), 3),
    "eps": collinear_cameras(3),
    "eps_at_2/3": collinear_cameras(3, Fraction(2, 3)),
    "eps_rational": CameraConfig([m * Fraction(k) for m, k in zip(
        collinear_cameras(3).matrices, [Fraction(1, 2), Fraction(-3, 5), 4])]),
}
global_rows = st.one_of(
    st.permutations(range(9)).map(lambda p: p[:4]),
    st.lists(st.integers(0, 8), min_size=4, max_size=4))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(BRACKET_CONFIGS)), global_rows)
def test_bracket_matches_determinant_oracle(name, rows):
    # rows in any order, repeats allowed, and again with the first two
    # swapped; the field of the value (Fraction or EpsRational) must be
    # det's too, since the text format shows it
    c = BRACKET_CONFIGS[name]
    rows = [(g // 3, g % 3) for g in rows]
    for order in (rows, rows[1::-1] + rows[2:]):
        got = c.bracket(tuple(order))
        oracle = det(Matrix([c.matrices[cam].rows[r] for cam, r in order]))
        assert got == oracle
        assert type(got) is type(oracle)


def test_bracket_rejects_bad_rows():
    c = BRACKET_CONFIGS["integer"]
    for rows in [((0, 0), (1, 0), (2, 0)), ((0, 0), (1, 0), (2, 0), (3, 0)),
                 ((0, 0), (1, 0), (2, 0), (0, 3)),
                 ((0, 0), (1, 0), (2, 0), (-1, 0))]:
        with pytest.raises(ValueError):
            c.bracket(rows)


def test_sigma_minor_rejects_bad_cameras():
    c = BRACKET_CONFIGS["integer"]
    for sigma in [(1, 4), (-1, 2), (0, 1), (1, 1), (2,), (1, 2, 3, 4)]:
        with pytest.raises(ValueError):
            sigma_minor(c, sigma, tuple(range(len(sigma) + 4)))
    for rows in [(0, 1, 2, 3, 4), (0, 1, 2, 3, 4, 6), (0, 0, 1, 2, 3, 4),
                 (-1, 0, 1, 2, 3, 4)]:
        with pytest.raises(ValueError):
            sigma_minor(c, (1, 2), rows)


def test_minors_are_pinned():
    # digest of the minors as the Bareiss bracket code wrote them
    configs = [random_config(random.Random(60 + n), n) for n in (2, 3, 4)]
    configs += [collinear_cameras(3), collinear_cameras(4), toric_cameras(4)]
    lines = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for c in configs:
            lines += [format_polynomial(p) for p in multiview_generators(c)]
            lines += [format_polynomial(p)
                      for p in minimal_multiview_generators(c)]
    assert len(lines) == 1820
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "7e9fc4651d6dd9d4a4c8572149631350698d7a259a3218666227af1e310b9ef2")


def test_minor_counts_and_leading_monomials():
    rng = random.Random(2)
    c = random_config(rng, 3)
    gens = multiview_generators(c)
    assert len(gens) == comb(3, 2) + comb(3, 3) * comb(9, 7)
    from mvgb.monomial import generic_initial_ideal
    from mvgb.polyring import block_order
    o = block_order(c.ring())
    lms = {g.leading_term(o)[1] for g in gens}
    for m in generic_initial_ideal(3).gens:
        assert m in lms


def test_pair_minor_leading_term_is_x_i_x_j():
    rng = random.Random(4)
    c = random_config(rng, 2)
    from mvgb.polyring import block_order, parse_monomial
    p = sigma_minor(c, (1, 2), tuple(range(6)))
    _, lm = p.leading_term(block_order(c.ring()))
    assert lm == parse_monomial(c.ring(), "x1*x2")


def test_collinear_pair_minor_formula():
    n = 4
    c = collinear_cameras(n)
    ring = c.ring()
    for i, j in itertools.combinations(range(1, n + 1), 2):
        p = sigma_minor(c, (i, j), tuple(range(6)))
        quad = parse_polynomial(ring, "x%d*y%d - x%d*y%d" % (i, j, j, i))
        assert p == quad * (eps(n - j) - eps(n - i))


def test_toric_three_camera_ideal():
    c = toric_cameras(3)
    ring = Ring(3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        gens = multiview_generators(c)
    expected = [parse_polynomial(ring, s) for s in (
        "z1*y3 - x1*z3", "z2*x3 - x2*z3", "z1*y2 - y1*z2",
        "x1*y2*x3 - y1*x2*y3")]
    assert ideal_equal(ideal(ring, gens), ideal(ring, expected))


def test_fundamental_matrix_rank_and_toric_pair():
    rng = random.Random(19)
    for _ in range(10):
        c = random_config(rng, 2)
        assert rank(fundamental_matrix(c, 1, 2)) <= 2
    tor = toric_cameras(4)
    F = fundamental_matrix(tor, 1, 2)
    assert F.rows[0][0] == 0
    assert rank(F) <= 2
    ring = Ring(4)
    form = epipolar_form(tor, 1, 2)
    assert proportional(form, parse_polynomial(ring, "z1*y2 - y1*z2"))


def test_epipolar_form_proportional_to_pair_minor():
    rng = random.Random(23)
    for _ in range(5):
        c = random_config(rng, 2)
        assert proportional(epipolar_form(c, 1, 2),
                            sigma_minor(c, (1, 2), tuple(range(6))))


def test_minors_reduce_to_zero_mod_basis():
    rng = random.Random(29)
    for n in (2, 3):
        c = random_config(rng, n)
        I = multiview_ideal(c)
        gb = reduced_groebner_basis(I)
        for g in multiview_generators(c):
            assert normal_form(g, gb).is_zero


def test_ideal_invariance_under_rescaling_and_world_transform():
    rng = random.Random(31)
    c = random_config(rng, 3)
    I = multiview_ideal(c)
    scaled = CameraConfig([m * k for m, k in zip(
        c.matrices, [Fraction(2), Fraction(-3), Fraction(5, 7)])])
    assert reduced_groebner_basis(I) == \
        reduced_groebner_basis(multiview_ideal(scaled))
    q = Matrix([[Fraction(x) for x in row] for row in
                [[1, 0, 2, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 3, 0, 1]]])
    assert det(q) != 0
    moved = CameraConfig([m * q for m in c.matrices])
    assert reduced_groebner_basis(I) == \
        reduced_groebner_basis(multiview_ideal(moved))


def test_distinct_configs_have_distinct_ideals():
    rng = random.Random(37)
    a = random_config(rng, 3)
    b = random_config(rng, 3)
    assert reduced_groebner_basis(multiview_ideal(a)) != \
        reduced_groebner_basis(multiview_ideal(b))


def test_linearly_general_position():
    rng = random.Random(41)
    assert in_linearly_general_position(random_config(rng, 4))
    assert not in_linearly_general_position(collinear_cameras(3, Fraction(2)))


def test_extend_to_invertible_toric_gives_permutations():
    c = toric_cameras(4)
    bs = extend_to_invertible(c)
    for i, b in enumerate(bs):
        assert b.rows[0] == [Fraction(int(k == i)) for k in range(4)]
        assert det(b) != 0


def test_elimination_route_matches_minors():
    rng = random.Random(43)
    c = random_config(rng, 2)
    ja = multiview_ideal_via_elimination(c)
    assert hilbert_value(ja, (1, 1)) == 8
    assert ideal_equal(ja, multiview_ideal(c))


def test_configuration_holds_its_ring():
    c = random_config(random.Random(5), 3)
    assert c.ring() is c.ring() and c.ring() == Ring(3)
    assert sigma_minor(c, (1, 2), tuple(range(6))).ring is c.ring()
    assert all(p.ring is c.ring() for p in minimal_multiview_generators(c))


def test_elimination_route_is_pinned():
    # criterion 4's configurations: the eliminated generators and the value
    # at (1, 1), recorded when the world coordinates were a leading w block
    # under w1 > ... > wn > x1 > ... > zn; the aux variables under
    # t1 > ... > tn > x1 > ... > zn rank every monomial the same way
    c = random_config(random.Random(404), 2)
    g = Matrix([[Fraction(1), Fraction(2), Fraction(0)],
                [Fraction(0), Fraction(1), Fraction(1)],
                [Fraction(1), Fraction(0), Fraction(1)]])
    bad = CameraConfig([c.matrices[0], g * c.matrices[0]])
    lines = []
    for cfg in (c, bad):
        I = multiview_ideal_via_elimination(cfg)
        assert I.ring == Ring(2)
        lines += [format_polynomial(p) for p in I.generators]
        lines.append(str(hilbert_value(I, (1, 1))))
    assert len(lines) == 6 and lines[-1] == "6"
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "773fa4e162343782369a269bacf8f94ae17946a10050e4ac098d63cfe45b97a1")


def test_coincident_focal_points_drop_hilbert_value():
    rng = random.Random(47)
    c = random_config(rng, 2)
    g = Matrix([[Fraction(1), Fraction(2), Fraction(0)],
                [Fraction(0), Fraction(1), Fraction(1)],
                [Fraction(1), Fraction(0), Fraction(1)]])
    bad = CameraConfig([c.matrices[0], g * c.matrices[0]])
    assert hilbert_value(multiview_ideal_via_elimination(bad), (1, 1)) <= 6


def test_warns_on_coincident_focal_points():
    rng = random.Random(53)
    c = random_config(rng, 2)
    g = Matrix([[Fraction(1), Fraction(1), Fraction(0)],
                [Fraction(0), Fraction(1), Fraction(0)],
                [Fraction(0), Fraction(0), Fraction(1)]])
    bad = CameraConfig([c.matrices[0], g * c.matrices[0]])
    with pytest.warns(RuntimeWarning):
        multiview_generators(bad)


def test_generic_fundamental_matrix_attains_rank_two():
    rng = random.Random(59)
    c = random_config(rng, 2)
    assert rank(fundamental_matrix(c, 1, 2)) == 2


def bracket_fundamental_matrix(config, i, j):
    """The classical F of views i and j: entry (a, b) is the bracket of the
    two rows of camera i other than b and the two of camera j other than a,
    signed by (-1)^(a+b)."""
    a, b = i - 1, j - 1

    def br(r1, r2, s1, s2):
        return config.bracket(((a, r1), (a, r2), (b, s1), (b, s2)))

    return Matrix([
        [br(1, 2, 1, 2), -br(0, 2, 1, 2), br(0, 1, 1, 2)],
        [-br(1, 2, 0, 2), br(0, 2, 0, 2), -br(0, 1, 0, 2)],
        [br(1, 2, 0, 1), -br(0, 2, 0, 1), br(0, 1, 0, 1)],
    ])


def coincident_config(rng, n):
    """A random configuration whose camera k >= 2 is g A_1, g invertible."""
    c = random_config(rng, n)
    while True:
        g = Matrix([[Fraction(rng.randint(-3, 3)) for _ in range(3)]
                    for _ in range(3)])
        if det(g):
            mats = list(c.matrices)
            mats[rng.randrange(1, n)] = g * mats[0]
            return CameraConfig(mats)


def test_fundamental_matrix_is_the_bracket_matrix():
    rng = random.Random(71)
    rational = CameraConfig([[[Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                               for _ in range(4)] for _ in range(3)]
                             for _ in range(3)])
    configs = [random_config(rng, 3), rational, collinear_cameras(3),
               collinear_cameras(4), collinear_cameras(3, Fraction(2, 3)),
               toric_cameras(4), coincident_config(rng, 2),
               coincident_config(rng, 3)]
    checked = 0
    for c in configs:
        ring = c.ring()
        for i, j in itertools.permutations(range(1, c.n + 1), 2):
            F = fundamental_matrix(c, i, j)
            assert F == bracket_fundamental_matrix(c, i, j)
            form = epipolar_form(c, i, j)
            assert form == epipolar_form(c, j, i)
            var, L = Polynomial.variable, ring.letters
            assert form == sum(
                (Polynomial.constant(ring, F.rows[a][b])
                 * var(ring, L[a], j) * var(ring, L[b], i)
                 for a, b in itertools.product(range(3), repeat=2)),
                Polynomial.zero(ring))
            checked += 1
    assert checked == 56


def test_warns_exactly_when_focal_points_coincide():
    rng = random.Random(73)
    configs = [coincident_config(rng, n) if k % 2 else random_config(rng, n)
               for k, n in enumerate([2, 3] * 12)]
    shared = CameraConfig([g * configs[0].matrices[0] for g in (
        Matrix([[Fraction(int(r == s)) for s in range(3)] for r in range(3)]),
        Matrix([[Fraction(1), Fraction(2), Fraction(0)],
                [Fraction(0), Fraction(1), Fraction(0)],
                [Fraction(0), Fraction(0), Fraction(3)]]),
        Matrix([[Fraction(0), Fraction(1), Fraction(0)],
                [Fraction(1), Fraction(0), Fraction(0)],
                [Fraction(0), Fraction(0), Fraction(1)]]))])
    coincident = 0
    for c in configs + [shared]:
        expected = any(projectively_equal(p.coords, q.coords)
                       for p, q in itertools.combinations(focal_points(c), 2))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            multiview_generators(c)
        assert [(w.category, str(w.message)) for w in caught] == [
            (RuntimeWarning, "focal points are not pairwise distinct")
        ] * expected
        coincident += expected
    assert coincident == 13
