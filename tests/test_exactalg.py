import hashlib
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvgb.cameras import CameraConfig, multiview_generators
from mvgb.exactalg import (
    EpsRational, Matrix, _pdiv_exact, det, eps, integer_row, inverse, kernel,
    primitive_row, rank,
)
from mvgb.groebner import ideal, normal_forms, reduced_groebner_basis
from mvgb.lp import feasible_point
from mvgb.polyring import (
    Ring, WeightOrder, canonical_string, format_polynomial, parse_polynomial,
)
from mvgb.toric import cayley_matrix, lattice_kernel_basis


def cofactor_det(rows):
    """Independent determinant oracle by first-column expansion; it needs
    only ring operations, so it also takes polynomial entries."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for i in range(n):
        if rows[i][0] == 0:
            continue
        minor = [r[1:] for k, r in enumerate(rows) if k != i]
        total += (-1) ** i * rows[i][0] * cofactor_det(minor)
    return total


def random_matrix(rng, n, m, lo=-9, hi=9):
    return Matrix([[Fraction(rng.randint(lo, hi)) for _ in range(m)]
                   for _ in range(n)])


def test_det_identity():
    assert det(Matrix.identity(2)) == 1


def test_det_repeated_rows():
    m = Matrix([[1, 2, 3], [4, 5, 6], [1, 2, 3]])
    assert det(m) == 0


def test_det_matches_cofactor_oracle():
    rng = random.Random(7)
    for n in (1, 2, 3, 4, 5):
        for _ in range(8):
            m = random_matrix(rng, n, n)
            assert det(m) == cofactor_det(m.rows)


def test_det_multilinear_and_alternating():
    rng = random.Random(11)
    for _ in range(10):
        m = random_matrix(rng, 4, 4)
        # swapping two rows flips the sign
        sw = [list(r) for r in m.rows]
        sw[1], sw[3] = sw[3], sw[1]
        assert det(Matrix(sw)) == -det(m)
        # scaling a row scales the determinant
        sc = [list(r) for r in m.rows]
        sc[2] = [5 * e for e in sc[2]]
        assert det(Matrix(sc)) == 5 * det(m)
        # additivity in one row
        u = [Fraction(rng.randint(-9, 9)) for _ in range(4)]
        add = [list(r) for r in m.rows]
        add[0] = [a + b for a, b in zip(add[0], u)]
        only = [list(r) for r in m.rows]
        only[0] = u
        assert det(Matrix(add)) == det(m) + det(Matrix(only))


def test_det_requires_square():
    with pytest.raises(ValueError):
        det(Matrix([[1, 2, 3], [4, 5, 6]]))


def test_det_rejects_polynomial_entries():
    # only Fractions and EpsRationals have a pivot to divide by
    ring = Ring(2)
    x1 = parse_polynomial(ring, "x1")
    with pytest.raises(TypeError):
        det(Matrix([[x1, Fraction(1)], [Fraction(2), x1]]))


def test_rank_zero_matrix():
    assert rank(Matrix([[0, 0], [0, 0], [0, 0]])) == 0


def test_rank_nullity():
    rng = random.Random(23)
    for _ in range(20):
        n, m = rng.randint(1, 5), rng.randint(1, 6)
        a = random_matrix(rng, n, m, -3, 3)
        ker = kernel(a)
        assert rank(a) + len(ker) == m
        for v in ker:
            for row in a.rows:
                assert sum(x * y for x, y in zip(row, v)) == 0


def test_kernel_invertible_is_empty():
    m = Matrix([[2, 0, 0], [1, 1, 0], [0, 3, 5]])
    assert kernel(m) == []


def test_inverse():
    rng = random.Random(5)
    while True:
        m = random_matrix(rng, 4, 4)
        if det(m) != 0:
            break
    assert m * inverse(m) == Matrix.identity(4)


def _as_fractions(rows):
    return Matrix([[Fraction(e) for e in r] for r in rows])


def test_int_entries_are_exact():
    # ints enter as Fractions, so no elimination step divides two ints
    assert rank(Matrix([[1, 10 ** 20], [1, 10 ** 20 + 1]])) == 2
    d = det(Matrix([[2, 0, 0], [0, 3, 0], [0, 0, 5]]))
    assert d == 30 and type(d) is Fraction
    singular = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    ker = kernel(Matrix(singular))
    assert ker == kernel(_as_fractions(singular))
    assert all(type(e) is Fraction for v in ker for e in v)
    square = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
    inv = inverse(Matrix(square))
    assert inv == inverse(_as_fractions(square))
    assert all(type(e) is Fraction for r in inv.rows for e in r)
    assert Matrix(square) * inv == Matrix.identity(3)


def test_det_sign_of_an_odd_number_of_row_swaps():
    # the first column's pivot sits in row 1: one swap, and no other
    rows = [[0, 2, 1], [3, 1, 0], [1, 0, 4]]
    assert det(Matrix(rows)) == -25 == cofactor_det(_as_fractions(rows).rows)
    assert det(Matrix([[0, 1], [1, 0]])) == -1


def test_eps_det_matches_cofactor_oracle():
    rng = random.Random(29)

    def entry():
        num = tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 3)))
        return EpsRational(num, rng.choice([1, 2, (1, 1), (0, 1)]))

    for n in (3, 4):
        for _ in range(6):
            m = Matrix([[entry() if rng.random() < 0.7 else Fraction(0)
                         for _ in range(n)] for _ in range(n)])
            d = det(m)
            assert d == cofactor_det(m.rows) and type(d) is EpsRational


def test_eps_normalization():
    a = EpsRational((0, 2), (0, 0, 4))  # 2e / 4e^2 = 1/(2e)
    assert a.num == (1,) and a.den == (0, 2)
    b = EpsRational((1,), (-1,))
    assert b.num == (-1,) and b.den == (1,)
    assert EpsRational(0, (3, 1)).num == ()


def test_eps_arithmetic_and_val():
    rng = random.Random(3)

    def rnd():
        while True:
            num = tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 4)))
            den = tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 4)))
            if any(num) and any(den):
                return EpsRational(num, den)

    for _ in range(40):
        a, b = rnd(), rnd()
        assert (a * b).val() == a.val() + b.val()
        # evaluation at a nonvanishing rational point commutes with arithmetic
        for x in (Fraction(1, 3), Fraction(2), Fraction(-1, 2)):
            try:
                ax, bx = a.evaluate(x), b.evaluate(x)
            except ZeroDivisionError:
                continue
            assert (a + b).evaluate(x) == ax + bx
            assert (a * b).evaluate(x) == ax * bx
            assert (a - b).evaluate(x) == ax - bx


def test_eps_evaluate_at_zero_strips_common_power():
    c = eps(2) / (eps(2) + eps(3))  # e^2/(e^2 + e^3) -> 1 at e=0
    assert c.evaluate(0) == 1
    assert (eps(1) * 3).evaluate(0) == 0
    with pytest.raises(ZeroDivisionError):
        (1 / eps(1)).evaluate(0)


def test_eps_interop_with_fraction():
    a = eps(1) + Fraction(1, 2)
    assert a == EpsRational((1, 2), 2)
    assert Fraction(1, 2) * eps(2) == EpsRational((0, 0, 1), 2)
    assert (a - a).is_zero
    assert 1 - eps(1) == EpsRational((1, -1))


def test_eps_matrix_kernel():
    # kernel computation works over the rational function field
    m = Matrix([[eps(1), EpsRational(1)], [eps(2), eps(1)]])
    ker = kernel(m)
    assert len(ker) == 1
    v = ker[0]
    for row in m.rows:
        s = row[0] * v[0] + row[1] * v[1]
        assert s == 0 or s.is_zero


def test_repeated_camera_rows_vanish():
    # rows 2,3 of the first two torus-fixed cameras repeat pairwise
    from mvgb.cameras import toric_cameras
    c = toric_cameras(4)
    rows = [c.matrices[0].rows[1], c.matrices[0].rows[2],
            c.matrices[1].rows[1], c.matrices[1].rows[2]]
    m = Matrix(rows)
    assert det(m) == 0
    assert det(m) == cofactor_det(m.rows)


def test_constant_hashes_as_the_fraction_it_equals():
    for q in (Fraction(1, 2), Fraction(-3, 7), Fraction(0), Fraction(5)):
        a = EpsRational(q)
        assert a == q and hash(a) == hash(q)
    assert len({EpsRational(1, 2), Fraction(1, 2)}) == 1
    assert hash(EpsRational((3,), (-6,))) == hash(Fraction(-1, 2))


def test_pdiv_exact_raises_on_inexact_division():
    assert _pdiv_exact((2, 5, 2), (1, 2)) == (2, 1)
    with pytest.raises(ValueError):
        _pdiv_exact((1, 1), (2, 2))  # quotient 1/2: exact over Q only
    with pytest.raises(ValueError):
        _pdiv_exact((1, 2), (2,))  # second quotient coefficient 1/2
    with pytest.raises(ValueError):
        _pdiv_exact((1, 0, 1), (0, 1))  # e^2 + 1 leaves remainder 1
    with pytest.raises(ValueError):
        _pdiv_exact((3, 2), (1, 2))  # quotient 1, remainder 2
    with pytest.raises(ValueError):
        _pdiv_exact((1,), (0, 1))
    with pytest.raises(ZeroDivisionError):
        _pdiv_exact((1,), ())


# ---------------------------------------------------------------------------
# reference normalization: Euclid over Fractions, independent of mvgb

def _ref_trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _ref_times(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _ref_plus(a, b):
    out = [0] * max(len(a), len(b))
    for c in (a, b):
        for i, x in enumerate(c):
            out[i] += x
    return out


def _ref_gcd(a, b):
    """Primitive gcd over Q scaled to Z[e], positive leading coefficient,
    times the gcd of the two contents."""
    ca, cb = gcd(*a), gcd(*b)
    fa = [Fraction(x, ca) for x in a]
    fb = [Fraction(x, cb) for x in b]
    while fb:
        while fa and len(fa) >= len(fb):
            coef = fa[-1] / fb[-1]
            shift = len(fa) - len(fb)
            for j, y in enumerate(fb):
                fa[shift + j] -= coef * y
            fa = _ref_trim(fa)
        fa, fb = fb, fa
    den = lcm(*(x.denominator for x in fa))
    ints = [int(x * den) for x in fa]
    g = gcd(*ints) * (1 if ints[-1] > 0 else -1)
    return [x // g * gcd(ca, cb) for x in ints]


def _ref_quotient(a, b):
    rem = [Fraction(x) for x in a]
    q = [Fraction(0)] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k] = rem[k + len(b) - 1] / b[-1]
        for j, y in enumerate(b):
            rem[k + j] -= q[k] * y
    assert not any(rem) and all(x.denominator == 1 for x in q)
    return [int(x) for x in q]


def _ref_lowest(num, den):
    n, d = _ref_trim(num), _ref_trim(den)
    if not n:
        return (), (1,)
    g = _ref_gcd(n, d)
    n, d = _ref_quotient(n, g), _ref_quotient(d, g)
    if d[-1] < 0:
        n, d = [-x for x in n], [-x for x in d]
    return tuple(n), tuple(d)


_coeffs = st.lists(st.integers(-30, 30), min_size=1, max_size=4)


@st.composite
def _num_den(draw):
    """Integer tuples with a common factor; the shape forces constant
    numerators and denominators and zero numerators to be drawn."""
    shape = draw(st.sampled_from(["general", "const_num", "const_den",
                                  "zero_num"]))
    f = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=3).filter(any))
    num = draw(_coeffs)
    den = draw(_coeffs.filter(any))
    if shape == "const_num":
        num, f = num[:1], f[:1] if f[0] else [1]
    elif shape == "const_den":
        den, f = [next(x for x in den if x)], f[:1] if f[0] else [-1]
    elif shape == "zero_num":
        num = [0] * len(num)
    return tuple(_ref_times(num, f)), tuple(_ref_times(den, f))


@settings(max_examples=400, deadline=None)
@given(_num_den(), _num_den())
@example(((0, 0), (3, -2)), ((4,), (0, -6)))
@example(((6, 9), (-3,)), ((2, 0, 2), (0, 0, -4)))
def test_normalization_matches_fraction_euclid(p, q):
    (n1, d1), (n2, d2) = p, q
    a, b = EpsRational(n1, d1), EpsRational(n2, d2)
    assert (a.num, a.den) == _ref_lowest(n1, d1)
    assert (b.num, b.den) == _ref_lowest(n2, d2)
    # the operators build from reduced tuples; compare with the reference
    # normalization of the unreduced cross products
    num1, den1, num2, den2 = a.num or (0,), a.den, b.num or (0,), b.den
    s = _ref_plus(_ref_times(num1, den2), _ref_times(num2, den1))
    assert ((a + b).num, (a + b).den) == _ref_lowest(s, _ref_times(den1, den2))
    assert ((a * b).num, (a * b).den) == _ref_lowest(
        _ref_times(num1, num2), _ref_times(den1, den2))
    if b:
        assert ((a / b).num, (a / b).den) == _ref_lowest(
            _ref_times(num1, den2), _ref_times(den1, num2))


_row_entries = st.one_of(
    st.just(0), st.integers(-50, 50),
    st.fractions(-50, 50, max_denominator=7),
    st.fractions(max_denominator=10 ** 30))


@settings(max_examples=300, deadline=None)
@given(st.lists(_row_entries, max_size=8))
@example([])
@example([0, 0, 0])
@example([Fraction(0), 0])
@example([Fraction(-4, 6), 0, 2, Fraction(10, 9)])
@example([Fraction(1, 10 ** 40 + 1), -Fraction(3, 10 ** 40 + 1)])
def test_integer_row_matches_fraction_oracle(values):
    ints, d = integer_row(values)
    assert d == lcm(*(Fraction(v).denominator for v in values))
    assert all(type(x) is int for x in ints)
    assert [Fraction(x) for x in ints] == [Fraction(v) * d for v in values]
    prim = primitive_row(ints)
    g = gcd(*ints)
    if g:
        assert gcd(*prim) == 1 and [x * g for x in prim] == ints
    else:
        assert prim == ints  # the zero row comes back as it is
    assert [(x > 0) - (x < 0) for x in prim] == [
        (v > 0) - (v < 0) for v in values]


def _rational_cameras(rng, n):
    """Camera matrices whose entries have denominators up to 7."""
    while True:
        mats = [[[Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                  for _ in range(4)] for _ in range(3)] for _ in range(n)]
        try:
            return CameraConfig(mats)
        except ValueError:
            continue


def test_rational_to_integer_sites_are_pinned():
    # digest of every place that turns a rational row into an integer row,
    # on non-integer input, as the code wrote it before those places shared
    # integer_row and primitive_row
    lines = []
    for n in (2, 3):
        config = _rational_cameras(random.Random(70 + n), n)
        gens = multiview_generators(config)
        lines += [canonical_string(p) for p in gens]
    ring = Ring(3)  # gens are the three-camera minors
    rng = random.Random(75)
    polys = [parse_polynomial(ring, s) for s in (
        "1/2*x1^2*y2 - 3/7*x2*z3 + 5/3", "-2/9*x1*y2*z3 + 4/5*y1^3",
        "7/4*z1*z2*z3 - 1/6*x3^2 + 11/8*y2")]
    polys += [gens[i] * Fraction(1, 2 + i) + gens[i + 1] * Fraction(-3, 5)
              for i in range(0, 12, 3)]
    for _ in range(3):
        weights = [Fraction(rng.randint(1, 30), rng.randint(1, 9))
                   for _ in range(ring.nvars)]
        order = WeightOrder(ring, weights)
        basis = reduced_groebner_basis(ideal(ring, gens), order)
        lines += [format_polynomial(p) for p in basis]
        lines += [format_polynomial(p)
                  for p in normal_forms(polys, basis, order)]
    for n in (3, 4):
        lines += [repr(v)
                  for v in lattice_kernel_basis(cayley_matrix(n).matrix)]
    for _ in range(40):
        dim = rng.randint(2, 4)
        rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                 for _ in range(dim)] for _ in range(rng.randint(1, 4))]
        cut = rng.randint(0, len(rows) - 1)
        lines.append(repr(feasible_point(rows[:cut], rows[cut:], dim)))
    for _ in range(40):
        num = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                    for _ in range(rng.randint(1, 3)))
        den = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                    for _ in range(rng.randint(1, 3)))
        if any(den):
            lines.append(repr(EpsRational(num, den)))
    text = "\n".join(lines)
    assert len(lines) == 165
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "459c7ffa5097d0e90882044f5765d756db54b4e9ba274cc96ccf66a842667d13")
