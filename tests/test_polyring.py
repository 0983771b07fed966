from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvgb.degeneration import collinear_family_generators
from mvgb.exactalg import EpsRational, eps
from mvgb.groebner import ideal, reduced_groebner_basis
from mvgb.polyring import (
    GrevlexOrder, LexOrder, MatrixOrder, Polynomial, Ring, WeightLexOrder,
    WeightOrder, canonical_string, format_polynomial, m_from_pairs, m_mul,
    m_one, block_order, parse_monomial, parse_polynomial,
)

R3 = Ring(3)


def mono(ring, text):
    return parse_monomial(ring, text)


@st.composite
def monomials(draw, ring=R3, max_exp=3):
    pairs = draw(st.lists(
        st.tuples(st.integers(0, ring.nvars - 1), st.integers(1, max_exp)),
        max_size=5))
    return m_from_pairs(pairs)


def test_multidegree_examples():
    r2 = Ring(2)
    assert r2.multidegree(mono(r2, "x1*y2")) == (1, 1)
    r4 = Ring(4)
    assert r4.multidegree(mono(r4, "y1*y2*y3*y4")) == (1, 1, 1, 1)
    assert R3.multidegree(mono(R3, "x1^2*z1*y3")) == (3, 0, 1)


def test_paper_lex_block_order():
    r2 = Ring(2)
    o = block_order(r2)
    assert o.compare(mono(r2, "x1*x2"), mono(r2, "y1*y2")) == 1
    m = mono(r2, "x1*y2")
    assert o.compare(m, m) == 0


def test_weight_then_lex_tiebreak():
    weights = [0] * R3.nvars
    weights[R3.var("x", 1)] = 1
    o = WeightOrder(R3, weights)
    assert o.compare(mono(R3, "x1^2"), mono(R3, "x1*y1")) == 1
    # equal weight, broken by the declared lex order
    assert o.compare(mono(R3, "x1*y1"), mono(R3, "x1*z1")) == 1


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
weight_rows = st.lists(rationals, min_size=R3.nvars, max_size=R3.nvars)
BLOCK = tuple(range(R3.nvars))


def sign(x):
    return (x > 0) - (x < 0)


def exponents(m):
    e = dict(m)
    return [e.get(v, 0) for v in range(R3.nvars)]


def lex_compare(perm, a, b):
    """The first differing exponent along perm decides; larger wins."""
    ea, eb = exponents(a), exponents(b)
    return next((sign(ea[v] - eb[v]) for v in perm if ea[v] != eb[v]), 0)


def grevlex_compare(perm, a, b):
    """Degree first, then the last differing exponent along perm decides;
    smaller wins."""
    ea, eb = exponents(a), exponents(b)
    if sum(ea) != sum(eb):
        return sign(sum(ea) - sum(eb))
    return next((sign(eb[v] - ea[v]) for v in reversed(perm)
                 if ea[v] != eb[v]), 0)


def rational_compare(rows, a, b, perm=BLOCK):
    """The order of rational weight rows then lex along perm, summed in
    Fraction."""
    for row in rows:
        wa = sum(row[v] * e for v, e in a)
        wb = sum(row[v] * e for v, e in b)
        if wa != wb:
            return 1 if wa > wb else -1
    return lex_compare(perm, a, b)


@settings(max_examples=60)
@given(st.lists(weight_rows, min_size=1, max_size=3),
       st.fractions(min_value=Fraction(1, 7), max_value=9, max_denominator=7),
       st.lists(monomials(), min_size=2, max_size=6))
def test_integer_weight_keys_keep_rational_order(rows, scale, monos):
    scaled = [[w * scale for w in row] for row in rows]
    orders = [WeightOrder(R3, rows[0]), WeightOrder(R3, scaled[0]),
              MatrixOrder(R3, rows), MatrixOrder(R3, scaled)]
    for o in orders:
        head = o.key(monos[0])[:-R3.nvars]  # the lex tiebreak fills the tail
        assert head and all(type(k) is int for k in head)
    for a in monos:
        for b in monos:
            assert orders[0].compare(a, b) == orders[1].compare(a, b) \
                == rational_compare(rows[:1], a, b)
            assert orders[2].compare(a, b) == orders[3].compare(a, b) \
                == rational_compare(rows, a, b)


@settings(max_examples=80)
@given(st.permutations(BLOCK), st.lists(weight_rows, min_size=1, max_size=3),
       st.lists(st.integers(0, 1), min_size=R3.nvars, max_size=R3.nvars),
       st.lists(monomials(max_exp=2), min_size=2, max_size=6))
def test_orders_compare_by_their_definitions(perm, rows, coarse, monos):
    # a 0/1 row ties often, so the rows and the lex after it get their say
    w, v = coarse, rows[0]
    rows = [coarse] + rows[1:]
    cases = [
        (LexOrder(R3, perm), lambda a, b: lex_compare(perm, a, b)),
        (WeightOrder(R3, w), lambda a, b: rational_compare([w], a, b)),
        (WeightOrder(R3, w, LexOrder(R3, perm)),
         lambda a, b: rational_compare([w], a, b, perm)),
        (WeightOrder(R3, w, WeightOrder(R3, v, LexOrder(R3, perm))),
         lambda a, b: rational_compare([w, v], a, b, perm)),
        (MatrixOrder(R3, rows), lambda a, b: rational_compare(rows, a, b)),
        (MatrixOrder(R3, rows, LexOrder(R3, perm)),
         lambda a, b: rational_compare(rows, a, b, perm)),
        (GrevlexOrder(R3, perm), lambda a, b: grevlex_compare(perm, a, b)),
    ]
    # products of the drawn monomials tie under the weights more often
    monos += [m_mul(a, b) for a, b in zip(monos, monos[1:])]
    for order, expected in cases:
        for a in monos:
            for b in monos:
                assert order.compare(a, b) == expected(a, b)


def test_weight_and_matrix_orders_are_one_class():
    w = [3, 1, 4, 1, 5, 9, 2, 6, 5]
    orders = [LexOrder(R3), WeightOrder(R3, w), MatrixOrder(R3, [w]),
              WeightOrder(R3, w, WeightOrder(R3, [1] * 9))]
    assert all(type(o) is WeightLexOrder for o in orders)
    assert WeightOrder(R3, w).signature == MatrixOrder(R3, [w]).signature
    assert orders[3].signature == MatrixOrder(R3, [w, [1] * 9]).signature
    assert LexOrder(R3).signature == block_order(R3).signature == ((), BLOCK)
    assert WeightOrder(R3, w).signature != LexOrder(R3).signature


@pytest.mark.parametrize("build", [
    lambda: WeightOrder(R3, [1] * 8),
    lambda: MatrixOrder(R3, [[1] * 9, [1] * 10]),
    lambda: MatrixOrder(R3, [[]]),
    lambda: LexOrder(R3, range(8)),
    lambda: LexOrder(R3, [0] * 9),
    lambda: LexOrder(R3, range(1, 10)),
    lambda: WeightOrder(R3, [1] * 9, LexOrder(R3, [1, 0])),
])
def test_malformed_orders_raise(build):
    with pytest.raises(ValueError):
        build()


@settings(max_examples=60)
@given(st.permutations(BLOCK),
       st.lists(st.integers(0, 1), min_size=R3.nvars, max_size=R3.nvars),
       st.lists(monomials(max_exp=2), min_size=2, max_size=6))
def test_weight_order_with_grevlex_tiebreak(perm, w, monos):
    # grevlex is weight rows over lex, so it refines a weight order too
    order = WeightOrder(R3, w, GrevlexOrder(R3, perm))
    monos += [m_mul(a, b) for a, b in zip(monos, monos[1:])]
    for a in monos:
        for b in monos:
            wa, wb = (sum(w[v] * e for v, e in m) for m in (a, b))
            assert order.compare(a, b) == (
                sign(wa - wb) or grevlex_compare(perm, a, b))


@settings(max_examples=200)
@given(monomials(), monomials(), monomials())
def test_order_is_total_and_multiplicative(a, b, c):
    o = block_order(R3)
    ka, kb = o.key(a), o.key(b)
    assert (ka == kb) == (a == b)
    if ka < kb:
        assert o.key(m_mul(a, c)) < o.key(m_mul(b, c))
    # 1 is minimal among monomials
    assert o.key(m_one) <= ka


@settings(max_examples=60)
@given(monomials(max_exp=2), monomials(max_exp=2))
def test_multidegree_additive(a, b):
    da = R3.multidegree(a)
    db = R3.multidegree(b)
    assert R3.multidegree(m_mul(a, b)) == tuple(x + y for x, y in zip(da, db))


def test_ring_arithmetic_axioms():
    p = parse_polynomial(R3, "x1*y2 - x2*y1")
    q = parse_polynomial(R3, "z1*y3 + 2*x3")
    r = parse_polynomial(R3, "x1 - 1/2*z3")
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p * q == q * p
    assert p - p == Polynomial(R3)


def test_homogeneous_product_multidegree():
    p = parse_polynomial(R3, "x1*y2 - x2*y1")
    q = parse_polynomial(R3, "x3*z1 - z3*x1")
    assert p.multidegree() == (1, 1, 0)
    assert (p * q).multidegree() == (2, 1, 1)


def test_leading_term_examples():
    o = block_order(R3)
    # single term polynomial is its own leading term
    p = parse_polynomial(R3, "3*x2*z3")
    assert p.leading_term(o) == (Fraction(3), mono(R3, "x2*z3"))
    # y block precedes z block
    q = parse_polynomial(R3, "z1*y2 - y1*z2")
    assert q.leading_term(o) == (Fraction(-1), mono(R3, "y1*z2"))
    with pytest.raises(ValueError):
        Polynomial(R3).leading_term(o)


def test_w_is_not_a_letter():
    assert Ring.letters == ("x", "y", "z")
    r = Ring(2, aux=1)
    assert r.nvars == 7 and r.name(6) == "t1"
    with pytest.raises(ValueError):
        r.multidegree(m_from_pairs([(6, 1)]))
    for call in (lambda: R3.var("w", 1),
                 lambda: parse_polynomial(R3, "w1*x2 - x1"),
                 lambda: parse_monomial(R3, "w1")):
        with pytest.raises(ValueError):
            call()


@settings(max_examples=100)
@given(st.lists(st.tuples(monomials(max_exp=4),
                          st.fractions(min_value=-5, max_value=5)),
                min_size=1, max_size=6))
def test_text_roundtrip(items):
    p = Polynomial(R3, {})
    for m, c in items:
        p = p + Polynomial.monomial(R3, m, c)
    s = format_polynomial(p)
    assert parse_polynomial(R3, s) == p


eps_polys = st.lists(st.integers(-4, 4), min_size=1, max_size=3).map(tuple)
eps_coefficients = st.one_of(
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
    st.builds(EpsRational, eps_polys,
              eps_polys.filter(lambda d: any(d))))


@settings(max_examples=150)
@given(st.lists(st.tuples(monomials(max_exp=3), eps_coefficients),
                min_size=1, max_size=5))
def test_text_roundtrip_over_eps(items):
    p = Polynomial(R3, {})
    for m, c in items:
        p = p + Polynomial.monomial(R3, m, c)
    s = format_polynomial(p)
    q = parse_polynomial(R3, s)
    assert q == p
    assert format_polynomial(q) == s
    # the domain survives unless each Q(e) coefficient is a bare 1 or -1
    if any(isinstance(c, EpsRational) and (m == m_one or c not in (1, -1))
           for m, c in p.terms.items()):
        assert q.domain() == "Q(e)"


def test_rational_eps_coefficients_keep_their_domain():
    p = Polynomial(R3, {mono(R3, "x1"): EpsRational(2),
                        mono(R3, "y1"): EpsRational(3)})
    s = format_polynomial(p)
    assert s == "(2)*x1 + (3)*y1"
    q = parse_polynomial(R3, s)
    assert q.domain() == "Q(e)"
    assert canonical_string(q) == canonical_string(p) == "x1 + (3/2)*y1"
    unit = Polynomial(R3, {mono(R3, "x1"): EpsRational(1),
                           mono(R3, "y1"): EpsRational(-1)})
    assert format_polynomial(unit) == "x1 - y1"
    assert parse_polynomial(R3, "x1 - y1").domain() == "Q"


def test_eps_basis_text_roundtrip():
    ring = Ring(3)
    gb = reduced_groebner_basis(
        ideal(ring, collinear_family_generators(3)))
    for g in gb:
        assert parse_polynomial(ring, format_polynomial(g)) == g
    p = parse_polynomial(
        ring, "x1*x2*z3 + ((-e - 1)/(e))*x1*x3*z2 + (1/(e))*x2*x3*z1")
    assert p.terms[mono(ring, "x1*x3*z2")] == (-eps(1) - 1) / eps(1)
    assert parse_polynomial(ring, "(e^2 - e)*x2*y1*z3 + 2*e^3*x1 - e") == \
        Polynomial(ring, {mono(ring, "x2*y1*z3"): eps(2) - eps(1),
                          mono(ring, "x1"): 2 * eps(3), m_one: -eps(1)})
    assert parse_polynomial(ring, "1/(e)*x1") == \
        Polynomial.monomial(ring, mono(ring, "x1"), eps(-1))
    assert parse_polynomial(ring, "(" * 50 + "e" + ")" * 50 + "*x1") == \
        Polynomial.monomial(ring, mono(ring, "x1"), eps(1))


@pytest.mark.parametrize("text", [
    "(e*x1", "(e))*x1", "e^x1", "((e)*x1", "x1^2e", "(e +)*x1", "x1**x2",
    "x1 +", "2e*x1", "(e + 1)^2*x1", "e^1001*x1", "2^3*x1",
    "(" * 51 + "e" + ")" * 51 + "*x1", "(" * 5000 + "e" + ")" * 5000])
def test_parse_rejects_malformed_eps_text(text):
    with pytest.raises(ValueError):
        parse_polynomial(R3, text)


@pytest.mark.parametrize("text", ["(x1)*y2", "1/x1", "x1/(e)", "x4"])
def test_parse_rejects_variables_out_of_place(text):
    # in parentheses, as a divisor, under a Q(e) divisor, or beyond Ring(3)
    for parse in (parse_polynomial, parse_monomial):
        with pytest.raises(ValueError):
            parse(R3, text)


@pytest.mark.parametrize("text, terms", [
    ("(1)*x1", {"x1": EpsRational(1)}),
    ("x1^007", {"x1^7": Fraction(1)}),
    ("+ x1", {"x1": Fraction(1)}),
    ("1/2*3", {"1": Fraction(3, 2)}),
    ("x1/2", {"x1": Fraction(1, 2)}),
    ("2*x1*y2/3/4", {"x1*y2": Fraction(1, 6)}),
    ("(-2)*x1 + e*x2", {"x1": EpsRational(-2), "x2": eps(1)}),
])
def test_parse_edge_forms(text, terms):
    # a parenthesized group reads over Q(e) even when its value is rational;
    # the divisors after a variable are numbers that divide the whole term
    p = parse_polynomial(R3, text)
    expected = {mono(R3, m): c for m, c in terms.items()}
    assert p.terms == expected
    assert {m: type(c) for m, c in p.terms.items()} == \
        {m: type(c) for m, c in expected.items()}
    if text == "(-2)*x1 + e*x2":
        assert format_polynomial(p) == text


def test_parse_eps_zero_divisor_raises_as_over_q():
    for text in ("1/(e - e)*x1", "1/0*x1"):
        with pytest.raises(ZeroDivisionError):
            parse_polynomial(R3, text)


@pytest.mark.parametrize("text", ["2*x1", "-x1", "x1 + y1", "(e)*x1", "q3",
                                  "x1*q3", "1/2", "0"])
def test_parse_monomial_rejects_non_monomials(text):
    with pytest.raises(ValueError):
        parse_monomial(R3, text)


def test_parse_monomial_examples():
    assert parse_monomial(R3, "1") == parse_monomial(R3, "") == m_one
    assert parse_monomial(R3, " x1 * y2^2 ") == ((0, 1), (4, 2))
    assert parse_monomial(R3, "x1*x1^2*z3^0") == ((0, 3),)


def test_parse_specific():
    p = parse_polynomial(R3, "x1*y2 - x2*y1")
    assert p.terms == {mono(R3, "x1*y2"): Fraction(1),
                       mono(R3, "y1*x2"): Fraction(-1)}
    assert parse_polynomial(R3, "2/3*x1^2 + 1") == \
        Polynomial(R3, {mono(R3, "x1^2"): Fraction(2, 3), m_one: Fraction(1)})


def test_canonical_string_normalizes_sign_and_content():
    p = parse_polynomial(R3, "-2/3*x1*y2 + 2*x2*y1")
    assert canonical_string(p) == "x1*y2 - 3*x2*y1"
    # over Q(e) the form is monic, not primitive
    q = Polynomial(R3, {mono(R3, "x1*y2"): 2 * eps(1),
                        mono(R3, "x2*y1"): -4 * eps(2),
                        mono(R3, "z1*z2"): 6})
    assert canonical_string(q) == \
        "x1*y2 + (-2*e)*x2*y1 + (3/(e))*z1*z2"
    # unit Q(e) coefficients print as over Q, without a "1*"
    r = Polynomial(R3, {mono(R3, "x1*y2"): eps(1),
                        mono(R3, "x2*y1"): -eps(1)})
    assert canonical_string(r) == "x1*y2 - x2*y1"
    assert format_polynomial(r * eps(-1)) == "x1*y2 - x2*y1"


def test_eps_coefficients():
    p = Polynomial.monomial(R3, mono(R3, "x1*y2"), eps(1)) \
        - Polynomial.monomial(R3, mono(R3, "x2*y1"), eps(2))
    assert p.domain() == "Q(e)"
    lc, lm = p.leading_term(block_order(R3))
    assert lm == mono(R3, "x1*y2") and lc == eps(1)
    q = p * eps(-1)
    assert q.coefficient(mono(R3, "x2*y1")) == -eps(1)


def test_mixed_ring_rejected():
    r2 = Ring(2)
    with pytest.raises(ValueError):
        parse_polynomial(R3, "x1") * parse_polynomial(r2, "x1")


def test_in_ring_rejects_variables_the_ring_lacks():
    aux = Polynomial.monomial(Ring(2, aux=1), ((6, 1),))
    with pytest.raises(ValueError, match=r"Ring\(2\) lacks the variable t1"):
        aux.in_ring(Ring(2))
    with pytest.raises(ValueError, match=r"Ring\(3\)"):
        parse_polynomial(Ring(2), "x1").in_ring(Ring(3))
    p = parse_polynomial(Ring(2), "x1*y2 - 1/2*z2^2")
    back = p.in_ring(Ring(2, aux=1)).in_ring(Ring(2))
    assert back == p and str(back) == str(p)


def test_equal_polynomials_over_q_and_q_e_hash_alike():
    m = mono(R3, "x1*y2")
    over_qe = Polynomial(R3, {m: EpsRational(1, 2), m_one: EpsRational(-3)})
    over_q = Polynomial(R3, {m: Fraction(1, 2), m_one: Fraction(-3)})
    assert over_qe == over_q and hash(over_qe) == hash(over_q)
    assert len({over_qe, over_q}) == 1
