import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvgb import checks, groebner
from mvgb.cameras import (
    CameraConfig, focal_points, is_generic, minimal_multiview_generators,
    multiview_generators, multiview_ideal,
)
from mvgb.groebner import (
    _Overflow, _Packer, _buchberger, _interreduce, _packed, _primitive,
    cone_certificates, eliminate,
    hilbert_value, ideal, ideal_equal, initial_ideal, intersect,
    is_groebner_basis, letter_rankings, minimal_generators, normal_form,
    normal_forms, permuted_block_lex_orders, reduced_groebner_basis,
    universal_basis_certificate, universal_groebner_check,
)
from mvgb.degeneration import collinear_family_generators
from mvgb.exactalg import EpsRational, Matrix, rank
from mvgb.monomial import MonomialIdeal, generic_initial_ideal
from mvgb.polyring import (
    GrevlexOrder, LexOrder, MatrixOrder, Polynomial, Ring, WeightOrder,
    block_order, format_polynomial, m_deg, m_div, m_divides, m_from_pairs,
    m_lcm, m_mul, m_one, parse_monomial, parse_polynomial,
)


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


def random_weight_orders(ring, count, seed=0):
    rng, n = random.Random(seed), ring.nvars
    return [WeightOrder(ring, [rng.randint(1, 10 ** 6) for _ in range(n)])
            for _ in range(count)]


R3 = Ring(3)


def P(ring, s):
    return parse_polynomial(ring, s)


def test_single_binomial_is_its_own_basis():
    p = P(R3, "x1*y2 - x2*y1")
    gb = reduced_groebner_basis(ideal(R3, [p]))
    assert gb == (p,)


def test_reduced_basis_unique_under_shuffling():
    rng = random.Random(1)
    gens = [P(R3, "x1*y2 - x2*y1"), P(R3, "x1*z3 - 2*z1*x3"),
            P(R3, "y2*z3 - y3*z2 + x1*x2")]
    ref = reduced_groebner_basis(ideal(R3, gens))
    for _ in range(4):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert reduced_groebner_basis(ideal(R3, shuffled)) == ref


def test_normal_form_properties():
    rng = random.Random(2)
    c = random_config(rng, 3)
    I = multiview_ideal(c)
    gb = reduced_groebner_basis(I)
    member = I.generators[0] * P(R3, "x2 + 3*z3") + I.generators[5]
    assert not normal_form(member, gb)
    assert normal_form(P(R3, "1"), gb) == P(R3, "1")
    for g in multiview_generators(c)[:10]:
        assert not normal_form(g, gb)


def test_initial_ideal_of_monomial_ideal_is_itself():
    gens = [P(R3, "x1*x2"), P(R3, "y1*y2*y3")]
    I = ideal(R3, gens)
    init = initial_ideal(I)
    assert init == MonomialIdeal(R3, [next(iter(g.terms)) for g in gens])


def test_generic_initial_ideal_for_small_n():
    rng = random.Random(3)
    for n in (2, 3):
        c = random_config(rng, n)
        assert initial_ideal(multiview_ideal(c)) == generic_initial_ideal(n)


def test_ideal_equal_trivial():
    I = ideal(R3, [P(R3, "x1*y2 - x2*y1")])
    assert ideal_equal(I, I)
    J = ideal(R3, [P(R3, "2*x1*y2 - 2*x2*y1")])
    assert ideal_equal(I, J)
    assert not ideal_equal(I, ideal(R3, [P(R3, "x1")]))


def test_eliminate_nothing_is_identity():
    I = ideal(R3, [P(R3, "x1*y2 - x2*y1"), P(R3, "z1 - x1")])
    assert ideal_equal(eliminate(I, range(R3.nvars)), I)


def _fourbyfour_minors():
    # the diagonal unknowns are the aux variables t1..t4
    ring = Ring(4, aux=4)
    rows = [["t1", "x2", "x3", "x4"],
            ["x1", "t2", "y3", "y4"],
            ["y1", "y2", "t3", "z4"],
            ["z1", "z2", "z3", "t4"]]
    entries = [[Polynomial.monomial(ring, m_from_pairs([(ring.index(s), 1)]))
                for s in row] for row in rows]
    gens = []
    for r1, r2 in itertools.combinations(range(4), 2):
        for c1, c2 in itertools.combinations(range(4), 2):
            gens.append(entries[r1][c1] * entries[r2][c2]
                        - entries[r1][c2] * entries[r2][c1])
    return ring, gens


EXPECTED_TORIC4 = [
    "y1*y4 - x1*z4", "y3*x4 - x3*y4", "y2*x4 - x2*z4", "z1*y3 - x1*z3",
    "z2*x3 - x2*z3", "z1*y2 - y1*z2", "y2*z3*y4 - z2*y3*z4",
    "y1*z3*x4 - z1*x3*z4", "x1*z2*x4 - z1*x2*y4", "x1*y2*x3 - y1*x2*y3",
]


def test_eliminate_diagonal_unknowns_gives_toric_ideal():
    ring, gens = _fourbyfour_minors()
    base = Ring(4)
    elim = eliminate(ideal(ring, gens), range(base.nvars))
    mapped = [p.in_ring(base) for p in elim.generators]
    expected = [P(base, s) for s in EXPECTED_TORIC4]
    assert ideal_equal(ideal(base, mapped), ideal(base, expected))
    mins = minimal_generators(ideal(base, mapped))
    assert len(mins) == 10
    degrees = sorted(p.total_degree() for p in mins)
    assert degrees == [2] * 6 + [3] * 4


def test_quadrics_cut_out_extra_component():
    # the three bilinear forms generate the intersection with <z1,z2,z3>
    ring = Ring(3)
    ja = ideal(ring, [P(ring, s) for s in (
        "z1*y3 - x1*z3", "z2*x3 - x2*z3", "z1*y2 - y1*z2",
        "x1*y2*x3 - y1*x2*y3")])
    zs = ideal(ring, [P(ring, "z1"), P(ring, "z2"), P(ring, "z3")])
    quadrics = ideal(ring, [P(ring, s) for s in (
        "z1*y3 - x1*z3", "z2*x3 - x2*z3", "z1*y2 - y1*z2")])
    assert ideal_equal(intersect(ja, zs), quadrics)


def test_intersect_self_is_identity():
    I = ideal(R3, [P(R3, "x1*y2 - x2*y1")])
    assert ideal_equal(intersect(I, I), I)


def brute_hilbert(I, u):
    """Oracle: count standard monomials of the initial ideal by enumeration."""
    init = initial_ideal(I)
    ring = I.ring
    blocks = [[ring.var(L, i) for L in ring.letters]
              for i in range(1, ring.n + 1)]

    def block_monos(b, d):
        out = []
        for e1 in range(d + 1):
            for e2 in range(d - e1 + 1):
                out.append(tuple((v, e) for v, e in
                                 zip(b, (e1, e2, d - e1 - e2)) if e))
        return out

    from mvgb.polyring import m_mul
    count = 0
    for combo in itertools.product(*[block_monos(b, d)
                                     for b, d in zip(blocks, u)]):
        m = m_one
        for f in combo:
            m = m_mul(m, f)
        if m not in init:
            count += 1
    return count


def test_hilbert_values():
    rng = random.Random(5)
    c2 = random_config(rng, 2)
    I2 = multiview_ideal(c2)
    assert hilbert_value(I2, (1, 1)) == 8
    assert hilbert_value(I2, (0, 0)) == 1
    c3 = random_config(rng, 3)
    I3 = multiview_ideal(c3)
    assert hilbert_value(I3, (1, 1, 1)) == 17
    assert brute_hilbert(I3, (1, 1, 1)) == 17


def test_hilbert_value_independent_of_order():
    rng = random.Random(6)
    c = random_config(rng, 2)
    gens = multiview_generators(c)
    ring = c.ring()
    for order in random_weight_orders(ring, 5, seed=8):
        init = initial_ideal(ideal(ring, gens), order)
        from mvgb.monomial import standard_monomial_count
        assert standard_monomial_count(init, (1, 1)) == 8
        assert standard_monomial_count(init, (2, 1)) == 15


def test_universal_check_two_cameras():
    rng = random.Random(7)
    c = random_config(rng, 2)
    gens = multiview_generators(c)
    orders = permuted_block_lex_orders(c.ring())
    assert len(orders) == 36
    ok, witness = universal_groebner_check(gens, orders)
    assert ok and witness is None


def _without_cubic_leader(gens, ring):
    """The minors minus those whose block-order leading term is x1*y2*y3."""
    o = block_order(ring)
    target = parse_monomial(ring, "x1*y2*y3")
    return [g for g in gens if g.leading_term(o)[1] != target]


def test_universal_check_detects_missing_cubic():
    rng = random.Random(8)
    c = random_config(rng, 3)
    gens = multiview_generators(c)
    keep = _without_cubic_leader(gens, c.ring())
    assert len(keep) < len(gens)
    ok, witness = universal_groebner_check(keep, [block_order(c.ring())])
    assert not ok
    assert witness["order_index"] == 0


def _per_order_check(gens, orders):
    for k, order in enumerate(orders):
        ok, pair = is_groebner_basis(gens, order)
        if not ok:
            return False, {"order_index": k, "pair": pair}
    return True, None


def test_universal_check_matches_per_order_checks():
    # one content normalization for all orders gives the flags and witnesses
    # of checking the orders one at a time, as pinned from the per-order path
    c = random_config(random.Random(8), 3)
    ring = c.ring()
    perms = permuted_block_lex_orders(ring)
    w = random_weight_orders(ring, 2, seed=5)
    orders = [perms[9], w[1], perms[100], perms[36], w[0], perms[215]]
    gens = multiview_generators(c)
    small = minimal_multiview_generators(c)
    for gset, family, expected in (
            (gens, orders, (True, None)),
            (small, orders, (False, {"order_index": 0, "pair": (2, 1)})),
            (small, orders[1:], (False, {"order_index": 0, "pair": (1, 2)})),
            (_without_cubic_leader(gens, ring), orders,
             (False, {"order_index": 3, "pair": (2, 1)}))):
        got = universal_groebner_check(gset, family)
        assert got == _per_order_check(gset, family) == expected


def test_universal_check_runs_in_process_only():
    gens = multiview_generators(random_config(random.Random(8), 2))
    with pytest.raises(ValueError):
        universal_groebner_check(gens, [block_order(gens[0].ring)], jobs=2)


def test_cone_certificate_agrees_with_s_pairs():
    # S-pair reduction under each sampled cone's block lex order is the
    # oracle; the set without one cubic passes in some cones and fails in
    # others, and its verdict differs from that of the reversed ranking in
    # several sampled cones, so picking trailing terms would be caught
    c = random_config(random.Random(8), 3)
    ring = c.ring()
    gens = multiview_generators(c)
    rankings = letter_rankings(3)
    orders = permuted_block_lex_orders(ring)
    cones = random.Random(2).sample(range(len(rankings)), 12)
    verdicts = []
    for gset in (gens, minimal_multiview_generators(c),
                 _without_cubic_leader(gens, ring)):
        got = [ok for ok, _ in
               cone_certificates(gset, [rankings[k] for k in cones])]
        assert got == [is_groebner_basis(gset, orders[k])[0] for k in cones]
        verdicts.append(got)
    assert all(verdicts[0])
    assert not any(verdicts[1])
    assert any(verdicts[2]) and not all(verdicts[2])


def test_cone_certificate_witness_names_cone_and_multidegree():
    c = random_config(random.Random(10), 3)
    ok, witness = universal_basis_certificate(minimal_multiview_generators(c))
    assert not ok
    assert witness["cone"] == 0
    assert witness["ranking"] == ["x1>y1>z1", "x2>y2>z2", "x3>y3>z3"]
    assert len(witness["multidegree"]) == 3


def test_criterion_2_certifies_every_cone_up_to_three_cameras():
    entry = checks.criterion_2_universal_basis(n_max=3)
    assert entry["pass"], entry["details"]
    assert entry["details"] == {"n2_cones": 36, "n3_cones": 216}


def test_chain_criterion_consistency():
    rng = random.Random(9)
    c = random_config(rng, 3)
    gens = multiview_generators(c)
    order = random_weight_orders(c.ring(), 1, seed=3)[0]
    fast = is_groebner_basis(gens, order, use_chain=True)
    slow = is_groebner_basis(gens, order, use_chain=False)
    assert fast[0] == slow[0]


def test_chain_criterion_skips_are_pinned(monkeypatch):
    # per call: S-polynomials formed and pairs the chain criterion skipped,
    # as counted on the seed-201 minors of the certify benchmark before the
    # treated-pair keys changed; a reduced basis starts from the
    # interreduced input, which keeps 4 of the 4 generators and 6 of the 39
    from mvgb import groebner
    counts = [0, 0]
    spoly, chain = groebner._spoly, groebner._chain_skips

    def counting_spoly(*args):
        counts[0] += 1
        return spoly(*args)

    def counting_chain(*args):
        skip = chain(*args)
        counts[1] += skip
        return skip

    monkeypatch.setattr(groebner, "_spoly", counting_spoly)
    monkeypatch.setattr(groebner, "_chain_skips", counting_chain)
    c = checks.random_generic_config(random.Random(201), 3)
    ring = c.ring()
    gens, small = multiview_generators(c), minimal_multiview_generators(c)
    orders = [block_order(ring), permuted_block_lex_orders(ring)[100],
              random_weight_orders(ring, 1, seed=201)[0]]
    got = []
    for order in orders:
        for run in (lambda: is_groebner_basis(gens, order),
                    lambda: is_groebner_basis(small, order),
                    lambda: reduced_groebner_basis(ideal(ring, small), order),
                    lambda: reduced_groebner_basis(ideal(ring, gens), order)):
            counts[:] = [0, 0]
            run()
            got.append(tuple(counts))
    assert got == [(53, 667), (1, 0), (8, 4), (8, 4)] * 3


# ---------------------------------------------------------------------------
# Hilbert-function certificate of the universal check

def test_witness_pair_indexes_the_callers_list():
    # zero generators are dropped before the check, but the witness names
    # the pair by its place in the list as given
    c = random_config(random.Random(8), 3)
    ring = c.ring()
    order = permuted_block_lex_orders(ring)[9]
    small = minimal_multiview_generators(c)
    zero = Polynomial(ring)
    assert is_groebner_basis(small, order) == (False, (2, 1))
    for gset, pair in (([zero] + small, (3, 2)),
                       (small[:2] + [zero] + small[2:], (3, 1)),
                       (small + [zero, zero], (2, 1))):
        assert is_groebner_basis(gset, order) == (False, pair)
        assert is_groebner_basis(gset, order, use_chain=False) == (
            False, pair)
        assert universal_groebner_check(gset, [order]) == (
            False, {"order_index": 0, "pair": pair})


def test_universal_check_of_no_generators_or_no_orders():
    c = random_config(random.Random(8), 3)
    ring = c.ring()
    small = minimal_multiview_generators(c)
    assert universal_groebner_check([], [block_order(ring)]) == (True, None)
    assert universal_groebner_check([], []) == (True, None)
    assert universal_groebner_check(small, []) == (True, None)
    assert universal_groebner_check([Polynomial(ring)],
                                    [block_order(ring)]) == (True, None)


def _counting_pair_checks(monkeypatch):
    """The list of verdicts of every S-pair check run from now on."""
    from mvgb import groebner
    seen = []
    check = groebner.is_groebner_basis

    def counting(*args):
        got = check(*args)
        seen.append(got[0])
        return got

    monkeypatch.setattr(groebner, "is_groebner_basis", counting)
    return seen


def _certify_family(ring, seed):
    """8 permuted block orders and 4 weight orders, as one certify job
    samples them."""
    rng = random.Random(seed)
    return (rng.sample(permuted_block_lex_orders(ring), 8)
            + random_weight_orders(ring, 4, seed=seed))


def test_hilbert_certificate_replaces_s_pair_checks(monkeypatch):
    # the seed-201 minors pass every order on the certificate alone; the
    # minimal generators fail it at once and are rejected by S-pairs
    seen = _counting_pair_checks(monkeypatch)
    c = checks.random_generic_config(random.Random(201), 3)
    ring = c.ring()
    orders = _certify_family(ring, 201)
    assert universal_groebner_check(multiview_generators(c), orders) == (
        True, None)
    assert seen == []
    ok, witness = universal_groebner_check(
        minimal_multiview_generators(c), orders)
    # one S-pair check, the one that rejects the set at its order
    assert not ok and seen == [False]
    assert witness["order_index"] == 0


def _inhomogeneous(gens):
    # (1 + x1)*g lies in the ideal, and x1 times g's leading monomial leads
    # it under every order
    return gens + [gens[0] * P(gens[0].ring, "1 + x1")]


def _with_aux(gens):
    ring = gens[0].ring.with_aux(1)
    return [g.in_ring(ring) for g in gens]


@pytest.mark.parametrize("build", ["inhomogeneous", "aux", "non_squarefree"])
def test_universal_check_falls_back_to_s_pairs(monkeypatch, build):
    # when the certificate does not apply, every order is checked by
    # S-pairs, with the flags and witnesses of the per-order path
    seen = _counting_pair_checks(monkeypatch)
    c = random_config(random.Random(8), 3)
    ring = c.ring()
    gens, small = multiview_generators(c), minimal_multiview_generators(c)
    if build == "inhomogeneous":
        sets = [_inhomogeneous(gens), _inhomogeneous(small)]
        orders = _certify_family(ring, 8)
    elif build == "aux":
        sets = [_with_aux(gens), _with_aux(small)]
        ring = sets[0][0].ring
        orders = [block_order(ring)] + random_weight_orders(ring, 3, seed=8)
    else:
        # leading monomials on disjoint variables: a basis under every order
        sets = [[P(ring, s) for s in polys] for polys in (
            ("x1^2 - y1^2", "x2*y3 - x3*y2"),
            ("x1^2 - y1*z1", "x1*y2 - x2*y1", "y1^2*x2 - z1^2*y2",
             "x1*z1*y3 - y1^2*z3"))]
        orders = _certify_family(ring, 8)
        assert not any(initial_ideal(ideal(ring, gset),
                                     orders[0]).is_squarefree()
                       for gset in sets)
    verdicts = []
    for gset in sets:
        seen.clear()
        got = universal_groebner_check(gset, orders)
        checked = len(orders) if got[0] else got[1]["order_index"] + 1
        assert len(seen) == checked
        assert got == _per_order_check(gset, orders)
        verdicts.append(got[0])
    assert verdicts == [True, False]


def test_universal_check_over_q_eps():
    # the collinear family is a basis under the block order but not under
    # every sampled order; certificate and S-pairs agree with the per-order
    # path, and so does the family without one cubic
    gens = collinear_family_generators(3)
    orders = _certify_family(R3, 4)
    got = universal_groebner_check(gens, orders)
    assert got == _per_order_check(gens, orders)
    assert got[1]["order_index"] == 1
    assert universal_groebner_check(gens, [block_order(R3)]) == (True, None)
    rest = gens[:3] + gens[4:]
    assert universal_groebner_check(rest, orders) == _per_order_check(
        rest, orders)


MINORS_201 = multiview_generators(
    checks.random_generic_config(random.Random(201), 3))
universal_orders = st.one_of(
    st.sampled_from(permuted_block_lex_orders(R3)),
    st.permutations(range(R3.nvars)).map(lambda p: LexOrder(R3, p)),
    st.lists(st.integers(1, 10 ** 6), min_size=R3.nvars,
             max_size=R3.nvars).map(lambda w: WeightOrder(R3, w)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_universal_check_matches_per_order_checks_on_subsets(data):
    # a few minors, or all but a few: most of the latter pass some orders
    # on the certificate and fail others by S-pairs
    picked = set(data.draw(st.lists(st.integers(0, len(MINORS_201) - 1),
                                    min_size=1, max_size=12)))
    if data.draw(st.booleans()):
        picked = set(range(len(MINORS_201))) - set(list(picked)[:4])
    gens = [MINORS_201[i] for i in sorted(picked)]
    if data.draw(st.booleans()):
        gens.insert(data.draw(st.integers(0, len(gens))),
                    Polynomial(R3))
    orders = data.draw(st.lists(universal_orders, min_size=1, max_size=4))
    assert universal_groebner_check(gens, orders) == _per_order_check(
        gens, orders)

def test_minimal_generation_three_cameras():
    rng = random.Random(10)
    c = random_config(rng, 3)
    small = minimal_multiview_generators(c)
    assert len(small) == 4
    I = multiview_ideal(c)
    J = ideal(c.ring(), small)
    assert ideal_equal(I, J)
    # dropping any single generator loses the ideal
    for k in range(len(small)):
        sub = ideal(c.ring(), small[:k] + small[k + 1:])
        assert not ideal_equal(I, sub)


@pytest.mark.slow
def test_minimal_generation_four_cameras():
    rng = random.Random(11)
    c = random_config(rng, 4)
    # four focal points of rank 4: no two equal, no three collinear, not
    # coplanar
    assert rank(Matrix([fp.coords for fp in focal_points(c)])) == 4
    small = minimal_multiview_generators(c)
    assert len(small) == 6 + 4
    I = multiview_ideal(c)
    assert ideal_equal(I, ideal(c.ring(), small))
    for k in range(len(small)):
        sub = ideal(c.ring(), small[:k] + small[k + 1:])
        assert not ideal_equal(I, sub)


def test_universal_check_default_family():
    rng = random.Random(12)
    c = random_config(rng, 2)
    gens = multiview_generators(c)
    ring = c.ring()
    orders = (permuted_block_lex_orders(ring)
              + random_weight_orders(ring, 5, seed=3))
    ok, witness = universal_groebner_check(gens, orders)
    assert ok and witness is None


def field_normal_form(p, basis, order):
    """Oracle: division with field arithmetic, p <- p - (c/lc)*q*g, taking
    the first basis element whose leading monomial divides."""
    key = order.key
    G = [(max(g.terms, key=key), g.terms) for g in basis if g.terms]
    rest, out = dict(p.terms), {}
    while rest:
        m = max(rest, key=key)
        c = rest.pop(m)
        for lm, terms in G:
            q = m_div(m, lm)
            if q is not None:
                f = c / terms[lm]
                for gm, gc in terms.items():
                    if gm != lm:
                        mm = m_mul(gm, q)
                        v = rest.get(mm, 0) - f * gc
                        if v:
                            rest[mm] = v
                        else:
                            rest.pop(mm, None)
                break
        else:
            out[m] = c
    return Polynomial(p.ring, out)


R2 = Ring(2)
# the ten monomials of degree <= 2 in three of the six variables, so that
# divisions are frequent
nf_monomials = st.lists(st.integers(0, 2), max_size=2).map(
    lambda vs: m_from_pairs((v, 1) for v in vs))
small = st.integers(-3, 3)
rational_coefficients = st.builds(Fraction, small.filter(bool),
                                  st.integers(1, 6))
eps_coefficients = st.builds(lambda a, b, c, d: EpsRational((a, b), (c, d)),
                             small, small.filter(bool), small,
                             st.integers(1, 3))


def nf_polynomials(eps):
    coeffs = (st.one_of(rational_coefficients, eps_coefficients) if eps
              else rational_coefficients)
    return st.lists(st.tuples(nf_monomials, coeffs), min_size=1,
                    max_size=5).map(
        lambda items: Polynomial(R2, dict(items)))


NF_ORDERS = [block_order(R2), WeightOrder(R2, [3, 1, 4, 1, 5, 9]),
             LexOrder(R2, (5, 3, 1, 4, 2, 0))]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_normal_form_matches_field_division(data):
    # Q basis and Q input, Q basis and Q(e) input, a Q(e) basis holding
    # pure-Q elements with either input; the bases need not be Groebner
    eps_basis, eps_input = data.draw(st.tuples(st.booleans(), st.booleans()))
    basis = data.draw(st.lists(nf_polynomials(False), min_size=1, max_size=3))
    if eps_basis:
        basis += data.draw(st.lists(nf_polynomials(True), min_size=1,
                                    max_size=2))
        basis = data.draw(st.permutations(basis))
    p = data.draw(nf_polynomials(eps_input))
    order = data.draw(st.sampled_from(NF_ORDERS))
    got = normal_form(p, basis, order)
    want = field_normal_form(p, basis, order)
    assert got == want
    assert format_polynomial(got) == format_polynomial(want)
    assert normal_form(-p, basis, order) == -want


def test_normal_form_rescales_earlier_remainder_terms():
    # x1 is set aside before x2 is reduced by 2*x2 + 1, whose leading
    # coefficient does not divide 1: the integer remainder doubles x1 too
    order = block_order(R2)
    got = normal_form(P(R2, "x1 + x2"), [P(R2, "2*x2 + 1")], order)
    assert got == P(R2, "x1 - 1/2")


def test_normal_form_against_negative_leading_coefficient():
    # the basis element keeps its sign; reducing twice by -x2 must not undo
    # the rescaling of x1*y1, which is set aside between the two steps
    order = block_order(R2)
    p = P(R2, "-3*x1*x2 - x1*y1 - 1/2*x2 + 1/2*y1^2")
    basis = [P(R2, "-x2")]
    got = normal_form(p, basis, order)
    assert got == field_normal_form(p, basis, order)
    assert got == P(R2, "-x1*y1 + 1/2*y1^2")


def test_normal_form_of_eps_minors_against_mixed_basis():
    # the reduced basis of the collinear family mixes Q(e) trinomials with
    # the pure-Q binomials x_i y_j - x_j y_i
    gb = reduced_groebner_basis(ideal(R3, collinear_family_generators(3)))
    assert any(g.domain() == "Q" for g in gb)
    assert any(g.domain() == "Q(e)" for g in gb)
    order = block_order(R3)
    for p in (P(R3, "2/3*x1*x2*z3 - 5*x3^2"), P(R3, "-x1*y2*z3 + 1/7*y1"),
              P(R3, "(1/(e))*x1*x3*z2 - 3/2*x2*y3*z1")):
        got = normal_form(p, gb, order)
        assert format_polynomial(got) == format_polynomial(
            field_normal_form(p, gb, order))


def _basis_transcript(seed, n):
    """Reduced bases and S-pair verdicts under block, weight and permuted
    lex orders, as text."""
    rng = random.Random(seed)
    c = random_config(rng, n)
    ring = c.ring()
    gens = multiview_generators(c)
    small = minimal_multiview_generators(c)
    perms = permuted_block_lex_orders(ring)
    orders = ([block_order(ring)] + random_weight_orders(ring, 2, seed=seed)
              + [perms[k] for k in (1, len(perms) // 2, len(perms) - 1)])
    lines = []
    for order in orders:
        gb = reduced_groebner_basis(ideal(ring, gens), order)
        for g in gens:
            assert not field_normal_form(g, gb, order)
        lines += [format_polynomial(g) for g in gb]
        lines.append(repr(is_groebner_basis(gens, order)))
        lines.append(repr(is_groebner_basis(small, order)))
        lines.append(repr(is_groebner_basis(small, order, use_chain=False)))
    return "\n".join(lines)


@pytest.mark.parametrize("seed,n,digest", [
    (21, 2, "52329dc627df86539f44874154f96198d8e429b20594810801ba8415370b2231"),
    (22, 3, "8b7bde3017e1e0fa5ad9e851ed653f03804ee186bff20d0a89991cdbdeba3aec"),
])
def test_bases_and_witnesses_are_pinned(seed, n, digest):
    # digests of the transcript as the field-arithmetic engine wrote it
    text = _basis_transcript(seed, n)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# packed monomials

ONES = [1] * R3.nvars
int_rows = st.lists(st.integers(-9, 9), min_size=R3.nvars, max_size=R3.nvars)
rational_rows = st.lists(st.fractions(-4, 4, max_denominator=6),
                         min_size=R3.nvars, max_size=R3.nvars)
perms = st.permutations(range(R3.nvars))
packed_orders = st.one_of(
    perms.map(lambda p: LexOrder(R3, p)),
    st.tuples(st.lists(st.integers(1, 10 ** 6), min_size=R3.nvars,
                       max_size=R3.nvars), perms).map(
        lambda t: WeightOrder(R3, t[0], LexOrder(R3, t[1]))),
    rational_rows.map(lambda w: WeightOrder(R3, w)),
    int_rows.map(lambda w: WeightOrder(R3, w)),
    st.tuples(int_rows, int_rows).map(
        lambda t: MatrixOrder(R3, [ONES, t[0], [-c for c in t[1]]])),
    perms.map(lambda p: GrevlexOrder(R3, p)),
    st.tuples(rational_rows, perms).map(
        lambda t: WeightOrder(R3, t[0], GrevlexOrder(R3, t[1]))),
)
packed_monomials = st.lists(
    st.tuples(st.integers(0, R3.nvars - 1), st.integers(1, 9)),
    max_size=4).map(m_from_pairs)


def m_coprime(a, b):
    """Oracle: no variable divides both."""
    return not {v for v, _ in a} & {v for v, _ in b}


@settings(max_examples=150, deadline=None)
@given(packed_orders, st.integers(5, 7),
       st.lists(packed_monomials, min_size=2, max_size=5))
def test_packed_monomials_follow_the_order_and_tuple_arithmetic(
        order, bits, monos):
    pk = _Packer(order, bits)
    monos = [m for m in monos if m_deg(m) <= pk.D]
    packed = [pk.encode(m) for m in monos]
    for m, x in zip(monos, packed):
        assert pk.decode(x) == m and not x & pk.guard
    for a, x in zip(monos, packed):
        for b, y in zip(monos, packed):
            assert (x > y) - (x < y) == order.compare(a, b)
            product = x + y - pk.off
            assert bool(product & pk.guard) == (m_deg(a) + m_deg(b) > pk.D)
            if m_deg(a) + m_deg(b) <= pk.D:
                assert product == pk.encode(m_mul(a, b))
            quotient = x - y + pk.off
            assert (not quotient & pk.guard) == m_divides(b, a)
            if m_divides(b, a):
                assert quotient == pk.encode(m_div(a, b))
            xe, ye = x & pk.emask, y & pk.emask
            top = pk.emax(xe, ye)
            assert (top == xe + ye) == m_coprime(a, b)
            if m_deg(m_lcm(a, b)) <= pk.D:
                assert pk.times(x, top - xe) == pk.encode(m_lcm(a, b))
            else:
                with pytest.raises(_Overflow):
                    pk.times(x, top - xe)


def test_exponents_past_the_default_fields_widen_them():
    # the chain x1 - x2^2, x2 - x3^2, ..., y3 - z1^2 is a lex basis whose
    # tail reduction reaches z1^64, past the 63 that fields sized for the
    # quadrics hold; the reduced basis is y3 - z1^2, ..., x1 - z1^64
    names = ["x1", "x2", "x3", "y1", "y2", "y3", "z1"]
    gens = [P(R3, "%s - %s^2" % (a, b)) for a, b in zip(names, names[1:])]
    order = block_order(R3)
    with pytest.raises(_Overflow):
        _buchberger(_Packer(order, 6), [g.terms for g in gens])
    gb = reduced_groebner_basis(ideal(R3, gens), order)
    assert [format_polynomial(g) for g in gb] == [
        "%s - z1^%d" % (a, 2 ** (6 - k))
        for k, a in reversed(list(enumerate(names[:-1])))]
    for g in gens:
        assert not field_normal_form(g, gb, order)
    assert normal_form(P(R3, "x1^2 + x2"), gb) == P(R3, "z1^128 + z1^32")
    assert is_groebner_basis(gb, order) == (True, None)


@pytest.mark.parametrize("order", [
    WeightOrder(R3, [-1] * R3.nvars),
    MatrixOrder(R3, [ONES, [-c for c in range(R3.nvars)]]),
    WeightOrder(R3, [-1] * R3.nvars, GrevlexOrder(R3, range(R3.nvars))),
])
def test_negative_weight_rows_keep_the_basis_minimal(order):
    # a multiple of a leading monomial can come first in such an order;
    # minimalization still drops it, since divisors are tested first
    gens = [P(R3, s) for s in ("x1*y2*z1", "x1*y2", "x1^2*y2*z3^2")]
    assert reduced_groebner_basis(ideal(R3, gens), order) == (
        P(R3, "x1*y2"),)
    gens = [P(R3, "x1*y2*z1 - x3"), P(R3, "x1*y2")]
    assert set(reduced_groebner_basis(ideal(R3, gens), order)) == {
        P(R3, "x1*y2"), P(R3, "x3")}


def test_normal_form_takes_a_basis_iterator():
    gb = reduced_groebner_basis(ideal(R3, [P(R3, "x1^2 - y1"),
                                           P(R3, "x1*y1 - z1")]))
    p = P(R3, "x1^3 + y1^2")
    assert normal_form(p, iter(gb)) == normal_form(p, gb) != p


def test_orders_and_generators_from_another_ring_are_refused():
    R2 = Ring(2)
    gens = [P(R3, "x1^2 - y1"), P(R3, "x1*y1 - z1")]
    other = block_order(R2)
    calls = [
        lambda: is_groebner_basis(gens, other),
        lambda: universal_groebner_check(gens, [block_order(R3), other]),
        lambda: reduced_groebner_basis(ideal(R3, gens), other),
        lambda: normal_form(P(R3, "x1^3"), gens, other),
        lambda: normal_forms([P(R3, "x1^3")], gens, other),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="order on Ring\\(2\\)"):
            call()
    mixed = gens + [P(R2, "x1*y2 - x2*y1")]
    for call in (lambda: is_groebner_basis(mixed, block_order(R3)),
                 lambda: universal_groebner_check(mixed, [block_order(R3)]),
                 lambda: normal_form(P(R3, "x1^3"), mixed, block_order(R3))):
        with pytest.raises(ValueError, match="polynomial over Ring\\(2\\)"):
            call()


# ---------------------------------------------------------------------------
# interreduced input

def _kept(gens, order):
    return len(_packed(order, _primitive([g.terms for g in gens]),
                       _interreduce))


@pytest.mark.parametrize("n,total,kept", [(3, 39, 6), (4, 609, 19)])
def test_interreduction_keeps_few_minors(n, total, kept):
    # the seed-201 minors: the pass keeps as many inputs as the reduced
    # basis has elements
    c = checks.random_generic_config(random.Random(201), n)
    gens = multiview_generators(c)
    assert len(gens) == total
    assert _kept(gens, block_order(c.ring())) == kept
    assert len(reduced_groebner_basis(ideal(c.ring(), gens))) == kept


def test_interreduction_over_q_eps():
    # the collinear family is its own basis; a Q(e) multiple, a sum and a
    # monomial multiple of its elements head-reduce to nothing
    gens = collinear_family_generators(3)
    order = block_order(R3)
    ref = reduced_groebner_basis(ideal(R3, gens), order)
    assert _kept(gens, order) == len(gens) == len(ref) == 6
    e = EpsRational((0, 1))
    extra = [gens[4] * e, gens[0] + gens[3] * (1 - e),
             gens[1] * P(R3, "z2")]
    assert _kept(gens + extra, order) == 6
    got = reduced_groebner_basis(ideal(R3, extra + gens), order)
    assert [list(g.terms.items()) for g in got] == [
        list(g.terms.items()) for g in ref]


def _redundant(data, gens):
    """Duplicates, scalar multiples, monomial multiples and sums of the
    generators."""
    pick = st.sampled_from(gens)
    kinds = st.one_of(
        pick,
        st.tuples(pick, rational_coefficients).map(lambda t: t[0] * t[1]),
        st.tuples(pick, nf_monomials).map(
            lambda t: t[0] * Polynomial.monomial(R2, t[1])),
        st.tuples(pick, pick, rational_coefficients).map(
            lambda t: t[0] + t[1] * t[2]))
    return data.draw(st.lists(kinds, max_size=6))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_redundant_generators_leave_the_basis_byte_identical(data):
    gens = data.draw(st.lists(nf_polynomials(False), min_size=1, max_size=3))
    more = data.draw(st.permutations(gens + _redundant(data, gens)))
    for order in NF_ORDERS:
        want = reduced_groebner_basis(ideal(R2, gens), order)
        got = reduced_groebner_basis(ideal(R2, more), order)
        assert [list(g.terms.items()) for g in got] == [
            list(g.terms.items()) for g in want]


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.just(block_order(R3)), packed_orders))
def test_reduced_basis_lists_the_leading_monomial_first(order):
    # initial_ideal and the fan read the leading monomial off this
    c = checks.random_generic_config(random.Random(201), 3)
    for g in reduced_groebner_basis(ideal(R3, multiview_generators(c)),
                                    order):
        assert next(iter(g.terms)) == g.leading_term(order)[1]


def test_monomial_ideal_is_its_own_initial_ideal_without_buchberger(
        monkeypatch):
    I = generic_initial_ideal(4)
    u = (1, 1, 1, 1)
    expected = hilbert_value(ideal(I.ring, I.polynomials()), u)
    calls = []

    def spy(*args):
        calls.append(args)
        return _buchberger(*args)

    monkeypatch.setattr(groebner, "_buchberger", spy)
    assert hilbert_value(ideal(I.ring, I.polynomials()), u) == expected
    assert len(calls) == 1
    assert initial_ideal(I, LexOrder(I.ring, tuple(
        reversed(range(I.ring.nvars))))) is I
    assert hilbert_value(I, u) == expected
    assert len(calls) == 1
    with pytest.raises(ValueError, match="order on"):
        initial_ideal(I, block_order(Ring(3)))
    aux = Ring(2, aux=1)
    with pytest.raises(ValueError, match=r"plain 3-letter ring Ring\(2\)"):
        hilbert_value(MonomialIdeal(aux, [parse_monomial(aux, "x1*x2")]),
                      (1, 1))
