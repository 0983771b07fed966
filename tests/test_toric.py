import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvgb import toric

from mvgb.cameras import multiview_ideal
from mvgb.checks import random_generic_config
from mvgb.exactalg import Matrix, primitive_row, rank
from mvgb.groebner import (
    IdealPresentation, ideal, ideal_equal, intersect, reduced_groebner_basis,
)
from mvgb.lp import feasible_point
from mvgb.monomial import MonomialIdeal
from mvgb.polyring import (
    Ring, format_monomial, format_polynomial, parse_polynomial,
)
from mvgb.toric import (
    CayleyMatrix, cayley_matrix, class_invariant_table,
    enumerate_initial_ideals, lattice_kernel_basis, mixed_subdivision,
    symmetry_classes, toric_ideal, variable_kernel_rows,
)

R3 = Ring(3)
R4 = Ring(4)

EXPECTED_7x9 = [
    [0, 0, 0, 1, 0, 0, 1, 0, 0],
    [1, 0, 0, 0, 0, 0, 0, 1, 0],
    [0, 1, 0, 0, 1, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 1, 0, 0, 1],
    [1, 1, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 1, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, 1, 1],
]

EXPECTED_TORIC3 = ["z1*y3 - x1*z3", "z2*x3 - x2*z3", "z1*y2 - y1*z2",
                    "x1*y2*x3 - y1*x2*y3"]
EXPECTED_TORIC4 = [
    "y1*y4 - x1*z4", "y3*x4 - x3*y4", "y2*x4 - x2*z4", "z1*y3 - x1*z3",
    "z2*x3 - x2*z3", "z1*y2 - y1*z2", "y2*z3*y4 - z2*y3*z4",
    "y1*z3*x4 - z1*x3*z4", "x1*z2*x4 - z1*x2*y4", "x1*y2*x3 - y1*x2*y3",
]


def test_cayley_matrix_shapes_and_ranks():
    cm3 = cayley_matrix(3)
    assert (cm3.matrix.nrows, cm3.matrix.ncols) == (7, 9)
    assert rank(cm3.matrix) == 6
    cm4 = cayley_matrix(4)
    assert (cm4.matrix.nrows, cm4.matrix.ncols) == (8, 12)
    assert rank(cm4.matrix) == 7
    with pytest.raises(ValueError):
        cayley_matrix(5)


def test_cayley_matrix_three_cameras_entries():
    cm3 = cayley_matrix(3)
    for i in range(7):
        for j in range(9):
            assert cm3.matrix.rows[i][j] == EXPECTED_7x9[i][j]


def test_kernel_basis_rank():
    cm3 = cayley_matrix(3)
    assert len(lattice_kernel_basis(cm3.matrix)) == 3
    cm4 = cayley_matrix(4)
    assert len(lattice_kernel_basis(cm4.matrix)) == 5


def test_toric_ideal_three_cameras():
    I3 = toric_ideal(cayley_matrix(3))
    expected = ideal(R3, [parse_polynomial(R3, s) for s in EXPECTED_TORIC3])
    assert ideal_equal(I3, expected)
    degrees = sorted(p.total_degree() for p in I3.generators)
    assert degrees == [2, 2, 2, 3]


def test_toric_ideal_four_cameras():
    I4 = toric_ideal(cayley_matrix(4))
    expected = ideal(R4, [parse_polynomial(R4, s) for s in EXPECTED_TORIC4])
    assert ideal_equal(I4, expected)
    degrees = sorted(p.total_degree() for p in I4.generators)
    assert degrees == [2] * 6 + [3] * 4


def test_zero_kernel_gives_zero_ideal():
    ring = Ring(2)
    mat = Matrix([[Fraction(int(i == j)) for j in range(3)] for i in range(3)])
    cm = CayleyMatrix(mat, ring, (0, 1, 2))
    assert toric_ideal(cm).generators == ()


def test_principal_binomial_has_two_initial_ideals():
    ring = Ring(2)
    p = parse_polynomial(ring, "x1*y1 - x2*y2")
    nodes = enumerate_initial_ideals(ideal(ring, [p]))
    assert len(nodes) == 2
    inits = {n.initial.gens for n in nodes}
    from mvgb.polyring import parse_monomial
    assert inits == {(parse_monomial(ring, "x1*y1"),),
                     (parse_monomial(ring, "x2*y2"),)}


def test_fan_of_generic_two_camera_ideal_without_kernel_rows():
    # the ideal is principal, generated by the bilinear epipolar form; its
    # fan is the normal fan of the product of two triangles, one initial
    # ideal <t> per term t
    cfg = random_generic_config(random.Random(7), 2)
    I = multiview_ideal(cfg)
    (f,) = reduced_groebner_basis(I)
    assert len(f.terms) == 9
    nodes = enumerate_initial_ideals(I)
    assert sorted(n.initial.gens for n in nodes) == sorted(
        (t,) for t in f.terms)


def test_fan_of_three_camera_toric_ideal():
    cm3 = cayley_matrix(3)
    I3 = toric_ideal(cm3)
    nodes = enumerate_initial_ideals(I3, kernel_rows=variable_kernel_rows(cm3))
    assert len(nodes) == 20
    assert all(n.initial.is_squarefree() for n in nodes)
    classes = symmetry_classes([n.initial for n in nodes])
    assert len(classes) == 3
    assert sorted(len(m) for _, m in classes) == [2, 6, 12]
    for rep, _ in classes:
        fc, graph = mixed_subdivision(rep)
        assert fc.labels.count("cube") == 1
        assert fc.labels.count("prism") == 6
        assert len(fc.facets) == 7  # normalized volume of the summed polytope
        assert sum(graph["degrees"]) == 2 * len(graph["edges"])


def test_empty_generator_list_needs_a_ring():
    with pytest.raises(ValueError,
                       match="empty generator list needs an explicit ring"):
        enumerate_initial_ideals([])


def _fan_digest(nodes):
    """SHA-256 over every node in the returned order: its initial ideal's
    generators, then each marked basis element and its marked monomial."""
    h = hashlib.sha256()
    for nd in nodes:
        ring = nd.initial.ring
        h.update((" ".join(format_monomial(ring, m) for m in nd.initial.gens)
                  + "\n").encode())
        for g, lm in nd.basis:
            h.update(("%s | %s\n" % (format_polynomial(g),
                                      format_monomial(ring, lm))).encode())
    return h.hexdigest()


def _toric3_input():
    cm3 = cayley_matrix(3)
    return toric_ideal(cm3), variable_kernel_rows(cm3)


def _pair7_input():
    return multiview_ideal(random_generic_config(random.Random(7), 2)), None


def test_fan_nodes_and_marked_bases_are_pinned():
    I, rows = _toric3_input()
    assert _fan_digest(enumerate_initial_ideals(I, kernel_rows=rows)) == (
        "304ee92349bed987dbc3d3845c0de5cf2799f00ed7d418ede66153326df55be1")
    I, rows = _pair7_input()
    assert _fan_digest(enumerate_initial_ideals(I, kernel_rows=rows)) == (
        "995c859a4b59870fc1c9d333b29c8907af3fc0999d6cfed2556dc68a2ba8e13f")


@pytest.mark.parametrize("fan_input, bases, both_ways_lps", [
    (_toric3_input, 31, 98),   # 30 edges
    (_pair7_input, 19, 72),    # 18 edges: the normal fan of two triangles
])
def test_fan_traversal_flips_each_edge_once(monkeypatch, fan_input, bases,
                                            both_ways_lps):
    I, rows = fan_input()
    counts = {"bases": 0, "lps": 0}
    reduced_basis = IdealPresentation.reduced_basis

    def counted_basis(self, *args, **kwargs):
        counts["bases"] += 1
        return reduced_basis(self, *args, **kwargs)

    def counted_lp(*args):
        counts["lps"] += 1
        return feasible_point(*args)

    monkeypatch.setattr(IdealPresentation, "reduced_basis", counted_basis)
    monkeypatch.setattr(toric, "feasible_point", counted_lp)
    enumerate_initial_ideals(I, kernel_rows=rows)
    # one basis per edge plus the start; a traversal that flips every edge
    # both ways and runs an LP per candidate makes both_ways_lps LPs
    assert counts["bases"] == bases
    assert counts["lps"] < both_ways_lps


@st.composite
def _vectors_with_a_pair_sum(draw):
    dim = draw(st.integers(2, 5))
    vec = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).filter(
        any).map(lambda v: tuple(primitive_row(v)))
    vs = draw(st.lists(vec, min_size=2, max_size=6, unique=True))
    s = [a + b for a, b in zip(vs[0], vs[1])]
    if any(s) and tuple(primitive_row(s)) not in vs:
        vs.append(tuple(primitive_row(s)))
    return dim, vs


@settings(max_examples=60, deadline=None)
@given(_vectors_with_a_pair_sum())
def test_pair_sum_candidate_has_no_facet_point(case):
    dim, vs = case
    sums = {tuple(primitive_row([a + b for a, b in zip(ci, ck)]))
            for ci, ck in itertools.combinations(vs, 2)
            if any(a + b for a, b in zip(ci, ck))}
    assert toric._pair_sums(vs) == sums & set(vs)
    for cj in sums & set(vs):
        others = [list(c) for c in vs if c != cj]
        assert feasible_point([list(cj)], others, dim) is None


def test_quadrics_intersection_identity():
    # the three quadrics cut out the toric variety plus one extra component
    I3 = toric_ideal(cayley_matrix(3))
    zs = ideal(R3, [parse_polynomial(R3, s) for s in ("z1", "z2", "z3")])
    quadrics = ideal(R3, [parse_polynomial(R3, s) for s in EXPECTED_TORIC3[:3]])
    assert ideal_equal(intersect(I3, zs), quadrics)


def test_class_invariant_table_three_cameras():
    cm3 = cayley_matrix(3)
    I3 = toric_ideal(cm3)
    nodes = enumerate_initial_ideals(I3, kernel_rows=variable_kernel_rows(cm3))
    classes = symmetry_classes([n.initial for n in nodes])
    table = class_invariant_table(classes)
    assert sum(t["size"] for t in table) == 20
    assert {t["generators"] for t in table} <= {4, 5}
    assert all(t["cubes"] == 1 and t["prisms"] == 6 for t in table)


def test_mixed_subdivision_requires_squarefree():
    from mvgb.polyring import parse_monomial
    I = MonomialIdeal(R3, [parse_monomial(R3, "x1^2")])
    with pytest.raises(ValueError):
        mixed_subdivision(I)
