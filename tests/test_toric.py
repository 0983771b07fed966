import random
from fractions import Fraction

import pytest

from mvgb.cameras import multiview_ideal
from mvgb.checks import random_generic_config
from mvgb.exactalg import Matrix, rank
from mvgb.groebner import (
    ideal, ideal_equal, intersect, reduced_groebner_basis,
)
from mvgb.monomial import MonomialIdeal
from mvgb.polyring import Ring, parse_polynomial
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


def test_node_cap():
    cm3 = cayley_matrix(3)
    I3 = toric_ideal(cm3)
    with pytest.raises(RuntimeError):
        enumerate_initial_ideals(I3, kernel_rows=variable_kernel_rows(cm3),
                                 node_cap=5)


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
