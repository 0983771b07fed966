from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from mvgb.lp import feasible_point


def dot(r, y):
    return sum(Fraction(a) * b for a, b in zip(r, y))


def satisfies(equalities, inequalities, y):
    return (all(dot(r, y) == 0 for r in equalities)
            and all(dot(r, y) >= 1 for r in inequalities))


def test_feasible_system_point_is_exact():
    eq = [[1, -1, 0]]
    ineq = [[1, 1, 0], [0, 0, 1], [-1, 0, 2]]
    y = feasible_point(eq, ineq, 3)
    assert y is not None and len(y) == 3
    assert all(type(v) is Fraction for v in y)
    assert satisfies(eq, ineq, y)


def test_equality_row_summing_two_inequalities_is_infeasible():
    # r1 . y >= 1 and r2 . y >= 1 force (r1 + r2) . y >= 2, not 0
    r1, r2 = [1, 2, -1], [0, -1, 3]
    eq = [[a + b for a, b in zip(r1, r2)]]
    assert feasible_point(eq, [r1, r2], 3) is None


def test_fraction_rows_are_scaled_with_their_right_hand_side():
    # y1/2 >= 1 and 3/4 y2 >= 1 put y >= (2, 4/3); with y1 = y2 that is y1 >= 2
    eq = [[Fraction(1, 2), Fraction(-1, 2)]]
    ineq = [[Fraction(1, 2), 0], [0, Fraction(3, 4)]]
    y = feasible_point(eq, ineq, 2)
    assert y is not None and satisfies(eq, ineq, y)
    assert y[0] == y[1] >= 2
    # 3/4 y1 >= 1 and -1/2 y1 >= 1 cannot both hold
    assert feasible_point([], [[Fraction(3, 4)], [Fraction(-1, 2)]], 1) is None


def test_point_is_the_vertex_of_rational_blands_rule():
    # the points the rational (Fraction) tableau with Bland's rule returns
    F = Fraction
    ineq = [[F(1, 2), F(1, 3), 0], [0, F(3, 4), F(-2, 5)],
            [F(-1, 6), 0, F(5, 7)]]
    assert feasible_point([], ineq, 3) == [F(414, 731), F(1572, 731),
                                           F(1120, 731)]
    eq = [[F(2, 3), F(1, 2), -1]]
    ineq = [[F(3, 4), F(-1, 5), 0], [0, 1, F(1, 2)]]
    assert feasible_point(eq, ineq, 3) == [F(348, 241), F(100, 241),
                                           F(282, 241)]


def test_empty_system():
    assert feasible_point([], [], 0) == []
    assert feasible_point([], [], 3) == [0, 0, 0]


small_rows = st.lists(st.integers(-3, 3), min_size=3, max_size=3)


@settings(max_examples=150, deadline=None)
@given(st.lists(small_rows, max_size=2), st.lists(small_rows, max_size=4))
def test_returned_point_satisfies_every_row(equalities, inequalities):
    y = feasible_point(equalities, inequalities, 3)
    if y is not None:
        assert satisfies(equalities, inequalities, y)
    if [0, 0, 0] in inequalities:
        assert y is None
