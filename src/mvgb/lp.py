"""Exact rational linear programming, just enough for cone facet detection:
phase-one simplex deciding feasibility of mixed equality/inequality systems.

The tableau is fraction-free: every row is held as integers, a positive
multiple of the rational tableau row it stands for.  Positive scaling keeps
every sign and every ratio, so the pivots are exactly Bland's pivots of the
rational simplex and the point read off at the end is the same."""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .exactalg import integer_row, primitive_row

__all__ = ["feasible_point"]


def _phase_one(A, b, ncols):
    """Solve A x = b, x >= 0 by minimizing artificial variables.

    A is a list of rows, each a list of ncols int or Fraction entries.  Each
    row of [A | b] is scaled once to ints, negated when b < 0.
    Returns x (ncols Fraction entries) or None when infeasible.  Bland's
    rule guarantees termination.
    """
    m = len(A)
    total = ncols + m
    # rows are [A_i | artificials | b_i]; the artificial entry of row i is
    # its scale factor, the rational tableau's 1 times that factor
    rows = []
    scales = []
    for i, (row, bi) in enumerate(zip(A, b)):
        r, d = integer_row(row + [bi])
        if bi < 0:
            r = [-v for v in r]
        r[ncols:ncols] = [0] * m
        r[ncols + i] = d
        rows.append(r)
        scales.append(d)
    basis = [ncols + i for i in range(m)]
    # cost row for the sum of artificials, reduced against the artificial
    # basis: minus the sum of the rational rows, times the lcm of the scales
    # (the artificial entries cancel to zero)
    L = lcm(*scales)
    cost = [0] * (total + 1)
    for r, d in zip(rows, scales):
        f = L // d
        for j in range(ncols):
            cost[j] -= f * r[j]
        cost[total] -= f * r[total]
    cost = primitive_row(cost)
    while True:
        enter = next((j for j in range(total) if cost[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i, r in enumerate(rows):
            a = r[enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                # rhs_i / a < rhs_leave / a_leave, cross-multiplied
                lhs = r[total] * rows[leave][enter]
                rhs = rows[leave][total] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            return None  # unbounded phase-one cannot happen, defensive
        prow = rows[leave]
        piv = prow[enter]
        for i, r in enumerate(rows):
            f = r[enter]
            if i != leave and f:
                rows[i] = primitive_row([piv * v - f * w
                                         for v, w in zip(r, prow)])
        f = cost[enter]
        cost = primitive_row([piv * v - f * w for v, w in zip(cost, prow)])
        basis[leave] = enter
    # the cost row's right-hand side is minus the artificial sum
    if cost[total]:
        return None
    x = [Fraction(0)] * ncols
    for i, bv in enumerate(basis):
        if bv < ncols:
            x[bv] = Fraction(rows[i][total], rows[i][bv])
    return x


def feasible_point(equalities, inequalities, dim):
    """A rational point with r . y = 0 for all equality rows and r . y >= 1
    for all inequality rows, or None.

    Free variables are split into positive and negative parts; inequality
    rows get surplus variables.  Rows may hold int or Fraction entries; the
    point is a list of Fraction.
    """
    nge = len(inequalities)
    A = []
    b = []
    for r in equalities:
        A.append(list(r) + [-v for v in r] + [0] * nge)
        b.append(0)
    for k, r in enumerate(inequalities):
        surplus = [0] * nge
        surplus[k] = -1
        A.append(list(r) + [-v for v in r] + surplus)
        b.append(1)
    x = _phase_one(A, b, 2 * dim + nge)
    if x is None:
        return None
    return [x[i] - x[dim + i] for i in range(dim)]
