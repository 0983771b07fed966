"""Exact rational linear programming, just enough for cone facet detection:
phase-one simplex deciding feasibility of mixed equality/inequality systems."""

from __future__ import annotations

from fractions import Fraction

__all__ = ["feasible_point"]


def _phase_one(A, b):
    """Solve A x = b, x >= 0 by minimizing artificial variables.

    Rows are normalized to b >= 0 first.  Returns x (length = columns of A)
    or None when infeasible.  Bland's rule guarantees termination.
    """
    m = len(A)
    if m == 0:
        return []
    ncols = len(A[0])
    rows = []
    rhs = []
    for i in range(m):
        r = [Fraction(v) for v in A[i]]
        bv = Fraction(b[i])
        if bv < 0:
            r = [-v for v in r]
            bv = -bv
        rows.append(r)
        rhs.append(bv)
    # tableau with artificial identity appended
    total = ncols + m
    for i in range(m):
        rows[i] += [Fraction(int(j == i)) for j in range(m)]
    basis = [ncols + i for i in range(m)]
    # cost row for sum of artificials, reduced against the artificial basis
    cost = [Fraction(0)] * total
    z = Fraction(0)
    for i in range(m):
        for j in range(total):
            cost[j] -= rows[i][j]
        z -= rhs[i]
    # artificial columns start with cost 1 - 1 = 0 already via reduction
    for j in range(ncols, total):
        cost[j] += 1
    while True:
        enter = next((j for j in range(total) if cost[j] < 0), None)
        if enter is None:
            break
        ratio = None
        leave = None
        for i in range(m):
            if rows[i][enter] > 0:
                r = rhs[i] / rows[i][enter]
                if ratio is None or r < ratio or \
                        (r == ratio and basis[i] < basis[leave]):
                    ratio = r
                    leave = i
        if leave is None:
            return None  # unbounded phase-one cannot happen, defensive
        piv = rows[leave][enter]
        prow = [v / piv if v else v for v in rows[leave]]
        rows[leave] = prow
        rhs[leave] /= piv
        for i in range(m):
            if i != leave:
                f = rows[i][enter]
                if f:
                    rows[i] = [v - f * w if w else v
                               for v, w in zip(rows[i], prow)]
                    rhs[i] -= f * rhs[leave]
        f = cost[enter]
        if f:
            cost = [v - f * w if w else v for v, w in zip(cost, prow)]
            z -= f * rhs[leave]
        basis[leave] = enter
    if z != 0:
        return None
    x = [Fraction(0)] * ncols
    for i, bv in enumerate(basis):
        if bv < ncols:
            x[bv] = rhs[i]
    return x


def feasible_point(equalities, inequalities, dim):
    """A rational point with r . y = 0 for all equality rows and r . y >= 1
    for all inequality rows, or None.

    Free variables are split into positive and negative parts; inequality
    rows get surplus variables.
    """
    nge = len(inequalities)
    A = []
    b = []
    for r in equalities:
        A.append([Fraction(v) for v in r] + [-Fraction(v) for v in r]
                 + [Fraction(0)] * nge)
        b.append(Fraction(0))
    for k, r in enumerate(inequalities):
        surplus = [Fraction(0)] * nge
        surplus[k] = Fraction(-1)
        A.append([Fraction(v) for v in r] + [-Fraction(v) for v in r]
                 + surplus)
        b.append(Fraction(1))
    x = _phase_one(A, b)
    if x is None:
        return None
    return [x[i] - x[dim + i] for i in range(dim)]
