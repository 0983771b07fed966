"""Tangent space of the multigraded Hilbert scheme at a monomial ideal: the
degree-zero module homomorphisms into the quotient, computed from the pairwise
lcm syzygy constraints as an exact linear system."""

from __future__ import annotations

import itertools
from fractions import Fraction

from .monomial import collinear_initial_ideal, standard_monomials
from .polyring import Ring, m_div, m_from_pairs, m_lcm, m_mul

__all__ = [
    "tangent_dimension", "standard_monomials", "collinear_tangent_maps",
    "verify_collinear_tangent_basis",
]


def _exp_diff(m, g):
    """Exponent difference m - g as a sorted tuple of (var, delta != 0)."""
    acc = dict(m)
    for v, e in g:
        acc[v] = acc.get(v, 0) - e
    return tuple(sorted((v, d) for v, d in acc.items() if d))


def _shift(mono, diff):
    """mono * x^diff, or None when an exponent would go negative."""
    acc = dict(mono)
    for v, d in diff:
        e = acc.get(v, 0) + d
        if e < 0:
            return None
        if e:
            acc[v] = e
        else:
            acc.pop(v, None)
    return tuple(sorted(acc.items()))


def _sparse_rank(rows):
    """Exact rank of rows given as {column: coefficient} dictionaries,
    pivoting on the most-constrained column of each row."""
    rank = 0
    pivots = {}
    for row in rows:
        r = dict(row)
        while r:
            col = min(r)
            if col not in pivots:
                pivots[col] = r
                rank += 1
                break
            piv = pivots[col]
            f = r[col] / piv[col]
            for c2, v2 in piv.items():
                w = r.get(c2, 0) - f * v2
                if w:
                    r[c2] = w
                else:
                    r.pop(c2, None)
    return rank


def _tangent_blocks(I):
    """Group the unknowns phi(g) = c * g*x^d by the exponent shift d; the
    syzygy constraints never couple distinct shifts."""
    gens = list(I.gens)
    blocks = {}
    std_cache = {}
    for gi, g in enumerate(gens):
        u = I.ring.multidegree(g)
        if u not in std_cache:
            std_cache[u] = standard_monomials(I, u)
        for m in std_cache[u]:
            d = _exp_diff(m, g)
            blocks.setdefault(d, []).append(gi)
    lcms = {}

    def lcm_of(i, j):
        key = (i, j) if i < j else (j, i)
        got = lcms.get(key)
        if got is None:
            got = m_lcm(gens[key[0]], gens[key[1]])
            lcms[key] = got
        return got

    out = []
    for d, members in sorted(blocks.items()):
        mset = set(members)
        cols = {gi: k for k, gi in enumerate(sorted(mset))}
        rows = set()
        for gi in sorted(mset):
            for gj in range(len(gens)):
                if gj == gi:
                    continue
                L = lcm_of(gi, gj)
                w = _shift(L, d)
                if w is None or w in I:
                    continue
                row = {cols[gi]: Fraction(1)}
                if gj in mset:
                    if gj > gi:
                        row[cols[gj]] = Fraction(-1)
                    else:
                        continue  # handled from the smaller index
                rows.add(tuple(sorted(row.items())))
        out.append((d, len(mset), [dict(r) for r in sorted(rows)]))
    return gens, out


def tangent_dimension(I):
    """Dimension of the space of degree-zero module maps I -> S/I.

    Unknowns are the coefficients of standard monomials of matching
    multidegree per minimal generator; every pairwise lcm syzygy contributes
    one linear condition per standard monomial of the lcm multidegree.
    """
    _, blocks = _tangent_blocks(I)
    total = 0
    for _, nunk, rows in blocks:
        total += nunk - _sparse_rank(rows)
    return total


def tangent_dimension_with_triples(I):
    """Cross-check variant that additionally imposes all triple-lcm
    constraints; the dimension must not change."""
    gens = list(I.gens)
    base, blocks = _tangent_blocks(I)
    total = 0
    block_index = {d: (nunk, rows) for d, nunk, rows in blocks}
    for d, (nunk, rows) in block_index.items():
        cols = {}
        k = 0
        for gi, g in enumerate(gens):
            m = _shift(g, d)
            if m is not None and m not in I:
                cols[gi] = k
                k += 1
        extra = set(tuple(sorted(r.items())) for r in rows)
        for trip in itertools.combinations(range(len(gens)), 3):
            L = m_lcm(m_lcm(gens[trip[0]], gens[trip[1]]), gens[trip[2]])
            w = _shift(L, d)
            if w is None or w in I:
                continue
            for a, b in itertools.combinations(trip, 2):
                row = {}
                if a in cols:
                    row[cols[a]] = Fraction(1)
                if b in cols:
                    row[cols[b]] = Fraction(-1)
                if row:
                    extra.add(tuple(sorted(row.items())))
        total += nunk - _sparse_rank([dict(r) for r in sorted(extra)])
    return total


# ---------------------------------------------------------------------------
# the explicit tangent basis at the collinear degeneration ideal

def _q(ring, i, k):
    return m_from_pairs([(ring.var("x", i), 1), (ring.var("y", k), 1)])


def _m3(ring, spec):
    return m_from_pairs([(ring.var(L, c), 1) for L, c in spec])


def collinear_tangent_maps(n):
    """The explicit degree-zero homomorphisms at the collinear initial ideal,
    as assignment tables generator -> image monomial (coefficient one).

    There are 5(n-1) + 6(n-2) + 2 = 11n - 15 of them.
    """
    if n < 3:
        raise ValueError("explicit basis defined for n >= 3")
    ring = Ring(n)
    maps = []

    def add(name, table):
        maps.append((name, table))

    for i in range(1, n):
        add("alpha_%d" % i, {_q(ring, i, k): _m3(ring, (("y", i), ("y", k)))
                             for k in range(i + 1, n + 1)})
    for i in range(1, n):
        add("beta_%d" % i,
            {_q(ring, i, i + 1): _m3(ring, (("x", i + 1), ("y", i)))})
    for k in range(2, n + 1):
        add("gamma_%d" % k, {_q(ring, i, k): _m3(ring, (("x", i), ("x", k)))
                             for i in range(1, k)})
    add("delta_1", {_q(ring, 1, 2): _m3(ring, (("y", 1), ("z", 2)))})
    add("delta_2", {_q(ring, n - 1, n): _m3(ring, (("z", n - 1), ("x", n)))})

    def cub(l1, i, l2, j, l3, k):
        return _m3(ring, ((l1, i), (l2, j), (l3, k)))

    # Six families of n-2 maps each on the cubic generators.  Exchanging the
    # middle z for x or y (rho, nu) is consistent for every (i,k) around a
    # fixed middle index; the other four exchanges are only consistent on the
    # slices fixed below, as the syzygy constraints tie coefficients along
    # exactly those slices.
    for j in range(2, n):
        table = {}
        for i, k in ((a, b) for a in range(1, j) for b in range(j + 1, n + 1)):
            table[cub("x", i, "z", j, "x", k)] = cub("x", i, "x", j, "x", k)
            table[cub("y", i, "z", j, "x", k)] = cub("y", i, "x", j, "x", k)
        add("rho_%d" % j, table)
        table = {}
        for i, k in ((a, b) for a in range(1, j) for b in range(j + 1, n + 1)):
            table[cub("y", i, "z", j, "x", k)] = cub("y", i, "y", j, "x", k)
            table[cub("y", i, "z", j, "y", k)] = cub("y", i, "y", j, "y", k)
        add("nu_%d" % j, table)
    for j in range(2, n):
        k = j + 1
        table = {}
        for i in range(1, j):
            table[cub("x", i, "z", j, "x", k)] = cub("x", i, "x", j, "z", k)
            table[cub("y", i, "z", j, "x", k)] = cub("y", i, "x", j, "z", k)
        add("sigma_%d" % j, table)
    for k in range(3, n + 1):
        table = {}
        for i, j in itertools.combinations(range(1, k), 2):
            table[cub("x", i, "z", j, "x", k)] = cub("x", i, "z", j, "z", k)
            table[cub("y", i, "z", j, "x", k)] = cub("y", i, "z", j, "z", k)
        add("tau_%d" % k, table)
    for i in range(1, n - 1):
        j = i + 1
        table = {}
        for k in range(j + 1, n + 1):
            table[cub("y", i, "z", j, "x", k)] = cub("z", i, "y", j, "x", k)
            table[cub("y", i, "z", j, "y", k)] = cub("z", i, "y", j, "y", k)
        add("mu_%d" % i, table)
    for i in range(1, n - 1):
        table = {}
        for j, k in itertools.combinations(range(i + 1, n + 1), 2):
            table[cub("y", i, "z", j, "x", k)] = cub("z", i, "z", j, "x", k)
            table[cub("y", i, "z", j, "y", k)] = cub("z", i, "z", j, "y", k)
        add("pi_%d" % i, table)

    for i in range(1, n):
        table = {_q(ring, i, k): _m3(ring, (("z", i), ("y", k)))
                 for k in range(i + 1, n + 1)}
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                table[cub("x", i, "z", j, "x", k)] = cub("z", i, "z", j, "x", k)
        add("epsilon_%d" % i, table)
    for k in range(2, n + 1):
        table = {_q(ring, i, k): _m3(ring, (("x", i), ("z", k)))
                 for i in range(1, k)}
        for i in range(1, k):
            for j in range(i + 1, k):
                table[cub("y", i, "z", j, "y", k)] = cub("y", i, "z", j, "z", k)
        add("zeta_%d" % k, table)
    return maps


def _pair_quotients(gens):
    """(g_a, g_b, lcm/g_a, lcm/g_b) for every pair of generators a < b."""
    out = []
    for ga, gb in itertools.combinations(gens, 2):
        L = m_lcm(ga, gb)
        out.append((ga, gb, m_div(L, ga), m_div(L, gb)))
    return out


def _is_homomorphism(I, table, pairs):
    """Check the pairwise syzygy conditions for a single-assignment table,
    given the pair quotients of the ideal's generators."""
    for ga, gb, qa, qb in pairs:
        ia = table.get(ga)
        ib = table.get(gb)
        ma = m_mul(ia, qa) if ia is not None else None
        mb = m_mul(ib, qb) if ib is not None else None
        if ma == mb:
            continue
        if ma is not None and ma not in I:
            return False, (ga, gb)
        if mb is not None and mb not in I:
            return False, (ga, gb)
    return True, None


def verify_collinear_tangent_basis(n):
    """Validate the explicit maps: well-defined, standard images, linearly
    independent, and spanning exactly the tangent space dimension 11n - 15.

    Returns (flag, details).
    """
    I = collinear_initial_ideal(n)
    maps = collinear_tangent_maps(n)
    details = {"count": len(maps), "expected": 11 * n - 15}
    if len(maps) != 11 * n - 15:
        return False, details
    gens = set(I.gens)
    pairs = _pair_quotients(I.gens)
    for name, table in maps:
        for g, img in table.items():
            if g not in gens:
                details["bad_map"] = name
                return False, details
            if img in I or I.ring.multidegree(g) != I.ring.multidegree(img):
                details["bad_map"] = name
                return False, details
        ok, pair = _is_homomorphism(I, table, pairs)
        if not ok:
            details["bad_map"] = name
            details["pair"] = pair
            return False, details
    # independence: one column per (generator, image monomial) pair
    columns = {}
    rows = []
    for _, table in maps:
        row = {}
        for g, img in table.items():
            key = (g, img)
            col = columns.setdefault(key, len(columns))
            row[col] = Fraction(1)
        rows.append(row)
    rk = _sparse_rank(rows)
    details["rank"] = rk
    if rk != len(maps):
        return False, details
    dim = tangent_dimension(I)
    details["tangent_dimension"] = dim
    return dim == len(maps), details
