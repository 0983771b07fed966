"""Tangent space of the multigraded Hilbert scheme at a monomial ideal: the
degree-zero module homomorphisms into the quotient, counted as the free
components of one weight graph per exponent shift."""

from __future__ import annotations

import itertools

from .monomial import collinear_initial_ideal, standard_monomials
from .polyring import Ring, format_monomial, m_deg, m_from_pairs, m_lcm, m_one

__all__ = [
    "tangent_dimension", "collinear_tangent_maps",
    "verify_collinear_tangent_basis",
]


def _exp_diff(m, g):
    """Exponent difference m - g as a sorted tuple of (var, delta != 0)."""
    acc = dict(m)
    for v, e in g:
        acc[v] = acc.get(v, 0) - e
    return tuple(sorted((v, d) for v, d in acc.items() if d))


def _weight_blocks(I):
    """Each exponent shift d with the generators g for which g*x^d is
    standard."""
    blocks = {}
    standard = {}
    for g in I.gens:
        u = I.ring.multidegree(g)
        if u not in standard:
            standard[u] = standard_monomials(I, u)
        for m in standard[u]:
            blocks.setdefault(_exp_diff(m, g), []).append(g)
    return blocks.items()


def _free_components(I):
    """Yield the free components of the weight graph of every exponent shift
    d, as (d, frozenset of generators) pairs.

    A degree-zero map of weight d sends each generator g to c_g * g*x^d, with
    c_g = 0 unless g*x^d is standard; the vertices of the graph of d are the
    generators with g*x^d standard.  The pairwise lcm syzygies generate all
    the others, so the constraints are one per pair g, h with lcm L: when
    L*x^d is standard, c_g = c_h.  A pair of two vertices ties them in the
    graph.  A pair with one vertex g forces c_g = 0, since c_h = 0: a lone
    test, run after the union-find per component, up to the first L*x^d
    found standard.  The maps of weight d are spanned by the components that
    no lone test zeroes, one map each (c_g = 1 on the component), so their
    number is the dimension of Hom(I, S/I)_0.

    Monomials are packed into ints, one field of w bits per variable, with
    2D < 2^(w-1) for the largest generator degree D.  Every field of
    L*x^d lies in [0, 2D], as g divides L and g*x^d is standard, so L*x^d
    is the sum of L and the signed packed d.  A guard bit atop each field
    makes a divisibility test one subtraction, and one more subtraction
    gives the support of a product as the guard bits of its nonzero
    fields.  A generator divides a product only if its lowest variable lies
    in that support, so the generators are indexed by the guard bit of
    their lowest variable and a product is tested against the buckets of
    its support alone.  Each product is tested once per call: the same one
    recurs across shifts.
    """
    if m_one in I.gens:   # S/I = 0 has no maps, 1 no lowest variable
        return
    width = (2 * max(map(m_deg, I.gens), default=0) + 1).bit_length() + 1
    low = sum(1 << v * width for v in range(I.ring.nvars))
    guard = low << width - 1

    def pack(pairs):
        return sum(e << v * width for v, e in pairs)

    by_first = {}
    for g in I.gens:
        by_first.setdefault(1 << g[0][0] * width + width - 1, []).append(
            pack(g))
    known = {}

    def in_ideal(x):
        hit = known.get(x)
        if hit is None:
            top = x | guard
            support = top - low & guard
            hit = known[x] = any(
                (top - q) & guard == guard
                for bit, qs in by_first.items() if support & bit for q in qs)
        return hit

    through = {g: [] for g in I.gens}
    for g, h in itertools.combinations(I.gens, 2):
        L = pack(m_lcm(g, h))
        through[g].append((h, L))
        through[h].append((g, L))
    for d, members in _weight_blocks(I):
        shift = pack(d)
        parent = {g: g for g in members}

        def find(g):
            while parent[g] != g:
                parent[g] = g = parent[parent[g]]
            return g

        for g in members:
            for h, L in through[g]:
                if h in parent and not in_ideal(L + shift):
                    parent[find(h)] = find(g)
        comps = {}
        for g in members:
            comps.setdefault(find(g), []).append(g)
        yield from ((d, frozenset(c)) for c in comps.values()
                    if all(h in parent or in_ideal(L + shift)
                           for g in c for h, L in through[g]))


def tangent_dimension(I):
    """Dimension of the space of degree-zero module maps I -> S/I: the
    number of free weight-graph components under the pairwise lcm syzygies.
    """
    return sum(1 for _ in _free_components(I))


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


def verify_collinear_tangent_basis(n):
    """Certify the explicit maps as a basis of the tangent space at the
    collinear ideal, of dimension 11n - 15.

    Each map sends its generators g to g*x^d for one shift d.  The maps'
    (d, generator set) pairs must be exactly the free weight-graph
    components: a component is a well-defined map with standard images,
    distinct components are independent (disjoint supports), and together
    they span.  Returns (flag, details); a failure names the first
    ``bad_map`` (mixed shifts, not a component, or a repeat) or one
    ``missing`` component.
    """
    I = collinear_initial_ideal(n)
    comps = set(_free_components(I))
    maps = collinear_tangent_maps(n)
    details = {"count": len(maps), "expected": 11 * n - 15,
               "tangent_dimension": len(comps)}
    seen = set()
    for name, table in maps:
        shifts = {_exp_diff(img, g) for g, img in table.items()}
        key = (shifts.pop(), frozenset(table)) if len(shifts) == 1 else None
        if key not in comps or key in seen:
            details["bad_map"] = name
            return False, details
        seen.add(key)
    if comps != seen:
        d, gens = min(comps - seen, key=lambda c: (c[0], sorted(c[1])))
        details["missing"] = {
            "shift": {I.ring.name(v): e for v, e in d},
            "generators": sorted(format_monomial(I.ring, g) for g in gens)}
        return False, details
    return len(maps) == 11 * n - 15, details
