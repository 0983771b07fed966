"""Torus-fixed multiview geometry end to end: Cayley matrices, toric ideals by
lattice-basis saturation, Groebner fan traversal enumerating all initial
monomial ideals, symmetry-class reduction, and mixed-subdivision complexes
with dual graphs."""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .cameras import toric_cameras
from .exactalg import Matrix, integer_row, kernel, primitive_row
from .groebner import (
    IdealPresentation, _as_ideal, ideal, minimal_generators,
    reduced_groebner_basis,
)
from .lp import feasible_point
from .monomial import (
    MonomialIdeal, stanley_reisner_complex, symmetry_orbits,
)
from .polyring import (
    GrevlexOrder, MatrixOrder, Polynomial, Ring, m_deg, m_exp, m_from_pairs,
    block_order,
)

__all__ = [
    "CayleyMatrix", "cayley_matrix", "lattice_kernel_basis",
    "variable_kernel_rows", "toric_ideal", "GFanNode",
    "enumerate_initial_ideals", "symmetry_classes", "mixed_subdivision",
    "class_invariant_table",
]


@dataclass(frozen=True)
class CayleyMatrix:
    """A 0/1 configuration matrix whose columns are labeled by ring variables."""

    matrix: Matrix
    ring: Ring
    column_vars: tuple


def cayley_matrix(n):
    """Camera transposes stacked over block indicator rows; n is 3 or 4."""
    if n not in (3, 4):
        raise ValueError("cayley matrix defined for n = 3 or 4")
    config = toric_cameras(n)
    ring = Ring(n)
    cols = []
    col_vars = []
    for i, cam in enumerate(config.matrices, start=1):
        for r, letter in enumerate(("x", "y", "z")):
            col = [cam.rows[r][k] for k in range(4)]
            col += [Fraction(int(t == i - 1)) for t in range(n)]
            cols.append(col)
            col_vars.append(ring.var(letter, i))
    mat = Matrix(cols).transpose()
    return CayleyMatrix(mat, ring, tuple(col_vars))


def lattice_kernel_basis(matrix):
    """Primitive integer vectors spanning the rational kernel."""
    return [primitive_row(integer_row(v)[0]) for v in kernel(matrix)]


def variable_kernel_rows(cm):
    """Kernel lattice basis re-indexed from Cayley columns to ring variables."""
    rows = []
    for v in lattice_kernel_basis(cm.matrix):
        row = [0] * cm.ring.nvars
        for col, val in enumerate(v):
            row[cm.column_vars[col]] = val
        rows.append(row)
    return rows


def _binomial_from_vector(ring, column_vars, v):
    pos = [(column_vars[k], e) for k, e in enumerate(v) if e > 0]
    neg = [(column_vars[k], -e) for k, e in enumerate(v) if e < 0]
    return Polynomial(ring, {m_from_pairs(pos): Fraction(1),
                             m_from_pairs(neg): Fraction(-1)})


def _divide_by_variable_power(p, var):
    k = min(m_exp(m, var) for m in p.terms)
    if k == 0:
        return p
    terms = {}
    for m, c in p.terms.items():
        terms[tuple((v, e - k) if v == var else (v, e)
                    for v, e in m if v != var or e != k)] = c
    return Polynomial(p.ring, terms)


def toric_ideal(cm):
    """Saturated lattice ideal of the configuration: binomials of a kernel
    lattice basis, saturated successively by every variable via reverse
    lexicographic bases with that variable cheapest."""
    ring = cm.ring
    basis = lattice_kernel_basis(cm.matrix)
    gens = [_binomial_from_vector(ring, cm.column_vars, v) for v in basis]
    if not gens:
        return IdealPresentation(ring, [])
    current = gens
    for var in sorted(set(cm.column_vars)):
        perm = [v for v in range(ring.nvars) if v != var] + [var]
        order = GrevlexOrder(ring, perm)
        gb = reduced_groebner_basis(ideal(ring, current), order)
        current = [_divide_by_variable_power(g, var) for g in gb]
    return IdealPresentation(ring, minimal_generators(ideal(ring, current)))


# ---------------------------------------------------------------------------
# Groebner fan traversal

@dataclass(frozen=True)
class GFanNode:
    """A marked reduced basis and its initial monomial ideal."""

    basis: tuple        # pairs (polynomial, marked leading monomial)
    initial: MonomialIdeal


def _pair_coords(kernel_rows, mono_hi, mono_lo, nvars):
    dense = [0] * nvars
    for v, e in mono_hi:
        dense[v] += e
    for v, e in mono_lo:
        dense[v] -= e
    if kernel_rows is not None:
        dense = [sum(row[k] * dense[k] for k in range(nvars))
                 for row in kernel_rows]
    return tuple(primitive_row(dense))


def _node_from_basis(ring, gb):
    # a reduced basis lists each element's leading monomial first
    marked = [(g, next(iter(g.terms))) for g in gb]
    key = block_order(ring).key
    marked.sort(key=lambda t: key(t[1]))
    init = MonomialIdeal(ring, [lm for _, lm in marked])
    return GFanNode(tuple(marked), init)


def _node_key(node):
    return node.initial.gens


def _pair_sums(candidates):
    """The candidates c_j equal to primitive(c_i + c_k) for two others.  No
    such c_j is a facet: where c_i . y >= 1 and c_k . y >= 1,
    c_j . y >= 2/g > 0 (g the gcd divided out), so its facet LP has no
    point."""
    members = set(candidates)
    found = set()
    for ci, ck in itertools.combinations(candidates, 2):
        s = tuple(primitive_row([a + b for a, b in zip(ci, ck)]))
        if s in members:
            found.add(s)
    return found


def enumerate_initial_ideals(I, kernel_rows=None):
    """All initial monomial ideals of a homogeneous ideal, by breadth-first
    flip traversal of the Groebner fan.

    Each edge of the fan is flipped once: a flip from A across c records
    -c at its target, whose expansion skips it, since that flip leads back
    to A.  Candidates that are the primitive sum of two others are ruled out
    with no LP.  kernel_rows, when given, is an integer basis of the space
    spanned by the exponent differences (the facet LPs then run in that
    dimension).
    """
    I = _as_ideal(I)
    ring = I.ring
    dim = len(kernel_rows) if kernel_rows is not None else ring.nvars
    start_order = block_order(ring)
    ones = [1] * ring.nvars

    def expand(node, known):
        """(c, neighbour) for every facet inequality c of the node's cone
        not in known, in the sorted order of the candidates."""
        vecs = {}
        for g, lm in node.basis:
            for m in g.terms:
                if m == lm:
                    continue
                c = _pair_coords(kernel_rows, lm, m, ring.nvars)
                if not any(c):
                    raise ValueError(
                        "kernel rows do not span the exponent differences")
                vecs[c] = True
        uniq = sorted(vecs)
        sums = _pair_sums(uniq)
        neighbors = []
        for cj in uniq:
            if cj in known or cj in sums:
                continue
            others = [list(c) for c in uniq if c != cj]
            y0 = feasible_point([list(cj)], others, dim)
            if y0 is None:
                continue
            # a positive multiple of y0 gives a positive multiple of w0
            y0 = integer_row(y0)[0]
            if kernel_rows is None:
                w0 = y0
                wneg = [-x for x in cj]
            else:
                w0 = [sum(kernel_rows[r][k] * y0[r] for r in range(dim))
                      for k in range(ring.nvars)]
                wneg = [-sum(kernel_rows[r][k] * cj[r] for r in range(dim))
                        for k in range(ring.nvars)]
            gb = I.reduced_basis(MatrixOrder(ring, [ones, w0, wneg]))
            neighbors.append((cj, _node_from_basis(ring, gb)))
        return neighbors

    first = _node_from_basis(ring, I.reduced_basis(start_order))
    seen = {_node_key(first): first}
    # per node key, the facet inequalities whose flip is already made the
    # other way round
    flipped = {}
    queue = deque([first])
    while queue:
        node = queue.popleft()
        for c, nb in expand(node, flipped.pop(_node_key(node), ())):
            k = _node_key(nb)
            flipped.setdefault(k, set()).add(tuple(-x for x in c))
            if k not in seen:
                seen[k] = nb
                queue.append(nb)
    return [seen[k] for k in sorted(seen)]


def symmetry_classes(ideals):
    """Orbits of squarefree ideals under per-camera letter permutations and
    camera relabeling."""
    return symmetry_orbits(ideals)


# ---------------------------------------------------------------------------
# mixed subdivisions

def mixed_subdivision(I):
    """Facet complex of a squarefree initial ideal with its dual graph: edges
    join facets whose blockwise intersection has codimension one."""
    if not I.is_squarefree():
        raise ValueError("mixed subdivision requires a squarefree ideal")
    fc = stanley_reisner_complex(I)
    blocks = I.ring.blocks()

    def block_sizes(f):
        return [sum(1 for v in b if v in f) for b in blocks]

    def dim(f):
        return sum(k - 1 for k in block_sizes(f) if k)

    facets = fc.facets
    edges = []
    for i, j in itertools.combinations(range(len(facets)), 2):
        inter = facets[i] & facets[j]
        sizes = block_sizes(inter)
        if all(sizes) and sum(k - 1 for k in sizes) == dim(facets[i]) - 1:
            edges.append((i, j))
    degrees = [0] * len(facets)
    for i, j in edges:
        degrees[i] += 1
        degrees[j] += 1
    graph = {
        "labels": list(fc.labels),
        "edges": edges,
        "degrees": degrees,
        "degree_sequence": sorted(degrees, reverse=True),
    }
    return fc, graph


def class_invariant_table(orbits):
    """Per-class summary: orbit size, generator count and degrees of the
    representative, facet shape counts, and the dual graph degree sequence."""
    table = []
    for rep, members in orbits:
        fc, graph = mixed_subdivision(rep)
        table.append({
            "size": len(members),
            "generators": len(rep.gens),
            "max_degree": max(m_deg(g) for g in rep.gens),
            "cubes": fc.labels.count("cube"),
            "prisms": fc.labels.count("prism"),
            "degree_sequence": graph["degree_sequence"],
        })
    return table
