"""Camera configurations and their multiview ideals: genericity tests, the
maximal minors of the stacked camera-variable matrices, and the
torus-fixed and collinear camera families.  The minor of a camera pair is
the epipolar form: its coefficients are the fundamental matrix, and it is
zero exactly when the two focal points coincide."""

from __future__ import annotations

import itertools
import warnings
from fractions import Fraction

from .exactalg import (
    EpsRational, Matrix, det, eps, integer_row, inverse, kernel, rank,
)
from .groebner import IdealPresentation, eliminate
from .polyring import Polynomial, Ring, m_from_pairs, m_var

__all__ = [
    "CameraConfig", "FocalPoint", "focal_points", "is_generic",
    "sigma_minor", "multiview_generators", "minimal_multiview_generators",
    "multiview_ideal", "fundamental_matrix",
    "epipolar_form", "toric_cameras", "collinear_cameras",
    "extend_to_invertible", "diagonal_embedding_ideal",
    "multiview_ideal_via_elimination", "projectively_equal", "proportional",
]


class CameraConfig:
    """An n-tuple of rank-3 exact 3x4 camera matrices, n >= 2.

    The configuration holds its ring Ring(n), built once.  Row r of camera
    c (both 0-based) is global row 3c + r.  Brackets, the 4x4 determinants
    of camera rows, come from a table built on first use and kept on the
    instance: the six 2x2 minors of every pair of global rows, in ints over
    Q (each row scaled by the lcm of its denominators) and as rational
    functions for rows with entries in Q(e)."""

    __slots__ = ("matrices", "_ring", "_pairs", "_brackets")

    def __init__(self, matrices):
        ms = []
        for m in matrices:
            if not isinstance(m, Matrix):
                m = Matrix(m)
            if (m.nrows, m.ncols) != (3, 4):
                raise ValueError("camera matrices must be 3x4")
            if rank(m) != 3:
                raise ValueError("camera matrix must have rank 3")
            ms.append(m)
        if len(ms) < 2:
            raise ValueError("need at least two cameras")
        self.matrices = tuple(ms)
        self._ring = Ring(len(ms))
        self._pairs = None
        self._brackets = {}

    @property
    def n(self):
        return len(self.matrices)

    def ring(self):
        return self._ring

    def _pair_table(self):
        """(minors, scale) per global row pair g <= h: the 2x2 minors of the
        scaled rows over the column pairs in lex order, and the product of
        the two row scales.  A row with an entry in Q(e) keeps scale 1 and
        Q(e) entries, so every minor it enters is in Q(e), as its brackets
        are.  The pairs g == h have zero minors, so a bracket of a repeated
        row expands to a zero of the right field."""
        scaled = []
        for m in self.matrices:
            for row in m.rows:
                if any(isinstance(e, EpsRational) for e in row):
                    scaled.append(([EpsRational(e) for e in row], 1))
                else:
                    scaled.append(integer_row(row))
        cols = tuple(itertools.combinations(range(4), 2))
        self._pairs = {
            (g, h): (tuple(u[a] * v[b] - u[b] * v[a] for a, b in cols),
                     su * sv)
            for g, (u, su) in enumerate(scaled)
            for h, (v, sv) in enumerate(scaled) if g <= h}
        return self._pairs

    def _sorted_bracket(self, rows):
        """The bracket of global rows g0 <= g1 <= g2 <= g3: Laplace
        expansion along the first two rows, one product of 2x2 minors per
        column pair and its complement."""
        got = self._brackets.get(rows)
        if got is None:
            pairs = self._pairs or self._pair_table()
            (a0, a1, a2, a3, a4, a5), sa = pairs[rows[0], rows[1]]
            (b0, b1, b2, b3, b4, b5), sb = pairs[rows[2], rows[3]]
            got = a0 * b5 - a1 * b4 + a2 * b3 + a3 * b2 - a4 * b1 + a5 * b0
            if type(got) is int:
                got = Fraction(got, sa * sb)
            elif sa * sb != 1:
                got = got / (sa * sb)
            self._brackets[rows] = got
        return got

    def bracket(self, rows):
        """Determinant of the 4x4 matrix of camera rows (camera, row), both
        0-based, taken in the listed order."""
        if len(rows) != 4 or not all(0 <= c < self.n and 0 <= r < 3
                                     for c, r in rows):
            raise ValueError("a bracket takes four (camera, row) pairs "
                             "with camera < %d and row < 3" % self.n)
        g = [3 * c + r for c, r in rows]
        val = self._sorted_bracket(tuple(sorted(g)))
        swaps = sum(a > b for a, b in itertools.combinations(g, 2))
        return -val if swaps % 2 else val


class FocalPoint:
    """A projective center of projection: the kernel of one camera matrix."""

    __slots__ = ("camera", "coords")

    def __init__(self, camera, coords):
        self.camera = camera
        self.coords = tuple(coords)

    def __repr__(self):
        return "FocalPoint(%d, (%s))" % (
            self.camera, ":".join(str(c) for c in self.coords))


def projectively_equal(u, v):
    if len(u) != len(v):
        return False
    pivot = next((k for k, x in enumerate(v) if x), None)
    if pivot is None:
        return not any(u)
    if not u[pivot]:
        return False
    c = u[pivot] / v[pivot]
    return all(x == c * y for x, y in zip(u, v))


def proportional(p, q):
    """Is p a nonzero multiple of q (or are both zero)?"""
    monos = list(p.terms.keys() | q.terms.keys())
    return projectively_equal([p.coefficient(m) for m in monos],
                              [q.coefficient(m) for m in monos])


def focal_points(config):
    """One normalized kernel generator per camera (first nonzero entry 1)."""
    out = []
    for i, m in enumerate(config.matrices, start=1):
        basis = kernel(m)
        if len(basis) != 1:
            raise ValueError("camera %d does not have rank 3" % i)
        v = basis[0]
        pivot = next(x for x in v if x)
        out.append(FocalPoint(i, [x / pivot for x in v]))
    return out


def is_generic(config):
    """All 4x4 minors of the stacked 4x3n matrix of camera transposes must be
    nonzero.  Returns (flag, witness); the witness is the column quadruple of
    the first vanishing minor."""
    for quad in itertools.combinations(range(3 * config.n), 4):
        if not config._sorted_bracket(quad):
            return False, quad
    return True, None


def extend_to_invertible(config):
    """Extend each camera to an invertible 4x4 matrix by inserting a standard
    basis row on top (the first one that works)."""
    out = []
    for m in config.matrices:
        for k in range(4):
            top = [int(j == k) for j in range(4)]
            cand = Matrix([top] + [list(r) for r in m.rows])
            if det(cand):
                out.append(cand)
                break
        else:
            raise ValueError("camera cannot be extended")
    return out


def _checked_sigma(config, sigma):
    """sigma sorted, after checking that it names at least two distinct
    cameras of the configuration."""
    sigma = tuple(sorted(sigma))
    if len(sigma) < 2:
        raise ValueError("sigma needs at least two cameras")
    if len(set(sigma)) < len(sigma) or not all(
            isinstance(i, int) and 1 <= i <= config.n for i in sigma):
        raise ValueError("sigma must list distinct cameras in 1..%d, got %r"
                         % (config.n, sigma))
    return sigma


def sigma_minor(config, sigma, rows):
    """Maximal minor of the stacked matrix for the given global row subset,
    expanded as a sum of variable products times camera brackets.

    Expanding along the variable columns picks one row per camera block;
    the other four rows give the bracket.  The picked rows hold one variable
    of each camera of sigma, so each choice is a distinct monomial."""
    sigma = _checked_sigma(config, sigma)
    s = len(sigma)
    rows = sorted(rows)
    if len(rows) != s + 4 or len(set(rows)) < len(rows) or not all(
            isinstance(r, int) and 0 <= r < 3 * s for r in rows):
        raise ValueError("need %d distinct rows in 0..%d" % (s + 4, 3 * s - 1))
    ring = config.ring()
    letters = ring.letters
    # stacked row r is row r % 3 of camera sigma[r // 3]; sigma is sorted,
    # so the global rows keep the order of the stacked ones.  Per block:
    # the position of each row, its variable, and the block's other rows.
    picks, monos, rests = [], [], []
    for b, cam in enumerate(sigma):
        block = [(k, r % 3) for k, r in enumerate(rows) if r // 3 == b]
        picks.append([k for k, _ in block])
        monos.append([(ring.var(letters[l], cam), 1) for _, l in block])
        rests.append([tuple(3 * (cam - 1) + l for _, l in block
                            if l != chosen) for _, chosen in block])
    col_sign = sum(range(4, 4 + s)) % 2
    bracket = config._sorted_bracket
    terms = {}
    for pick, mono, rest in zip(itertools.product(*picks),
                                itertools.product(*monos),
                                itertools.product(*rests)):
        val = bracket(sum(rest, ()))
        if val:
            if (col_sign + sum(pick)) % 2:
                val = -val
            terms[tuple(sorted(mono))] = val
    return Polynomial(ring, terms)


def _sigma_subsets(n):
    for size in range(2, min(n, 4) + 1):
        subsets = itertools.combinations(range(1, n + 1), size)
        yield from sorted(subsets, key=lambda s: tuple(reversed(s)))


def multiview_generators(config):
    """All maximal minors of the stacked matrices over 2 <= |sigma| <= 4,
    zero minors dropped; cameras in colex order, row subsets in lex order.

    A pair minor vanishes exactly when the two focal points coincide, so a
    zero one raises the coincident-center warning, once per call."""
    out, warned = [], False
    for sigma in _sigma_subsets(config.n):
        s = len(sigma)
        for rows in itertools.combinations(range(3 * s), s + 4):
            p = sigma_minor(config, sigma, rows)
            if p.terms:
                out.append(p)
            elif s == 2 and not warned:
                warned = True
                warnings.warn("focal points are not pairwise distinct",
                              RuntimeWarning)
    return out


def minimal_multiview_generators(config):
    """The bilinear generators plus one trilinear minor per camera triple
    (the one dropping the first row of the two larger cameras)."""
    out = []
    for i, j in itertools.combinations(range(1, config.n + 1), 2):
        out.append(sigma_minor(config, (i, j), tuple(range(6))))
    for trip in itertools.combinations(range(1, config.n + 1), 3):
        rows = [r for r in range(9) if r not in (3, 6)]
        out.append(sigma_minor(config, trip, rows))
    return [p for p in out if p.terms]


def multiview_ideal(config):
    return IdealPresentation(config.ring(), multiview_generators(config))


def fundamental_matrix(config, i, j):
    """The 3x3 matrix F of the epipolar constraint p_j^T F p_i between views
    i and j: entry (a, b) is the pair minor's coefficient of letter a of
    camera j times letter b of camera i."""
    form = epipolar_form(config, i, j)
    ring = config.ring()
    return Matrix([[form.coefficient(m_from_pairs([(ring.var(a, j), 1),
                                                   (ring.var(b, i), 1)]))
                    for b in ring.letters] for a in ring.letters])


def epipolar_form(config, i, j):
    """The bilinear form p_j^T F p_i: the maximal minor of the pair, the
    same polynomial in either order of the views."""
    return sigma_minor(config, (i, j), tuple(range(6)))


def toric_cameras(n):
    """The torus-fixed configuration with focal points at the coordinate
    points; prefixes give the smaller cases."""
    if not 2 <= n <= 4:
        raise ValueError("torus-fixed family exists for n = 2, 3, 4")
    a1 = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    a2 = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    a3 = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    a4 = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    mats = [a1, a2, a3, a4][:n]
    return CameraConfig(mats)


def collinear_cameras(n, eps_value=None):
    """The one-parameter collinear family; symbolic over Q(e) by default, or
    specialized at a nonzero rational."""
    if n < 2:
        raise ValueError("need n >= 2")
    if eps_value is not None:
        eps_value = Fraction(eps_value)
        if eps_value == 0:
            raise ValueError("the family degenerates at 0; the limit is "
                             "taken at the ideal level, not the camera level")
    mats = []
    for i in range(1, n + 1):
        if eps_value is None:
            corner = eps(n - i)
        else:
            corner = eps_value ** (n - i)
        mats.append([[1, 1, 0, 0], [1, 0, 1, 0], [corner, 0, 0, 1]])
    return CameraConfig(mats)


def diagonal_embedding_ideal(config):
    """The ideal of 2x2 minors of the matrix whose i-th column is
    B_i^{-1} (t_i, x_i, y_i, z_i)^T, in Ring(n, aux=n): the aux variable
    t_i is the world coordinate w_i of camera i."""
    n = config.n
    ring = Ring(n, aux=n)
    cols = []
    for i, b in enumerate(extend_to_invertible(config), start=1):
        coords = [3 * n + i - 1] + [ring.var(L, i) for L in ring.letters]
        cols.append([Polynomial(ring, {m_var(v): c
                                       for v, c in zip(coords, row) if c})
                     for row in inverse(b).rows])
    gens = []
    for c1, c2 in itertools.combinations(range(n), 2):
        for r1, r2 in itertools.combinations(range(4), 2):
            p = cols[c1][r1] * cols[c2][r2] - cols[c1][r2] * cols[c2][r1]
            if p.terms:
                gens.append(p)
    return IdealPresentation(ring, gens)


def multiview_ideal_via_elimination(config):
    """Eliminate the aux variables from the diagonal embedding ideal."""
    base = config.ring()
    elim = eliminate(diagonal_embedding_ideal(config), range(base.nvars))
    return IdealPresentation(base, [p.in_ring(base) for p in elim.generators])

