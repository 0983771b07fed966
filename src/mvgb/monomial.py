"""Monomial ideal combinatorics: membership, minimal generators, multigraded
standard-monomial counting, minimal primes, Borel fixedness, facet complexes
with shelling checks, and the named ideals of multiview geometry."""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import comb, prod
from types import MappingProxyType

from .polyring import (
    Polynomial, Ring, format_monomial, m_deg, m_div, m_divides, m_exp,
    m_from_pairs, m_lcm, m_mul, m_one, m_squarefree, m_var, plain_ring,
)

__all__ = [
    "MonomialIdeal", "generic_initial_ideal", "collinear_initial_ideal",
    "multiview_hilbert_function", "standard_monomials",
    "standard_monomial_count", "standard_count_box",
    "multiview_hilbert_mismatch", "has_multiview_hilbert_function",
    "multiview_profiles", "standard_profiles",
    "minimal_primes", "multidegree_support", "is_borel_fixed", "FacetComplex",
    "stanley_reisner_complex", "is_shelling", "generic_shelling_order",
    "relabel", "symmetry_orbits", "ideal_key",
]


def _sort_key(ring):
    """Degree first, then the block order's key (the dense exponent vector)
    negated."""
    nvars = ring.nvars

    def key(m):
        out = [0] * nvars
        for v, e in m:
            out[v] = -e
        return (m_deg(m),) + tuple(out)

    return key


def _support_mask(mono):
    """Bitmask of the variables that divide the monomial."""
    mask = 0
    for v, _ in mono:
        mask |= 1 << v
    return mask


class MonomialIdeal:
    """A monomial ideal given by its canonical minimal generating set."""

    __slots__ = ("ring", "gens", "_tests")

    def __init__(self, ring, monomials):
        ms = set(monomials)
        if m_one in ms:
            ms = {m_one}
        masked = [(_support_mask(m), m) for m in ms]
        minimal = [m for mask, m in masked
                   if not any(gmask & mask == gmask and g != m
                              and m_divides(g, m) for gmask, g in masked)]
        minimal.sort(key=_sort_key(ring))
        self.ring = ring
        self.gens = tuple(minimal)
        self._tests = None

    @classmethod
    def _of_minimal(cls, ring, gens):
        """The ideal of gens, taken as its minimal generators already in
        _sort_key order: no filter, no sort."""
        I = cls.__new__(cls)
        I.ring, I.gens, I._tests = ring, tuple(gens), None
        return I

    def __contains__(self, mono):
        # A generator divides mono only if its support is a subset of mono's.
        # For a squarefree generator (stored as None) that is the whole test;
        # otherwise it only filters, and the exponents decide.
        tests = self._tests
        if tests is None:
            tests = self._tests = tuple(
                (_support_mask(g), None if m_squarefree(g) else g)
                for g in self.gens)
        mask = _support_mask(mono)
        for gmask, g in tests:
            if gmask & mask == gmask and (g is None or m_divides(g, mono)):
                return True
        return False

    def is_squarefree(self):
        return all(e == 1 for g in self.gens for _, e in g)

    def support_masks(self):
        return [_support_mask(g) for g in self.gens]

    def intersection(self, other):
        if other.ring != self.ring:
            raise ValueError("ideals from different rings")
        return MonomialIdeal(self.ring, [m_lcm(a, b) for a in self.gens
                                         for b in other.gens])

    def polynomials(self):
        return [Polynomial.monomial(self.ring, g) for g in self.gens]

    def __len__(self):
        return len(self.gens)

    def __eq__(self, other):
        return (isinstance(other, MonomialIdeal) and self.ring == other.ring
                and self.gens == other.gens)

    def __hash__(self):
        return hash((self.ring, self.gens))

    def __repr__(self):
        return "MonomialIdeal<%s>" % ", ".join(
            format_monomial(self.ring, g) for g in self.gens)


def ideal_key(I):
    """Canonical hashable key, usable for deterministic sorting."""
    return I.gens


def ideal_lines(I):
    return [format_monomial(I.ring, g) for g in I.gens]


# ---------------------------------------------------------------------------
# the named ideals

def generic_initial_ideal(n):
    """Minimal generators x_i x_j, x_i y_j y_k, y_i y_j y_k y_l over distinct
    camera indices: the common initial ideal of generic multiview ideals."""
    if n < 2:
        raise ValueError("need n >= 2")
    ring = Ring(n)
    gens = []
    x = [ring.var("x", i) for i in range(1, n + 1)]
    y = [ring.var("y", i) for i in range(1, n + 1)]
    for i, j in itertools.combinations(range(n), 2):
        gens.append(m_from_pairs([(x[i], 1), (x[j], 1)]))
    for trip in itertools.combinations(range(n), 3):
        for i in trip:
            rest = [t for t in trip if t != i]
            gens.append(m_from_pairs([(x[i], 1)] + [(y[j], 1) for j in rest]))
    for quad in itertools.combinations(range(n), 4):
        gens.append(m_from_pairs([(y[i], 1) for i in quad]))
    return MonomialIdeal(ring, gens)


def collinear_initial_ideal(n):
    """Minimal generators x_i y_j (i<j) and x_i z_j x_k, y_i z_j y_k,
    y_i z_j x_k (i<j<k): the lex initial ideal of the collinear degeneration."""
    if n < 2:
        raise ValueError("need n >= 2")
    ring = Ring(n)
    gens = []
    x = [ring.var("x", i) for i in range(1, n + 1)]
    y = [ring.var("y", i) for i in range(1, n + 1)]
    z = [ring.var("z", i) for i in range(1, n + 1)]
    for i, j in itertools.combinations(range(n), 2):
        gens.append(m_from_pairs([(x[i], 1), (y[j], 1)]))
    for i, j, k in itertools.combinations(range(n), 3):
        gens.append(m_from_pairs([(x[i], 1), (z[j], 1), (x[k], 1)]))
        gens.append(m_from_pairs([(y[i], 1), (z[j], 1), (y[k], 1)]))
        gens.append(m_from_pairs([(y[i], 1), (z[j], 1), (x[k], 1)]))
    return MonomialIdeal(ring, gens)


def multiview_hilbert_function(n, u):
    """binom(u1+...+un+3, 3) - sum_i binom(u_i+2, 3)."""
    if len(u) != n:
        raise ValueError("multidegree length mismatch")
    return comb(sum(u) + 3, 3) - sum(comb(ui + 2, 3) for ui in u)


# ---------------------------------------------------------------------------
# standard monomial counting

def standard_monomials(I, u):
    """All monomials of multidegree u outside the ideal."""
    ring = plain_ring(I.ring, "standard monomials")
    if len(u) != ring.n:
        raise ValueError("multidegree length mismatch")
    out = []
    for parts in itertools.product(*[
            itertools.combinations_with_replacement(b, d)
            for b, d in zip(ring.blocks(), u)]):
        m = m_from_pairs((v, 1) for part in parts for v in part)
        if m not in I:
            out.append(m)
    return out


def _support_row(u):
    """C(u-1, k-1) for k <= 3: the number of monomials of degree u on a
    block whose support is one given set of k variables (1 for u = k = 0)."""
    return [comb(u - 1, k - 1) if u and k else int(u == k) for k in range(4)]


def _contract(table, rows, n):
    """Contract each of the n axes of a tensor {index tuple: entry} with the
    matrix rows: index j of an axis gets sum_i rows[j][i] * entry at i."""
    for axis in range(n):
        new = {}
        for key, cnt in table.items():
            for j, row in enumerate(rows):
                f = row[key[axis]]
                if f:
                    nk = key[:axis] + (j,) + key[axis + 1:]
                    new[nk] = new.get(nk, 0) + f * cnt
        table = new
    return table


@lru_cache(maxsize=None)
def multiview_profiles(n):
    """The standard_profiles of every squarefree ideal with
    multiview_hilbert_function, read-only, from the closed form alone: per
    axis, T[u][k] = C(u-1, k-1) (u, k <= 3) maps pattern counts to box
    counts, and its inverse is (-1)^(k-u) C(k-1, u-1)."""
    box = {u: multiview_hilbert_function(n, u)
           for u in itertools.product(range(4), repeat=n)}
    inverse = [[(-1) ** (k - u) * c for u, c in enumerate(_support_row(k))]
               for k in range(4)]
    return MappingProxyType({k: c for k, c in _contract(box, inverse, n).items()
                             if c})


def standard_profiles(I):
    """Counts of the standard support patterns of a squarefree ideal (one
    variable subset per camera, containing no generator's support), keyed
    by the tuple of subset sizes per camera."""
    ring = plain_ring(I.ring, "standard profiles")
    if not I.is_squarefree():
        raise ValueError("standard profiles count squarefree ideals only")
    blocks, n = ring.blocks(), ring.n
    per_block = [[(sum(1 << v for v in sub), k) for k in range(len(b) + 1)
                  for sub in itertools.combinations(b, k)] for b in blocks]
    # A generator can first divide a pattern once its last camera is chosen.
    # It is split there into its bits on earlier cameras and on that one;
    # a prefix is dropped with all its extensions as soon as one divides it.
    completed = [[] for _ in range(n)]
    for g in I.support_masks():
        last = max((v % n for v in _bits(g)), default=0)
        own = sum(1 << v for v in blocks[last]) & g
        completed[last].append((g ^ own, own))
    counts = Counter()

    def rec(idx, mask, sizes):
        live = [own for low, own in completed[idx] if low & mask == low]
        for sub, k in per_block[idx]:
            if any(own & sub == own for own in live):
                continue
            if idx + 1 == n:
                counts[sizes + (k,)] += 1
            else:
                rec(idx + 1, mask | sub, sizes + (k,))

    rec(0, 0, ())
    return counts


def standard_monomial_count(I, u):
    """Number of monomials of multidegree u divisible by no generator of I.

    A squarefree ideal is counted from its standard support patterns.
    Otherwise take a variable v with exponent D >= 2 in some generator.  A
    monomial v^k m, v not dividing m, is standard when m avoids the
    generators with v-exponent <= k, read without v: for k < D that is the
    ideal of those and of v itself, in degree u - k; every k >= D sees all
    generators, v-free, and v^D times their standard monomials of degree
    u - D counts that whole tail.  Each branch leaves v squarefree.
    """
    if len(u) != plain_ring(I.ring, "standard counts").n:
        raise ValueError("multidegree length mismatch")
    return _split_count(I, tuple(u), {}, {})


def _split_count(I, u, counts, profiles):
    """standard_monomial_count, reusing the count of every branch (its
    generator set and degree) already met and the profiles of every
    squarefree ideal already counted: the branches of a split often reach
    one ideal again, in several degrees, and the profiles do not depend on
    the degree."""
    ring = I.ring
    if I.is_squarefree():
        table = profiles.get(I.gens)
        if table is None:
            table = profiles[I.gens] = standard_profiles(I)
        rows = [_support_row(d) for d in u]
        return sum(cnt * prod(row[k] for row, k in zip(rows, sizes))
                   for sizes, cnt in table.items())
    v = next(w for g in I.gens for w, e in g if e > 1)
    top = max(m_exp(g, v) for g in I.gens)
    cam = v % ring.n
    stripped = [(m_exp(g, v), tuple(t for t in g if t[0] != v))
                for g in I.gens]

    def branch(gens, k):
        key = frozenset(gens), u[:cam] + (u[cam] - k,) + u[cam + 1:]
        got = counts.get(key)
        if got is None:
            got = counts[key] = _split_count(
                MonomialIdeal(ring, key[0]), key[1], counts, profiles)
        return got

    total = sum(branch([g for e, g in stripped if e <= k] + [m_var(v)], k)
                for k in range(min(top, u[cam] + 1)))
    if u[cam] >= top:
        total += branch([g for _, g in stripped], top)
    return total


def standard_count_box(I, bound=3):
    """Table of standard-monomial counts for every multidegree u <= bound:
    for squarefree generators, the standard pattern counts contracted per
    axis; otherwise every entry split as in standard_monomial_count, the
    entries sharing one memo of the ideals and degrees met."""
    n = plain_ring(I.ring, "standard counts").n
    box = itertools.product(range(bound + 1), repeat=n)
    if not I.is_squarefree():
        counts, profiles = {}, {}
        return {u: _split_count(I, u, counts, profiles) for u in box}
    table = _contract(standard_profiles(I),
                      [_support_row(u) for u in range(bound + 1)], n)
    return {u: table.get(u, 0) for u in box}


def multiview_hilbert_mismatch(I):
    """The first multidegree u <= 3, in box order, whose standard count
    differs from multiview_hilbert_function; None when the whole box agrees.

    Requires squarefree generators.  The box u <= 3 then decides every
    multidegree.  It is read off the pattern counts: the box is them times
    a lower unitriangular matrix per axis (see multiview_profiles), so the
    first profile whose count differs is the first such multidegree.
    """
    n = plain_ring(I.ring, "Hilbert function tests").n
    got, want = standard_profiles(I), multiview_profiles(n)
    return next((k for k in itertools.product(range(4), repeat=n)
                 if got[k] != want.get(k, 0)), None)


def has_multiview_hilbert_function(I):
    """Membership test: squarefree generators and closed-form standard
    counts at every multidegree in the box (which then determine all)."""
    return I.is_squarefree() and multiview_hilbert_mismatch(I) is None


# ---------------------------------------------------------------------------
# minimal primes and facet complexes

def _bits(mask):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def _minimal_transversals(edges):
    """All minimal hitting sets of a list of nonempty bitmask edges."""
    if not edges:
        return [0]
    results = set()

    def rec(cover, banned, remaining):
        if not remaining:
            results.add(cover)
            return
        edge = min(remaining, key=lambda e: bin(e).count("1"))
        local_ban = banned
        for v in _bits(edge & ~banned):
            bit = 1 << v
            rest = [e for e in remaining if not e & bit]
            rec(cover | bit, local_ban, rest)
            local_ban |= bit

    rec(0, 0, list(edges))
    out = []
    for c in sorted(results, key=lambda m: bin(m).count("1")):
        if not any(kept & c == kept for kept in out):
            out.append(c)
    return out


def minimal_primes(I):
    """Minimal primes of a squarefree monomial ideal, each a variable set."""
    if not I.is_squarefree():
        raise ValueError("minimal primes implemented for squarefree ideals")
    if not I.gens:
        return []
    edges = I.support_masks()
    covers = _minimal_transversals(edges)
    primes = [frozenset(_bits(c)) for c in covers]
    return sorted(primes, key=lambda p: (len(p), sorted(p)))


def multidegree_support(I):
    """Multidegree as a multiset of per-camera variable counts, one term per
    minimal prime of minimal codimension."""
    primes = minimal_primes(I)
    if not primes:
        return Counter()
    codim = min(len(p) for p in primes)
    ring = I.ring
    terms = Counter()
    for p in primes:
        if len(p) != codim:
            continue
        vec = [0] * ring.n
        for v in p:
            vec[v % ring.n] += 1
        terms[tuple(vec)] += 1
    return terms


def is_borel_fixed(I):
    """Exchange test: replacing one z_i by y_i or x_i, or one y_i by x_i, in
    any generator must stay in the ideal.  Returns (flag, witness)."""
    ring = plain_ring(I.ring, "borel test")
    for g in I.gens:
        for i in range(1, ring.n + 1):
            moves = [("z", "y"), ("z", "x"), ("y", "x")]
            for frm, to in moves:
                vf, vt = ring.var(frm, i), ring.var(to, i)
                q = m_div(g, m_var(vf))
                if q is None:
                    continue
                m2 = m_mul(q, m_var(vt))
                if m2 not in I:
                    return False, (g, ring.name(vf), ring.name(vt), m2)
    return True, None


@dataclass(frozen=True)
class FacetComplex:
    ring: Ring
    facets: tuple
    labels: tuple

    def as_json(self):
        names = [self.ring.name(v) for v in range(self.ring.nvars)]
        return {
            "vertices": names,
            "facets": [sorted(self.ring.name(v) for v in f)
                       for f in self.facets],
            "labels": list(self.labels),
        }


def _facet_label(ring, facet):
    dims = []
    for b in ring.blocks():
        k = sum(1 for v in b if v in facet)
        if k:
            dims.append(k - 1)
    pos = sorted(d for d in dims if d > 0)
    if pos == [1, 1, 1]:
        return "cube"
    if pos == [1, 2]:
        return "prism"
    return None


def stanley_reisner_complex(I):
    """Facets are the complements of the minimal primes."""
    ring = I.ring
    allvars = frozenset(range(ring.nvars))
    facets = tuple(allvars - p for p in minimal_primes(I))
    labels = tuple(_facet_label(ring, f) for f in facets)
    return FacetComplex(ring, facets, labels)


def is_shelling(facets):
    """Check that the facet sequence is a shelling: every facet after the
    first has a unique minimal face not contained in earlier facets."""
    facets = [frozenset(f) for f in facets]
    for a, b in itertools.combinations(facets, 2):
        if a <= b or b <= a:
            raise ValueError("facet list contains a containment")
    for j in range(1, len(facets)):
        diffs = []
        for i in range(j):
            d = facets[j] - facets[i]
            diffs.append(sum(1 << v for v in d))
        if len(_minimal_transversals(diffs)) != 1:
            return False
    return True


def generic_shelling_order(n):
    """The facet order of the generic initial ideal induced by listing the
    defining vectors u lexicographically, from (0,1,2,...,2) to (2,...,2,1,0)."""
    ring = Ring(n)
    us = []
    for trip in itertools.combinations(range(n), 3):
        u = [2] * n
        for t in trip:
            u[t] = 1
        us.append(tuple(u))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            u = [2] * n
            u[i] = 0
            u[j] = 1
            us.append(tuple(u))
    us.sort()
    letters = ("x", "y", "z")
    facets = []
    for u in us:
        f = frozenset(ring.var(letters[i - 1], j + 1)
                      for j in range(n) for i in range(1, 4) if i > u[j])
        facets.append(f)
    return facets


# ---------------------------------------------------------------------------
# relabeling symmetry

def _variable_images(n, camera_perm, letter_perms):
    """Entry v is the image of variable v = slot * n + c under the letter
    permutations and the camera relabeling, as relabel takes them."""
    return [letter_perms[c][slot] * n + camera_perm[c]
            for slot in range(3) for c in range(n)]


def relabel(I, camera_perm, letter_perms):
    """Image of the ideal under per-camera letter permutations followed by a
    relabeling of the cameras.

    camera_perm maps old 0-based camera c to camera_perm[c]; letter_perms[c]
    maps old letter slot (0=x, 1=y, 2=z) to its new slot.  Raises
    ValueError unless both are permutations, one letter map per camera.
    """
    n = I.ring.n
    if (sorted(camera_perm) != list(range(n)) or len(letter_perms) != n
            or any(sorted(p) != [0, 1, 2] for p in letter_perms)):
        raise ValueError("relabel needs a permutation of the %d cameras and "
                         "one permutation of (0, 1, 2) per camera" % n)
    images = _variable_images(n, camera_perm, letter_perms)
    return MonomialIdeal(I.ring, [m_from_pairs([(images[v], e) for v, e in g])
                                  for g in I.gens])


@lru_cache(maxsize=None)
def _group_bit_images(n):
    """The group (S3)^n x| S_n as an (|G|, 3n) array: entry [k, v] is the
    bit of the image of variable v under element k, the identity first."""
    import numpy as np

    perms3 = list(itertools.permutations(range(3)))
    out = [_variable_images(n, tau, combo)
           for tau in itertools.permutations(range(n))
           for combo in itertools.product(perms3, repeat=n)]
    return np.int64(1) << np.array(out, dtype=np.int64)


def canonical_form(I):
    """The lexicographically minimal sorted support masks over the images of
    a squarefree ideal under the whole group, and the size of its orbit
    (the number of distinct images)."""
    (_, rows, keys), = _orbits(I.ring.n, [_orbit_masks(I)])
    return tuple(rows[keys.index(min(keys))].tolist()), len(keys)


def _orbit_masks(I):
    """The support masks of I, checked: squarefree, plain ring, n <= 5."""
    plain_ring(I.ring, "symmetry orbits")
    if I.ring.n > 5:   # a table of 6^n n! rows; 3n-bit masks in 16-bit slots
        raise ValueError("symmetry orbits take at most 5 cameras, not %d"
                         % I.ring.n)
    if not I.is_squarefree():
        raise ValueError("orbits implemented for squarefree ideals")
    return I.support_masks()


def _orbit_key(masks):
    """The int key of a list of support masks: the masks sorted, in 16-bit
    slots behind a leading 1 that keeps lengths apart, so that keys of one
    length compare as their sorted masks do.  A 2-D array whose rows hold
    sorted masks gives the list of its rows' keys, read off its bytes."""
    if getattr(masks, "ndim", 1) == 1:
        key = 1
        for mask in sorted(masks):
            key = key << 16 | mask
        return key
    width = 2 * masks.shape[1]
    raw, top = masks.astype(">u2").tobytes(), 1 << 8 * width
    return [top | int.from_bytes(raw[k * width:(k + 1) * width], "big")
            for k in range(len(masks))]


def _orbits(n, mask_lists):
    """Walk lists of support masks over the plain ring of n cameras, opening
    the orbit of each list whose key no earlier orbit holds: yields (masks,
    rows, keys), rows the array of the distinct sorted masks of its images
    under the group and keys their _orbit_key in row order."""
    import numpy as np

    known = set()
    for masks in mask_lists:
        if _orbit_key(masks) in known:
            continue
        bits = np.array(masks, dtype=np.int64) >> np.arange(3 * n)[:, None] & 1
        images = _group_bit_images(n) @ bits   # remapped support masks
        images.sort(axis=1)
        # the first of each distinct row, each row read as one opaque value
        first = np.unique(images.astype("u2").view("V%d" % (2 * len(masks))),
                          return_index=True)[1] if masks else [0]
        images = images[first]
        keys = _orbit_key(images)
        known.update(keys)
        yield masks, images, keys


def symmetry_orbits(ideals, strict=False):
    """Partition a set of squarefree monomial ideals into orbits of the
    action of per-camera letter permutations composed with camera
    relabeling; any other ideal raises ValueError.

    Each orbit is visited once: the images of its first unassigned member
    over the whole group pick out the other input members, so ideals related
    only through images outside the input set still land in one class.  With
    strict=True the input set must be closed under the action: each class
    must hold as many distinct ideals as its orbit has.
    Returns (representative, members) pairs sorted by representative key;
    the representative is the member with the smallest key.
    """
    ideals = list(ideals)
    masks, index = [], {}   # index: orbit key -> input positions
    for pos, I in enumerate(ideals):
        if I.ring != ideals[0].ring:
            raise ValueError("ideals from different rings: %r and %r"
                             % (ideals[0].ring, I.ring))
        masks.append(_orbit_masks(I))
        index.setdefault(_orbit_key(masks[-1]), []).append(pos)
    orbits = []
    for _, _, keys in _orbits(ideals[0].ring.n if ideals else 0, masks):
        found = [index.pop(k) for k in keys if k in index]
        if strict and len(found) != len(keys):
            raise ValueError("ideal set is not closed under the action")
        members = sorted((ideals[q] for p in found for q in p), key=ideal_key)
        orbits.append((members[0], members))
    orbits.sort(key=lambda o: ideal_key(o[0]))
    return orbits
