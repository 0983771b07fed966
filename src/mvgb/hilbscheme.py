"""Census of monomial ideals with the multiview Hilbert function: constrained
search over squarefree generator supports, orbit classes, and tangent
statistics."""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from math import comb, prod

from .monomial import MonomialIdeal, _orbits, _sort_key, multiview_profiles
from .polyring import Ring, format_monomial
from .tangent import tangent_dimension

__all__ = ["monomial_ideal_census", "census", "CensusResult", "census_hash"]


def _census_psi(ring):
    """Per profile of a squarefree support (its count of variables in each
    block), how many supports of that profile lie in the ideal: all of them
    but the standard ones of multiview_profiles."""
    phi = multiview_profiles(ring.n)
    psi = {k: prod(comb(3, ki) for ki in k) - phi.get(k, 0)
           for k in itertools.product(range(4), repeat=ring.n)}
    if min(psi.values()) < 0:
        raise AssertionError("negative deficit; closed form inconsistent")
    return psi


def _groups(blocks, psi):
    """(groups, supersets) for _search.  One group per profile of a nonempty
    support, in level order: its supports, the bits of its supports, its
    count psi, and the (bits, psi) of every other profile componentwise
    above it, which alone receive supersets of its supports.  A profile
    whose psi is all its supports cannot exceed it and is left out."""
    nv = sum(len(b) for b in blocks)
    block_masks = [sum(1 << v for v in b) for b in blocks]
    masks = {}
    for S in range(1, 1 << nv):
        k = tuple((S & bm).bit_count() for bm in block_masks)
        masks.setdefault(k, []).append(S)
    bits = {k: sum(1 << S for S in ms) for k, ms in masks.items()}
    groups = []
    for k in sorted(masks, key=lambda k: (sum(k), k)):
        above = [(bits[h], psi[h]) for h in masks
                 if h != k and psi[h] < len(masks[h])
                 and all(a >= b for a, b in zip(h, k))]
        groups.append((masks[k], bits[k], psi[k], above))
    full = (1 << nv) - 1
    supersets = []
    for S in range(1 << nv):
        acc, rest = 0, full & ~S
        sub = rest
        while True:
            acc |= 1 << (S | sub)
            if sub == 0:
                break
            sub = (sub - 1) & rest
        supersets.append(acc)
    return groups, supersets


def _search(groups, supersets, chosen=()):
    """Every tuple of generator supports whose up-set holds psi supports of
    each group's profile.  Only a group whose count is still short picks
    supports; after each pick, the profiles above it must stay within
    their counts.  Given picks in chosen, the search starts from their
    up-set and finds the answers that extend it ([] if it breaks a count)."""
    results, up = [], 0
    for S in chosen:
        up |= supersets[S]
    if any((up & bits).bit_count() > psi for _, bits, psi, _ in groups):
        return results

    def walk(first, forced, chosen):
        for g in range(first, len(groups)):
            masks, bits, psi, above = groups[g]
            need = psi - (forced & bits).bit_count()
            if need:
                free = [S for S in masks if not forced >> S & 1]
                pick(g + 1, free, 0, need, above, forced, chosen)
                return
        results.append(chosen)

    def pick(g, free, start, need, above, forced, chosen):
        for i in range(start, len(free) - need + 1):
            S = free[i]
            f = forced | supersets[S]
            if all((f & bits).bit_count() <= cap for bits, cap in above):
                if need == 1:
                    walk(g, f, chosen + (S,))
                else:
                    pick(g, free, i + 1, need - 1, above, f, chosen + (S,))

    walk(0, up, tuple(chosen))
    return results


def _pattern_orbits(ring, psi):
    """The orbits of the pair patterns under the group (S3)^n x| S_n, as
    (representative, orbit size) pairs.  A pair pattern picks one of the 9
    supports of each pair profile e_i+e_j.  Each such profile has psi 1 and
    every profile below it psi 0, so every answer holds exactly one pattern,
    and the group maps the answers through a pattern one-to-one onto those
    through its image."""
    n = ring.n
    pairs = list(itertools.combinations(range(n), 2))
    for pair in pairs:
        k = tuple(int(c in pair) for c in range(n))
        below = [h for h in psi
                 if h != k and all(a <= b for a, b in zip(h, k))]
        if psi[k] != 1 or any(psi[h] for h in below):
            raise AssertionError("pair profile %r breaks the pattern premise"
                                 % (k,))
    blocks = ring.blocks()
    supports = [[1 << u | 1 << v for u in blocks[i] for v in blocks[j]]
                for i, j in pairs]
    return [(pattern, len(keys)) for pattern, _, keys
            in _orbits(n, itertools.product(*supports))]


def _answer_orbits(ring, psi):
    """The group orbits of the census answers, as one array per orbit with
    a row of sorted support masks per member: the orbits of the search's
    answers through one pattern of each pattern orbit.  Their members must
    number the sum over pattern orbits of orbit size times answers."""
    groups, supersets = _groups(ring.blocks(), psi)
    walked, expected = [], 0
    for pattern, size in _pattern_orbits(ring, psi):
        walked.append(_search(groups, supersets, pattern))
        expected += size * len(walked[-1])
    orbits = [rows for _, rows, _
              in _orbits(ring.n, itertools.chain.from_iterable(walked))]
    if sum(map(len, orbits)) != expected:
        raise AssertionError("%d census ideals listed, %d counted by pattern "
                             "orbits" % (sum(map(len, orbits)), expected))
    return orbits


def monomial_ideal_census(n, classes=None):
    """All squarefree-generated monomial ideals with the closed-form Hilbert
    function, sorted by ideal_key: the union of the group orbits of the
    search's answers through one pattern of each pattern orbit.  A list
    passed as classes receives the orbit classes as (representative,
    members) pairs, in the order and form of symmetry_orbits."""
    if n not in (2, 3):
        raise ValueError("census implemented for n = 2 and n = 3")
    import numpy as np

    ring = Ring(n)
    nv = ring.nvars
    orbits = _answer_orbits(ring, _census_psi(ring))
    # Each image is an antichain already: its generators are ordered by a
    # per-support key.  ideal_key compares the generators' places in
    # monomial order, padded with -1 so that a prefix comes first.
    monos = [tuple((v, 1) for v in range(nv) if S >> v & 1)
             for S in range(1 << nv)]
    key = _sort_key(ring)
    by_key = np.array(sorted(range(1 << nv), key=lambda S: key(monos[S])))
    rank = np.argsort(by_key)
    lex = np.argsort(sorted(range(1 << nv), key=monos.__getitem__))
    lex = lex.astype(np.int16)   # small sort keys: 2 bytes per generator
    width = max(rows.shape[1] for rows in orbits)
    built, places, label = [], [], []
    for c, rows in enumerate(orbits):
        ranked = rank[rows]
        ranked.sort(axis=1)
        rows = by_key[ranked]
        built += [MonomialIdeal._of_minimal(ring, [monos[S] for S in gens])
                  for gens in rows.tolist()]
        places.append(np.pad(lex[rows], ((0, 0), (0, width - rows.shape[1])),
                             constant_values=-1))
        label += [c] * len(rows)
    ideals, members = [], [[] for _ in orbits]
    for i in np.lexsort(np.concatenate(places).T[::-1]).tolist():
        I, c = built[i], label[i]
        if not members[c] and classes is not None:
            classes.append((I, members[c]))
        members[c].append(I)
        ideals.append(I)
    return ideals


@dataclass
class CensusResult:
    n: int
    ideals: list
    orbits: list
    tangent: dict


def census(n, tangent=False):
    """Full census with orbit classes and optional per-class tangent data."""
    orbits = []
    ideals = monomial_ideal_census(n, orbits)
    tangents = {}
    if tangent:
        for idx, (rep, _) in enumerate(orbits):
            tangents[idx] = tangent_dimension(rep)
    return CensusResult(n, ideals, orbits, tangents)


def census_hash(ideals):
    """Content hash of the census serialized by ideal_lines."""
    names, lines = {}, []   # names: ring -> monomial -> its text, made once
    for I in ideals:
        known = names.setdefault(I.ring, {})
        for g in I.gens:
            if g not in known:
                known[g] = format_monomial(I.ring, g)
        lines.append(", ".join([known[g] for g in I.gens]))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()
