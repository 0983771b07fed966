"""Census of monomial ideals with the multiview Hilbert function: constrained
search over squarefree generator supports, orbit classes, and tangent
statistics."""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from math import comb, prod

from .monomial import (
    MonomialIdeal, _sort_key, ideal_key, multiview_hilbert_mismatch,
    multiview_profiles, symmetry_orbits,
)
from .polyring import Ring, format_monomial
from .tangent import tangent_dimension

__all__ = [
    "monomial_ideal_census", "census", "CensusResult",
    "has_multiview_hilbert_function", "census_hash",
]


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


def _swap_table(ring, S, T):
    """Each support mask's image under the letter transpositions that carry
    S's one letter onto T's in each camera (S and T of one profile)."""
    n, nv = ring.n, ring.nvars
    perm = list(range(nv))
    for v in range(nv):
        if S >> v & 1:   # w: T's letter in the camera of v
            w = next(u for u in range(v % n, nv, n) if T >> u & 1)
            perm[v], perm[w] = w, v
    return [sum(1 << perm[v] for v in range(nv) if M >> v & 1)
            for M in range(1 << nv)]


def monomial_ideal_census(n):
    """All squarefree-generated monomial ideals with the closed-form Hilbert
    function: the search's answers through one epipolar support, mapped
    onto those through the others by letter symmetry."""
    if n not in (2, 3):
        raise ValueError("census implemented for n = 2 and n = 3")
    ring = Ring(n)
    nv = ring.nvars
    groups, supersets = _groups(ring.blocks(), _census_psi(ring))
    # Per-camera letter permutations keep every profile, so they map the
    # answers onto themselves.  The first profile that branches (e_{n-1}+e_n,
    # the epipolar form's) has psi 1 and every one before it 0: each answer
    # holds one of its supports T, and the answers through S0 map onto those.
    firsts, _, psi, _ = next(g for g in groups if g[2])
    if psi != 1:
        raise AssertionError("first branching profile has psi %d" % psi)
    through = _search(groups, supersets, firsts[:1])
    monos = [tuple((v, 1) for v in range(nv) if S >> v & 1)
             for S in range(1 << nv)]
    # each answer is an antichain already; sort it by a per-support key
    key = list(map(_sort_key(ring), monos))
    ideals = [MonomialIdeal._of_minimal(
                  ring, [monos[S] for S in sorted(map(table.__getitem__, gens),
                                                  key=key.__getitem__)])
              for table in (_swap_table(ring, firsts[0], T) for T in firsts)
              for gens in through]
    ideals.sort(key=ideal_key)
    return ideals


def has_multiview_hilbert_function(I):
    """Membership test: squarefree generators and closed-form standard
    counts at every multidegree in the box (which then determine all)."""
    return I.is_squarefree() and multiview_hilbert_mismatch(I) is None


@dataclass
class CensusResult:
    n: int
    ideals: list
    orbits: list
    tangent: dict

    @property
    def counts(self):
        return {"ideals": len(self.ideals), "classes": len(self.orbits)}


def census(n, tangent=False):
    """Full census with orbit classes and optional per-class tangent data."""
    ideals = monomial_ideal_census(n)
    orbits = symmetry_orbits(ideals, strict=True)
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
