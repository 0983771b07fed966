"""Census of monomial ideals with the multiview Hilbert function: constrained
search over squarefree generator supports, orbit classes, and tangent
statistics."""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .exactalg import Matrix, inverse
from .monomial import (
    MonomialIdeal, ideal_key, ideal_lines, multiview_hilbert_function,
    standard_count_box, support_transform, symmetry_orbits,
)
from .polyring import Ring, m_from_pairs
from .tangent import tangent_dimension

__all__ = [
    "monomial_ideal_census", "census", "CensusResult",
    "has_multiview_hilbert_function", "census_hash",
]


def _standard_profile_counts(n, bound=3):
    """How many standard support patterns each per-block size profile must
    contribute, solved from the closed-form counts over the box.

    The count at multidegree u is sum over profiles k of N(k) * prod_i
    C(u_i - 1, k_i - 1); the transform is triangular per coordinate, so the
    profile counts N(k) are determined (and integral).
    """
    inv = inverse(Matrix([[Fraction(t) for t in row]
                          for row in support_transform(bound, bound)])).rows
    size = bound + 1
    phi = {}
    for k in itertools.product(range(size), repeat=n):
        total = Fraction(0)
        for u in itertools.product(range(size), repeat=n):
            w = Fraction(1)
            for ki, ui in zip(k, u):
                w *= inv[ki][ui]
                if not w:
                    break
            if w:
                total += w * multiview_hilbert_function(n, u)
        assert total.denominator == 1
        phi[k] = int(total)
    return phi


def _census_tables(n):
    ring = Ring(n)
    nv = 3 * n
    blocks = ring.blocks()
    supports = list(range(1 << nv))
    profile_of = []
    for S in supports:
        profile_of.append(tuple(
            sum(1 for v in b if S >> v & 1) for b in blocks))
    phi = _standard_profile_counts(n)
    psi = {}
    for k in set(profile_of):
        total = 1
        for ki in k:
            total *= comb(3, ki)
        psi[k] = total - phi[k]
        if psi[k] < 0:
            raise AssertionError("negative deficit; closed form inconsistent")
    by_level = {}
    for S in supports:
        lvl = bin(S).count("1")
        if lvl == 0:
            continue
        by_level.setdefault(lvl, {}).setdefault(profile_of[S], []).append(S)
    supersets = [0] * (1 << nv)
    for S in supports:
        acc = 0
        rest = ((1 << nv) - 1) & ~S
        sub = rest
        while True:
            acc |= 1 << (S | sub)
            if sub == 0:
                break
            sub = (sub - 1) & rest
        supersets[S] = acc
    profile_bits = {}
    for S in supports:
        profile_bits.setdefault(profile_of[S], 0)
        profile_bits[profile_of[S]] |= 1 << S
    return ring, psi, by_level, supersets, profile_bits


def monomial_ideal_census(n):
    """All squarefree-generated monomial ideals with the closed-form Hilbert
    function, by levelwise constrained search over generator supports."""
    if n not in (2, 3):
        raise ValueError("census implemented for n = 2 and n = 3")
    ring, psi, by_level, supersets, profile_bits = _census_tables(n)
    nv = 3 * n
    levels = []
    for lvl in range(1, nv + 1):
        groups = sorted(by_level.get(lvl, {}).items())
        levels.append([(k, masks) for k, masks in groups])
    higher_profiles = []
    for li in range(len(levels)):
        later = []
        for lj in range(li + 1, len(levels)):
            for k, _ in levels[lj]:
                later.append((profile_bits[k], psi[k]))
        higher_profiles.append(later)
    results = []
    chosen = []
    forced = 0

    def feasible(level_idx):
        for bits, cap in higher_profiles[level_idx]:
            if (forced & bits).bit_count() > cap:
                return False
        return True

    def choose_groups(level_idx, groups):
        nonlocal forced
        if not groups:
            if level_idx + 1 == len(levels):
                results.append(tuple(chosen))
            else:
                process_level(level_idx + 1)
            return
        (profile, masks), rest = groups[0], groups[1:]
        free = [S for S in masks if not (forced >> S) & 1]
        need = psi[profile] - (len(masks) - len(free))
        if need < 0 or need > len(free):
            return
        for combo in itertools.combinations(free, need):
            deltas = []
            ok = True
            for S in combo:
                delta = supersets[S] & ~forced
                forced |= delta
                deltas.append(delta)
                chosen.append(S)
            if need and not feasible(level_idx):
                ok = False
            if ok:
                choose_groups(level_idx, rest)
            for S, delta in zip(reversed(combo), reversed(deltas)):
                forced ^= delta
                chosen.pop()

    def process_level(level_idx):
        choose_groups(level_idx, levels[level_idx])

    process_level(0)
    ideals = []
    for gens in results:
        monos = []
        for S in gens:
            monos.append(m_from_pairs([(v, 1) for v in range(nv)
                                       if S >> v & 1]))
        ideals.append(MonomialIdeal(ring, monos))
    ideals.sort(key=ideal_key)
    return ideals


def has_multiview_hilbert_function(I, n=None):
    """Membership test: squarefree generators and closed-form standard
    counts at every multidegree in the box (which then determine all)."""
    n = n if n is not None else I.ring.n
    if not I.is_squarefree():
        return False
    box = standard_count_box(I, 3)
    return all(v == multiview_hilbert_function(n, u) for u, v in box.items())


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
    """Content hash of the canonically serialized census."""
    text = "\n".join(", ".join(ideal_lines(I)) for I in ideals)
    return hashlib.sha256(text.encode()).hexdigest()
