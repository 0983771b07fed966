"""Census of monomial ideals with the multiview Hilbert function: constrained
search over squarefree generator supports, orbit classes, and tangent
statistics."""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from math import comb

from .monomial import (
    MonomialIdeal, generic_initial_ideal, ideal_key, ideal_lines,
    multiview_hilbert_mismatch, standard_profiles, symmetry_orbits,
)
from .polyring import Ring, m_from_pairs
from .tangent import tangent_dimension

__all__ = [
    "monomial_ideal_census", "census", "CensusResult",
    "has_multiview_hilbert_function", "census_hash",
]


def _census_tables(n):
    ring = Ring(n)
    nv = 3 * n
    blocks = ring.blocks()
    supports = list(range(1 << nv))
    profile_of = []
    for S in supports:
        profile_of.append(tuple(
            sum(1 for v in b if S >> v & 1) for b in blocks))
    # the closed form's counts of standard support patterns per profile
    # are those of any squarefree ideal that has it on the box, such as M_n
    generic = generic_initial_ideal(n)
    if multiview_hilbert_mismatch(generic) is not None:
        raise AssertionError("generic initial ideal misses the closed form")
    phi = standard_profiles(generic)
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
    """Content hash of the canonically serialized census."""
    text = "\n".join(", ".join(ideal_lines(I)) for I in ideals)
    return hashlib.sha256(text.encode()).hexdigest()
