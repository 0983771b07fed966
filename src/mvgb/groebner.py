"""Buchberger engine over Q and Q(e): reduced bases, normal forms, initial
ideals, ideal equality, elimination, intersection, multigraded Hilbert values,
term-order families, and the Hilbert-function certificate of a universal
basis over every term order."""

from __future__ import annotations

import heapq
import itertools
import random
from fractions import Fraction
from math import gcd, lcm

from .exactalg import EpsRational, content_scale
from .monomial import (
    MonomialIdeal, multiview_hilbert_mismatch, standard_monomial_count,
)
from .polyring import (
    LexOrder, Polynomial, WeightOrder, elimination_order, m_coprime,
    m_deg, m_div, m_divides, m_lcm, m_mul, m_var, block_order,
)

__all__ = [
    "IdealPresentation", "ideal", "reduced_groebner_basis", "normal_form",
    "initial_ideal", "ideal_equal", "eliminate", "intersect", "hilbert_value",
    "minimal_generators", "is_groebner_basis", "universal_groebner_check",
    "letter_rankings", "permuted_block_lex_orders", "random_weight_orders",
    "cone_certificates", "universal_basis_certificate",
]


# ---------------------------------------------------------------------------
# raw polynomial dictionaries
#
# Over Q the engine reduces in Python ints: every basis triple holds a
# primitive integer multiple of its polynomial, and a reduction step
# p <- (lc/g)*p - (c/g)*q*h with g = gcd(lc, c) keeps p integral.  Over Q(e)
# it divides in the field of rational functions.  A reduction settles its
# domain once, from the basis and the input together; the cancel step is the
# only part that differs.

def _is_eps(polys):
    """Does any coefficient of the term dicts lie outside Q?"""
    return any(isinstance(c, EpsRational) for t in polys for c in t.values())


def _cancel_q(lc, c):
    # g takes the sign of lc, so a = lc/g > 0 and the running scale of a
    # reduction only grows: it is 1 exactly when p was never multiplied
    g = gcd(lc, c) if lc > 0 else -gcd(lc, c)
    return lc // g, c // g


def _cancel_eps(lc, c):
    return 1, c / lc


def _cancel(eps):
    """The cancel step (a, b), a*c == b*lc, of the domain."""
    return _cancel_eps if eps else _cancel_q


def _content_normalize(terms):
    """The primitive integer multiple of a polynomial over Q, with int
    coefficients.  Its sign is left as it comes: scaling a basis element by a
    nonzero constant changes no remainder, under any order."""
    scale = content_scale(terms.values(), 1)
    return {m: (c * scale).numerator for m, c in terms.items()}


def _primitive(polys, eps):
    """The nonzero term dicts, as primitive integer multiples over Q and with
    the coefficients as given over Q(e)."""
    return [t if eps else _content_normalize(t) for t in polys if t]


def _prep(terms, key):
    lm = max(terms, key=key)
    return (lm, terms[lm], terms)


def _basis(polys, key, eps):
    """Prepared triples (leading monomial, coefficient, terms)."""
    return [_prep(t, key) for t in _primitive(polys, eps)]


def _nf_dict(p, G, key, cancel):
    """Full normal form of the dict p against prepared triples G.

    Returns (r, scale): the remainder is r / scale.  Over Q the scale is the
    product of the factors a by which the reduction multiplied p; over Q(e)
    it stays 1.
    """
    p = dict(p)
    out = []
    scale = 1
    while p:
        m = max(p, key=key)
        c = p.pop(m)
        for lm, lc, terms in G:
            q = m_div(m, lm)
            if q is not None:
                a, b = cancel(lc, c)
                if a != 1:
                    p = {mm: v * a for mm, v in p.items()}
                    scale *= a
                for gm, gc in terms.items():
                    if gm == lm:
                        continue
                    mm = m_mul(gm, q)
                    v = p.get(mm, 0) - b * gc
                    if v:
                        p[mm] = v
                    else:
                        p.pop(mm, None)
                break
        else:
            out.append((m, c, scale))
    if scale == 1:
        return {m: c for m, c, _ in out}, scale
    return {m: c * (scale // s) for m, c, s in out}, scale


def _spoly(gi, gj, cancel):
    """a*q_i*g_i - b*q_j*g_j with (a, b) the cancel step of the two leading
    coefficients: (lc_j/g, lc_i/g) over Q, (1, lc_i/lc_j) over Q(e).  A
    nonzero multiple of the monic S-polynomial, and zero exactly with it."""
    lmi, lci, ti = gi
    lmj, lcj, tj = gj
    L = m_lcm(lmi, lmj)
    qi, qj = m_div(L, lmi), m_div(L, lmj)
    a, b = cancel(lcj, lci)
    s = {m_mul(m, qi): c if a == 1 else a * c
         for m, c in ti.items() if m != lmi}
    for m, c in tj.items():
        if m == lmj:
            continue
        mm = m_mul(m, qj)
        v = s.get(mm, 0) - b * c
        if v:
            s[mm] = v
        else:
            s.pop(mm, None)
    return s


def _chain_skips(G, i, j, treated):
    """Chain criterion: the pair (i, j) is redundant when some other leading
    monomial divides lcm(lm_i, lm_j) and both of its pairs with i and with j
    pass treated (pairs as (smaller, larger) index tuples)."""
    L = m_lcm(G[i][0], G[j][0])
    for k, g in enumerate(G):
        if (k != i and k != j and m_divides(g[0], L)
                and treated((min(i, k), max(i, k)))
                and treated((min(j, k), max(j, k)))):
            return True
    return False


def _buchberger(gen_dicts, order):
    """Buchberger's algorithm on the term dicts; returns the reduced basis."""
    key = order.key
    eps = _is_eps(gen_dicts)
    cancel = _cancel(eps)
    G = _basis(gen_dicts, key, eps)
    G.sort(key=lambda g: (m_deg(g[0]), key(g[0])))
    pairs = []
    pending = set()

    def push_pairs(j):
        for i in range(j):
            L = m_lcm(G[i][0], G[j][0])
            heapq.heappush(pairs, (m_deg(L), key(L), i, j))
            pending.add((i, j))

    for j in range(1, len(G)):
        push_pairs(j)
    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        pending.discard((i, j))
        if m_coprime(G[i][0], G[j][0]) or _chain_skips(
                G, i, j, lambda pair: pair not in pending):
            continue
        r, _ = _nf_dict(_spoly(G[i], G[j], cancel), G, key, cancel)
        if r:
            G += _basis([r], key, eps)
            push_pairs(len(G) - 1)
    return _reduce_basis(G, key, eps)


def _reduce_basis(G, key, eps):
    """Minimalize, tail-reduce and make monic; sorted by leading monomial."""
    cancel = _cancel(eps)
    kept = []
    for g in sorted(G, key=lambda g: (m_deg(g[0]), key(g[0]))):
        if not any(m_divides(h[0], g[0]) for h in kept):
            kept.append(g)
    out = []
    for g in kept:
        others = [h for h in kept if h[0] != g[0]]
        r, _ = _nf_dict(g[2], others, key, cancel)
        lc = r[max(r, key=key)]
        out.append({m: c / lc if eps else Fraction(c, lc)
                    for m, c in r.items()})
    out.sort(key=lambda t: key(max(t, key=key)))
    return out


# ---------------------------------------------------------------------------
# public interface

class IdealPresentation:
    """An ideal given by generators, with cached reduced bases per order."""

    __slots__ = ("ring", "generators", "_gb")

    def __init__(self, ring, generators):
        gens = []
        for p in generators:
            if isinstance(p, Polynomial):
                if p.ring != ring:
                    raise ValueError("generator from a different ring")
                if p.terms:
                    gens.append(p)
            else:
                raise TypeError("generators must be polynomials")
        self.ring = ring
        self.generators = tuple(gens)
        self._gb = {}

    def reduced_basis(self, order=None):
        order = order or block_order(self.ring)
        sig = order.signature
        got = self._gb.get(sig)
        if got is None:
            out = _buchberger([p.terms for p in self.generators], order)
            got = tuple(Polynomial(self.ring, t) for t in out)
            self._gb[sig] = got
        return got

    def __repr__(self):
        return "IdealPresentation<%d generators over %r>" % (
            len(self.generators), self.ring)


def ideal(ring, generators):
    return IdealPresentation(ring, list(generators))


def _as_ideal(I, ring=None):
    if isinstance(I, IdealPresentation):
        return I
    if isinstance(I, MonomialIdeal):
        return IdealPresentation(I.ring, I.polynomials())
    gens = list(I)
    if not gens and ring is None:
        raise ValueError("empty generator list needs an explicit ring")
    return IdealPresentation(ring or gens[0].ring, gens)


def reduced_groebner_basis(I, order=None):
    """The unique reduced basis: monic, auto-reduced, sorted by leading term."""
    return _as_ideal(I).reduced_basis(order)


def normal_form(p, basis, order=None):
    """Remainder of p on division by a Groebner basis for the given order."""
    order = order or block_order(p.ring)
    polys = [g.terms for g in basis]
    eps = _is_eps(polys + [p.terms])
    G = _basis(polys, order.key, eps)
    if eps:
        r, _ = _nf_dict(p.terms, G, order.key, _cancel_eps)
        return Polynomial(p.ring, r)
    den = lcm(*{c.denominator for c in p.terms.values()})
    r, scale = _nf_dict({m: c.numerator * (den // c.denominator)
                         for m, c in p.terms.items()}, G, order.key, _cancel_q)
    return Polynomial(p.ring, {m: Fraction(c, scale * den)
                               for m, c in r.items()})


def initial_ideal(I, order=None):
    I = _as_ideal(I)
    order = order or block_order(I.ring)
    gb = I.reduced_basis(order)
    return MonomialIdeal(I.ring, [g.leading_term(order)[1] for g in gb])


def ideal_equal(I, J):
    I, J = _as_ideal(I), _as_ideal(J)
    if I.ring != J.ring:
        raise ValueError("ideals from different rings")
    return I.reduced_basis() == J.reduced_basis()


def eliminate(I, keep):
    """Generators of I intersected with the subring on the kept variables."""
    I = _as_ideal(I)
    keep = set(keep)
    eliminated = [v for v in range(I.ring.nvars) if v not in keep]
    order = elimination_order(I.ring, eliminated)
    gb = I.reduced_basis(order)
    out = [g for g in gb
           if all(v in keep for m in g.terms for v, _ in m)]
    return IdealPresentation(I.ring, out)


def intersect(I, J):
    """I intersected with J: the ideal t*I + (1-t)*J with t eliminated."""
    I, J = _as_ideal(I), _as_ideal(J)
    if I.ring != J.ring:
        raise ValueError("ideals from different rings")
    ring = I.ring
    ring2 = ring.with_aux(1)
    t = Polynomial.monomial(ring2, m_var(ring2.nvars - 1))
    gens = [t * p.in_ring(ring2) for p in I.generators]
    gens += [(1 - t) * p.in_ring(ring2) for p in J.generators]
    kept = eliminate(IdealPresentation(ring2, gens), range(ring.nvars))
    return IdealPresentation(ring, [p.in_ring(ring) for p in kept.generators])


def hilbert_value(I, u):
    """Number of standard monomials of multidegree u: the value at u of the
    multigraded Hilbert function of the quotient by I."""
    if isinstance(I, MonomialIdeal):
        return standard_monomial_count(I, u)
    I = _as_ideal(I)
    if all(len(p.terms) == 1 for p in I.generators):
        mono = MonomialIdeal(I.ring, [next(iter(p.terms))
                                      for p in I.generators])
        return standard_monomial_count(mono, u)
    return standard_monomial_count(initial_ideal(I), u)


def minimal_generators(I):
    """Prune the generator list to an irredundant generating subset."""
    I = _as_ideal(I)
    order = block_order(I.ring)
    gens = sorted(I.generators,
                  key=lambda p: (p.total_degree(),
                                 order.key(p.leading_term(order)[1])))
    kept = list(gens)
    i = 0
    while i < len(kept):
        rest = kept[:i] + kept[i + 1:]
        if rest:
            gb = reduced_groebner_basis(IdealPresentation(I.ring, rest))
            if not normal_form(kept[i], gb):
                kept = rest
                continue
        i += 1
    return kept


# ---------------------------------------------------------------------------
# basis checking and order families

def _pairs_reduce_to_zero(polys, key, eps, use_chain=True):
    """(flag, witness) of is_groebner_basis for term dicts from _primitive."""
    cancel = _cancel(eps)
    G = [_prep(t, key) for t in polys]
    done = set()
    idx = sorted(range(len(G)), key=lambda i: (m_deg(G[i][0]), key(G[i][0])))
    for a in range(len(idx)):
        for b in range(a):
            i, j = idx[b], idx[a]
            if (not m_coprime(G[i][0], G[j][0])
                    and not (use_chain
                             and _chain_skips(G, i, j, done.__contains__))
                    and _nf_dict(_spoly(G[i], G[j], cancel), G, key,
                                 cancel)[0]):
                return False, (i, j)
            done.add((min(i, j), max(i, j)))
    return True, None


def is_groebner_basis(gens, order, use_chain=True):
    """Does the set reduce all its S-polynomials to zero under the order?

    Returns (flag, witness); the witness is the offending generator pair.
    """
    polys = [p.terms for p in gens]
    eps = _is_eps(polys)
    return _pairs_reduce_to_zero(_primitive(polys, eps), order.key, eps,
                                 use_chain)


def letter_rankings(n):
    """The 6^n rankings of each camera's letters: one tuple of letter slots
    (0 = x, 1 = y, 2 = z) per camera, highest first."""
    return list(itertools.product(itertools.permutations(range(3)), repeat=n))


def _plain_ring(ring):
    if ring.extended or ring.aux:
        raise ValueError("order family defined on the plain 3-letter ring")
    return ring


def permuted_block_lex_orders(ring):
    """The block lexicographic order of each letter ranking, in the order of
    letter_rankings: 6^n orders, one per cone of rankings."""
    n = _plain_ring(ring).n
    return [LexOrder(ring, tuple(ranking[i][slot] * n + i
                                 for slot in range(3) for i in range(n)))
            for ranking in letter_rankings(n)]


def random_weight_orders(ring, count, seed=0):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        weights = [rng.randint(1, 10 ** 6) for _ in range(ring.nvars)]
        out.append(WeightOrder(ring, weights))
    return out


def universal_groebner_check(gens, orders, jobs=1):
    """Check by S-pair reduction that the set is a Groebner basis under every
    order of the given family.  Only jobs=1 is supported.

    Returns (flag, witness); on failure the witness records the failing order
    index and generator pair.
    """
    if jobs != 1:
        raise ValueError("only jobs=1 is supported")
    polys = [p.terms for p in gens]
    eps = _is_eps(polys)
    polys = _primitive(polys, eps)
    for k, order in enumerate(orders):
        ok, pair = _pairs_reduce_to_zero(polys, order.key, eps)
        if not ok:
            return False, {"order_index": k, "pair": pair}
    return True, None


def _camera_terms(p):
    """The generator's cameras, the set of letter slots each camera shows
    among its terms, and each term keyed by its letter slot per camera."""
    n = p.ring.n
    cams = None
    terms = {}
    for m in p.terms:
        slots = {cam: slot for slot, cam in (divmod(v, n) for v, _ in m)}
        if cams is None:
            cams = tuple(sorted(slots))
        if (len(slots) != len(m) or any(e != 1 for _, e in m)
                or tuple(sorted(slots)) != cams):
            raise ValueError("cone certificate needs generators of degree one "
                             "in each camera they involve")
        terms[tuple(slots[c] for c in cams)] = m
    shown = tuple(frozenset(key[j] for key in terms)
                  for j in range(len(cams)))
    return cams, shown, terms


def cone_certificates(gens, rankings):
    """Per letter ranking, the verdict of the Hilbert-function certificate
    that gens is a Groebner basis under every term order with that ranking.

    Each generator must have degree one in each camera it involves.  Under a
    ranking its leading term is the term carrying, at every camera, the
    highest-ranked letter its terms show: it beats every other term camera by
    camera, so by multiplicativity under every order with the ranking.  The
    ideal of these terms lies in the initial ideal; when it counts standard
    monomials by multiview_hilbert_function, and the ideal of gens has that
    Hilbert function, the two are equal (Traverso's Hilbert-driven argument).

    Yields (flag, witness) per ranking: the witness names the index of a
    generator without such a term, or the first multidegree that miscounts.
    """
    ring = _plain_ring(gens[0].ring)
    shapes = {}   # (cameras, letters shown per camera) -> shape index
    table = []
    for p in gens:
        cams, shown, terms = _camera_terms(p)
        table.append((shapes.setdefault((cams, shown), len(shapes)), terms))
    subsets = {sh for _, shown in shapes for sh in shown}
    for ranking in rankings:
        best = [{sh: next(s for s in r if s in sh) for sh in subsets}
                for r in ranking]
        tops = [tuple(best[c][sh] for c, sh in zip(cams, shown))
                for cams, shown in shapes]
        leads = []
        for idx, (shape, terms) in enumerate(table):
            m = terms.get(tops[shape])
            if m is None:
                yield False, {"minor": idx}
                break
            leads.append(m)
        else:
            u = multiview_hilbert_mismatch(MonomialIdeal(ring, leads))
            yield u is None, None if u is None else {"multidegree": list(u)}


def universal_basis_certificate(gens):
    """Certify that gens is a Groebner basis under every term order, by one
    Buchberger run and the cone certificates of all 6^n letter rankings.

    The block-order initial ideal of the ideal of gens must be squarefree
    and count standard monomials by multiview_hilbert_function; every term
    order ranks each camera's letters somehow, so the cones then cover all
    orders.  Returns (flag, witness); on failure the witness names the
    block-order multidegree, or the cone index, its ranking, and the
    generator or multidegree.
    """
    gens = list(gens)
    ring = gens[0].ring
    init = initial_ideal(ideal(ring, gens))
    bad = (multiview_hilbert_mismatch(init) if init.is_squarefree()
           else "not squarefree")
    if bad is not None:
        return False, {"block_order_initial_ideal": bad}
    rankings = letter_rankings(ring.n)
    for k, (ok, witness) in enumerate(cone_certificates(gens, rankings)):
        if not ok:
            witness.update(cone=k, ranking=[
                ">".join(ring.name(s * ring.n + c) for s in r)
                for c, r in enumerate(rankings[k])])
            return False, witness
    return True, None
