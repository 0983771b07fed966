"""Buchberger engine over Q and Q(e): reduced bases, normal forms, initial
ideals, ideal equality, elimination, intersection, multigraded Hilbert values,
term-order families, a check over an order family that certifies each order
by a Hilbert-function comparison and forms S-pairs only where it fails, and
the Hilbert-function certificate of a universal basis over every term
order."""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
from math import gcd

from .exactalg import EpsRational, integer_row, primitive_row
from .monomial import (
    MonomialIdeal, _variable_images, multiview_hilbert_mismatch,
    standard_monomial_count, standard_profiles,
)
from .polyring import (
    LexOrder, Polynomial, block_order, elimination_order, m_var, plain_ring,
)

__all__ = [
    "IdealPresentation", "ideal", "reduced_groebner_basis", "normal_form",
    "normal_forms", "initial_ideal", "ideal_equal", "eliminate", "intersect",
    "hilbert_value", "minimal_generators", "is_groebner_basis",
    "universal_groebner_check", "letter_rankings", "permuted_block_lex_orders",
    "cone_certificates", "universal_basis_certificate",
]


# ---------------------------------------------------------------------------
# packed monomials
#
# Inside the engine a monomial is one int per term order (Monagan-Pearce,
# JSC 2011).  Its fields, from the top: the weight-row sums, each raised by a
# constant offset so that it is never negative; the exponents along perm;
# the degree, which never decides a comparison.  Int comparison is the
# order's, and a product is a + b - off.  A guard bit tops each exponent
# field and the degree field: b divides a exactly when a - b + off sets none.
# The fields hold the monomials of degree at most D = 2^bits - 1.  A product
# or lcm of higher degree sets the degree guard, and the run starts again
# with wider fields.  A basis element is the tuple (lm - off, lc, tail, lim,
# lm) that _Packer.element builds; _LM names the place of its leading monomial.
_LM = 4


class _Overflow(Exception):
    pass


class _Packer:
    """The packed form of one term order, for monomials of degree <= D."""

    def __init__(self, order, bits):
        n, w, D = len(order.perm), bits + 1, (1 << bits) - 1
        self.bits, self.width, self.D = bits, w, D
        self.shifts = [(n - order.perm.index(v)) * w for v in range(n)]
        self.eguard = sum(1 << s + bits for s in self.shifts)
        self.emask = sum(D << s for s in self.shifts)
        self.guard, self.off = self.eguard | 1 << bits, 0
        self.deltas = [1 + (1 << s) for s in self.shifts]
        top = (n + 1) * w
        for row in reversed(order.rows):
            neg = max(0, -min(row))
            b = ((max(0, *row) + neg) * D).bit_length()
            self.off += neg * D << top
            self.deltas = [d + (r << top) for d, r in zip(self.deltas, row)]
            top += b
        self.field_deltas = [0] + [self.deltas[v] for v in order.perm[::-1]]

    def encode(self, mono):
        return self.off + sum(e * self.deltas[v] for v, e in mono)

    def element(self, terms):
        """The basis element (lm - off, lc, tail, lim, lm) of packed terms.
        The tail pairs m - off with c, so that q*m is m + q; a quotient q of
        degree above lim takes a tail term past D."""
        lm = max(terms)
        tail = tuple((m - self.off, c) for m, c in terms.items() if m != lm)
        lim = self.D - max((m & self.D for m in terms if m != lm), default=0)
        return (lm - self.off, terms[lm], tail, lim, lm)

    def elements(self, polys):
        return [self.element({self.encode(m): c for m, c in t.items()})
                for t in polys]

    def decode(self, m):
        return tuple((v, e) for v, s in enumerate(self.shifts)
                     if (e := m >> s & self.D))

    def emax(self, a, b):
        """Field-wise max of two exponent parts (m & emask)."""
        sel = ((a | self.eguard) - b) & self.eguard
        sel -= sel >> self.bits
        return (a & sel) | (b & ~sel)

    def lcm(self, g, lme, Le):
        """Le, as a multiple of g's leading monomial (exponent part lme)."""
        return self.times(g[_LM], Le - lme)

    def by_degree(self, g):
        """Sort key: divisors first, also under negative weight rows."""
        return g[_LM] & self.D, g[_LM]

    def times(self, a, c):
        """a times the monomial with the exponent part c."""
        w = self.width
        while c:
            s = (c.bit_length() - 1) // w * w
            e = c >> s
            c -= e << s
            a += e * self.field_deltas[s // w]
        if a & self.guard:
            raise _Overflow
        return a


def _packed(order, polys, run, *args):
    """run(packer, polys, *args) for term dicts, with fields that hold twice
    the largest input degree, widened whenever a monomial outgrows them."""
    deg = max((sum(e for _, e in m) for t in polys for m in t), default=1)
    bits = max(6, (2 * deg).bit_length())
    while True:
        try:
            return run(_Packer(order, bits), polys, *args)
        except _Overflow:
            bits *= 2


# ---------------------------------------------------------------------------
# packed polynomial dictionaries
#
# Over Q the engine reduces in Python ints: every basis element holds a
# primitive integer multiple of its polynomial, and a reduction step
# p <- (lc/g)*p - (c/g)*q*h with g = gcd(lc, c) keeps p integral.  Over Q(e)
# it divides in the field of rational functions.  A reduction settles its
# domain once, from the basis and the input together: over Q(e) no term of p
# holds an int, since a Polynomial's coefficients never are ints.

def _is_eps(polys):
    """Does any coefficient of the term dicts lie outside Q?"""
    return any(isinstance(c, EpsRational) for t in polys for c in t.values())


def _cancel(lc, c):
    """The cancel step (a, b), a*c == b*lc: in ints when c is one, else in
    the field."""
    if type(c) is not int:
        return 1, c / lc
    # g takes the sign of lc, so a = lc/g > 0 and the running scale of a
    # reduction only grows: it is 1 exactly when p was never multiplied
    g = gcd(lc, c) if lc > 0 else -gcd(lc, c)
    return lc // g, c // g


def _content_normalize(terms):
    """The primitive integer multiple of a polynomial over Q, with int
    coefficients.  Its sign is left as it comes: scaling a basis element by a
    nonzero constant changes no remainder, under any order."""
    return dict(zip(terms, primitive_row(integer_row(terms.values())[0])))


def _primitive(polys):
    """The nonzero term dicts, as primitive integer multiples over Q and with
    the coefficients as given over Q(e)."""
    eps = _is_eps(polys)
    return [t if eps else _content_normalize(t) for t in polys if t]


def _nf_dict(p, G, pk, head=False):
    """Full normal form (r, scale) of the packed dict p against elements G:
    the remainder is r / scale.  Over Q the scale is the product of the
    factors a by which the reduction multiplied p; over Q(e) it stays 1.
    With head set the reduction stops at the first monomial that no leading
    monomial of G divides, and r is scale times what is left of p."""
    guard, D = pk.guard, pk.D
    p = dict(p)
    out = []
    scale = 1
    while p:
        m = max(p)
        c = p.pop(m)
        for lm_off, lc, tail, lim, _ in G:
            q = m - lm_off
            if q & guard:
                continue
            if q & D > lim:
                raise _Overflow
            a, b = _cancel(lc, c)
            if a != 1:
                p = {mm: v * a for mm, v in p.items()}
                scale *= a
            for gm, gc in tail:
                mm = gm + q
                v = p.get(mm, 0) - b * gc
                if v:
                    p[mm] = v
                else:
                    p.pop(mm, None)
            break
        else:
            if head:
                p[m] = c
                return p, scale
            out.append((m, c, scale))
    if scale == 1:
        return {m: c for m, c, _ in out}, scale
    return {m: c * (scale // s) for m, c, s in out}, scale


def _spoly(gi, gj, L, D):
    """a*q_i*g_i - b*q_j*g_j, with q_i = L/lm_i and (a, b) the cancel step
    of the leading coefficients: (lc_j/g, lc_i/g) over Q, (1, lc_i/lc_j) over
    Q(e).  A multiple of the monic S-polynomial, zero exactly with it."""
    lmi, lci, ti, limi, _ = gi
    lmj, lcj, tj, limj, _ = gj
    qi, qj = L - lmi, L - lmj
    if qi & D > limi or qj & D > limj:
        raise _Overflow
    a, b = _cancel(lcj, lci)
    s = {m + qi: c if a == 1 else a * c for m, c in ti}
    for m, c in tj:
        mm = m + qj
        v = s.get(mm, 0) - b * c
        if v:
            s[mm] = v
        else:
            s.pop(mm, None)
    return s


def _chain_skips(lmes, i, j, L, done, eguard):
    """Chain criterion: the pair (i, j) is redundant when another leading
    monomial divides L = lcm(lm_i, lm_j) and its pairs with i and with j are
    in done, the set of treated pairs as (smaller, larger) index tuples.
    lmes, L: exponent parts."""
    for k, g in enumerate(lmes):
        if (k != i and k != j and not (L - g) & eguard
                and ((i, k) if i < k else (k, i)) in done
                and ((j, k) if j < k else (k, j)) in done):
            return True
    return False


def _element_terms(g, pk):
    """The packed term dict of the basis element g."""
    return {g[_LM]: g[1], **{m + pk.off: c for m, c in g[2]}}


def _interreduce(pk, polys):
    """The elements of the term dicts from _primitive after one pass by
    degree (Gebauer-Moeller, JSC 1988): an input whose leading monomial a
    kept element's divides is head-reduced against the kept elements, and
    kept only if something is left.  The kept set generates the same ideal;
    it comes sorted by pk.by_degree."""
    eps = _is_eps(polys)
    G = []
    for g in sorted(pk.elements(polys), key=pk.by_degree):
        if any(not (g[_LM] - h[0]) & pk.guard for h in G):
            r, _ = _nf_dict(_element_terms(g, pk), G, pk, head=True)
            if not r:
                continue
            g = pk.element(r if eps else _content_normalize(r))
        G.append(g)
    G.sort(key=pk.by_degree)
    return G


def _buchberger(pk, polys):
    """Buchberger's algorithm on term dicts from _primitive, started from
    the interreduced input; returns the reduced basis, which is unique."""
    eps = _is_eps(polys)
    G = _interreduce(pk, polys)
    lmes = [g[_LM] & pk.emask for g in G]
    pairs = []
    # every pair of current elements is on the heap until it is popped, so
    # the popped pairs are the treated ones
    done = set()

    def push_pairs(j):
        for i in range(j):
            L = pk.lcm(G[i], lmes[i], pk.emax(lmes[i], lmes[j]))
            heapq.heappush(pairs, (L & pk.D, L, i, j))

    for j in range(1, len(G)):
        push_pairs(j)
    while pairs:
        _, L, i, j = heapq.heappop(pairs)
        done.add((i, j))
        Le = L & pk.emask
        if Le == lmes[i] + lmes[j] or _chain_skips(
                lmes, i, j, Le, done, pk.eguard):
            continue
        r, _ = _nf_dict(_spoly(G[i], G[j], L, pk.D), G, pk)
        if r:
            G.append(pk.element(r if eps else _content_normalize(r)))
            lmes.append(G[-1][_LM] & pk.emask)
            push_pairs(len(G) - 1)
    return _reduce_basis(G, pk)


def _reduce_basis(G, pk):
    """Minimalize, tail-reduce and make monic; decoded term dicts, sorted by
    leading monomial."""
    kept = []
    for g in sorted(G, key=pk.by_degree):
        if not any((g[_LM] - h[0]) & pk.guard == 0 for h in kept):
            kept.append(g)
    kept.sort(key=lambda g: g[_LM])
    out = []
    for g in kept:
        r, scale = _nf_dict({m + pk.off: c for m, c in g[2]},
                            [h for h in kept if h is not g], pk)
        lc = g[1] * scale
        out.append({pk.decode(m): Fraction(c, lc) if type(lc) is int
                    else c / lc for m, c in ((g[_LM], lc), *r.items())})
    return out


# ---------------------------------------------------------------------------
# public interface

class IdealPresentation:
    """An ideal given by generators, with cached reduced bases per order."""

    __slots__ = ("ring", "generators", "_gb", "_terms")

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
        self._terms = None

    def reduced_basis(self, order=None):
        """The reduced basis under the order (default: the block order),
        monic and sorted by leading monomial.  Each element's term dict
        lists its leading monomial first."""
        order = order or block_order(self.ring)
        _check_rings([], [order], self.ring)
        sig = order.signature
        got = self._gb.get(sig)
        if got is None:
            # the generators are normalized once, for every order
            if self._terms is None:
                self._terms = _primitive([p.terms for p in self.generators])
            got = tuple(Polynomial(self.ring, t) for t in _packed(
                order, self._terms, _buchberger))
            self._gb[sig] = got
        return got

    def __repr__(self):
        return "IdealPresentation<%d generators over %r>" % (
            len(self.generators), self.ring)


def _check_rings(polys, orders, ring=None):
    """Raise ValueError, naming the mismatch, unless the polynomials and the
    orders lie over one ring (the given one, when there is one)."""
    for p in polys:
        ring = ring or p.ring
        if p.ring != ring:
            raise ValueError("polynomial over %r among polynomials over %r"
                             % (p.ring, ring))
    for order in orders:
        if ring is not None and order.ring != ring:
            raise ValueError("order on %r for polynomials over %r"
                             % (order.ring, ring))


def ideal(ring, generators):
    return IdealPresentation(ring, list(generators))


def _ring_of(gens):
    if not gens:
        raise ValueError("empty generator list needs an explicit ring")
    return gens[0].ring


def _as_ideal(I):
    if isinstance(I, IdealPresentation):
        return I
    if isinstance(I, MonomialIdeal):
        return IdealPresentation(I.ring, I.polynomials())
    gens = list(I)
    return IdealPresentation(_ring_of(gens), gens)


def reduced_groebner_basis(I, order=None):
    """The unique reduced basis: monic, auto-reduced, sorted by leading term."""
    return _as_ideal(I).reduced_basis(order)


def normal_forms(polys, basis, order=None):
    """Remainders of the polynomials on division by one Groebner basis for
    the given order; the basis is encoded and prepared once."""
    polys, basis = list(polys), list(basis)
    if not polys:
        return []
    order = order or block_order(polys[0].ring)
    _check_rings(polys + basis, [order])
    gens = _primitive([g.terms for g in basis])
    eps_basis = _is_eps(gens)

    def run(pk, _):
        G = pk.elements(gens)
        out = []
        for p in polys:
            t = p.terms
            eps = eps_basis or _is_eps([t])
            coeffs, den = (t.values(), 1) if eps else integer_row(t.values())
            r, scale = _nf_dict(dict(zip(map(pk.encode, t), coeffs)), G, pk)
            out.append(Polynomial(p.ring, {
                pk.decode(m): c if eps else Fraction(c, scale * den)
                for m, c in r.items()}))
        return out

    return _packed(order, gens + [p.terms for p in polys], run)


def normal_form(p, basis, order=None):
    """Remainder of p on division by a Groebner basis for the given order."""
    return normal_forms([p], basis, order)[0]


def initial_ideal(I, order=None):
    """The ideal of leading monomials of the reduced basis under the order
    (block order by default).  A monomial ideal is its own initial ideal
    under every order on its ring and is returned as it is."""
    if isinstance(I, MonomialIdeal):
        _check_rings([], [order] if order else [], I.ring)
        return I
    I = _as_ideal(I)
    order = order or block_order(I.ring)
    gb = I.reduced_basis(order)
    return MonomialIdeal(I.ring, [next(iter(g.terms)) for g in gb])


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

def _failing_pair(pk, G, use_chain=True):
    """The first pair (i, j) of elements, by degree, whose S-polynomial
    leaves a remainder on division by G; None when all reduce to zero."""
    lmes = [g[_LM] & pk.emask for g in G]
    done = set()
    idx = sorted(range(len(G)), key=lambda i: pk.by_degree(G[i]))
    for a in range(len(idx)):
        for b in range(a):
            i, j = idx[b], idx[a]
            Le = pk.emax(lmes[i], lmes[j])
            if (Le != lmes[i] + lmes[j]
                    and not (use_chain and _chain_skips(
                        lmes, i, j, Le, done, pk.eguard))
                    and _nf_dict(_spoly(G[i], G[j], pk.lcm(
                        G[i], lmes[i], Le), pk.D), G, pk)[0]):
                return i, j
            done.add((i, j) if i < j else (j, i))
    return None


def _first_round_passes(pk, polys, leads):
    """Do the term dicts from _primitive, with the given leading monomials,
    form a Groebner basis?  The first round of a Buchberger run decides it,
    before the basis grows: the interreduced input must reduce all its
    S-pairs to zero, and the given monomials must divide every one of its
    leading monomials."""
    lms = [pk.encode(m) - pk.off for m in leads]
    G = _interreduce(pk, polys)
    return (all(any(not (g[_LM] - m) & pk.guard for m in lms) for g in G)
            and _failing_pair(pk, G) is None)


def _nonzero(gens):
    """The caller's index of each nonzero generator, and their term dicts
    from _primitive, in the same order."""
    kept = [i for i, p in enumerate(gens) if p.terms]
    return kept, _primitive([gens[i].terms for i in kept])


def is_groebner_basis(gens, order, use_chain=True):
    """Does the set reduce all its S-polynomials to zero under the order?

    Returns (flag, witness); the witness is the offending generator pair,
    as indices into gens.
    """
    gens = list(gens)
    _check_rings(gens, [order])
    kept, polys = _nonzero(gens)
    pair = _packed(order, polys, lambda pk, ps: _failing_pair(
        pk, pk.elements(ps), use_chain))
    return pair is None, pair and (kept[pair[0]], kept[pair[1]])


def letter_rankings(n):
    """The 6^n rankings of each camera's letters: one tuple of letter slots
    (0 = x, 1 = y, 2 = z) per camera, highest first."""
    return list(itertools.product(itertools.permutations(range(3)), repeat=n))


def permuted_block_lex_orders(ring):
    """The block lexicographic order mapped by each letter ranking, in the
    order of letter_rankings: 6^n orders, one per cone of rankings."""
    n = plain_ring(ring, "order family").n
    return [LexOrder(ring, _variable_images(n, range(n), ranking))
            for ranking in letter_rankings(n)]


def _hilbert_certifier(gens, polys, order):
    """A test that the leading monomials of gens under an order generate
    its initial ideal, with no S-pair formed; None when the certificate
    does not apply.

    Under the given order the leading monomials must generate the initial
    ideal in0 (_first_round_passes).  Under any order they generate an ideal J
    inside the initial ideal, and every initial ideal of a multihomogeneous
    ideal has the Hilbert function of in0.  When J and in0 are squarefree
    with the same standard profiles, their Hilbert functions agree in every
    multidegree, so J is the initial ideal and gens a Groebner basis.  The
    certificate needs a ring without aux variables, which have no
    multidegree, multihomogeneous generators and a squarefree in0.
    """
    ring = gens[0].ring
    if ring.aux or not all(p.is_homogeneous() for p in gens):
        return None

    def leading_ideal(order):
        return MonomialIdeal(ring, [max(t, key=order.key) for t in polys])

    in0 = leading_ideal(order)
    if not (in0.is_squarefree()
            and _packed(order, polys, _first_round_passes, in0.gens)):
        return None
    target = standard_profiles(in0)

    def certified(order):
        J = leading_ideal(order)
        return J == in0 or (J.is_squarefree()
                            and standard_profiles(J) == target)
    return certified


def universal_groebner_check(gens, orders, jobs=1):
    """Check that the set is a Groebner basis under every order of the
    given family.  Only jobs=1 is supported.

    When the set passes the first order in the first round of a Buchberger
    run, an order whose leading monomials certify the initial ideal by its
    Hilbert function passes with no S-pair formed (_hilbert_certifier).
    Every other order is checked by is_groebner_basis, which alone can
    reject one; so is every order when the certificate does not apply.

    Returns (flag, witness); on failure the witness records the failing order
    index and generator pair, as indices into gens.
    """
    if jobs != 1:
        raise ValueError("only jobs=1 is supported")
    gens, orders = list(gens), list(orders)
    _check_rings(gens, orders)
    kept, polys = _nonzero(gens)
    if not polys or not orders:
        return True, None
    certified = _hilbert_certifier([gens[i] for i in kept], polys, orders[0])
    for k, order in enumerate(orders):
        if certified is not None and certified(order):
            continue
        ok, pair = is_groebner_basis(gens, order)
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

    Yields (flag, witness) per ranking: the witness names the index into
    gens of a generator without such a term, or the first multidegree that
    miscounts.  Zero generators are skipped.
    """
    ring = plain_ring(_ring_of(gens), "cone certificates")
    shapes = {}   # (cameras, letters shown per camera) -> shape index
    table = []
    for idx, p in enumerate(gens):
        if p.terms:
            cams, shown, terms = _camera_terms(p)
            table.append((idx, shapes.setdefault((cams, shown), len(shapes)),
                          terms))
    subsets = {sh for _, shown in shapes for sh in shown}
    for ranking in rankings:
        best = [{sh: next(s for s in r if s in sh) for sh in subsets}
                for r in ranking]
        tops = [tuple(best[c][sh] for c, sh in zip(cams, shown))
                for cams, shown in shapes]
        leads = []
        for idx, shape, terms in table:
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
    ring = _ring_of(gens)
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
