"""Multigraded polynomial rings for camera geometry.

The ring has one block of variables (x_i, y_i, z_i) per camera i = 1..n.
Variables are indexed block-major so that the default index order is the
block lexicographic order x1 > ... > xn > y1 > ...  Monomials are sparse
tuples of (variable, exponent) pairs; polynomials are immutable coefficient
maps over Q or Q(e).
"""

from __future__ import annotations

import re
from fractions import Fraction

from .exactalg import EpsRational, eps, integer_row, primitive_row

__all__ = [
    "Ring", "Polynomial", "WeightLexOrder", "LexOrder", "WeightOrder",
    "GrevlexOrder", "MatrixOrder", "block_order", "elimination_order",
    "parse_polynomial", "format_polynomial", "parse_monomial",
    "format_monomial", "canonical_string", "plain_ring",
]


class Ring:
    """K[x,y,z] in 3n variables.

    aux extra variables (named t1, t2, ...) may be appended; they carry no
    multidegree and exist to be eliminated.
    """

    __slots__ = ("n", "aux", "nvars", "_names", "_index")

    letters = ("x", "y", "z")

    def __init__(self, n, aux=0):
        if n < 1:
            raise ValueError("need at least one camera block")
        self.n = n
        self.aux = aux
        names = ["%s%d" % (L, i)
                 for L in self.letters for i in range(1, n + 1)]
        names += ["t%d" % (k + 1) for k in range(aux)]
        self.nvars = len(names)
        self._names = tuple(names)
        self._index = {s: i for i, s in enumerate(names)}

    def var(self, letter, camera):
        """Index of the variable letter_camera (camera is 1-based)."""
        if not 1 <= camera <= self.n:
            raise ValueError("camera %d out of range" % camera)
        try:
            block = self.letters.index(letter)
        except ValueError:
            raise ValueError("letter %r not in this ring" % letter) from None
        return block * self.n + camera - 1

    def name(self, v):
        return self._names[v]

    def blocks(self):
        """The variables of each camera: one list per camera, in letter
        order."""
        return [[self.var(L, i) for L in self.letters]
                for i in range(1, self.n + 1)]

    def index(self, name):
        return self._index[name]

    def multidegree(self, mono):
        """Multidegree in N^n; every block letter of camera i has degree e_i."""
        u = [0] * self.n
        for v, e in mono:
            if v >= 3 * self.n:
                raise ValueError("aux variable has no multidegree")
            u[v % self.n] += e
        return tuple(u)

    def with_aux(self, k):
        return Ring(self.n, self.aux + k)

    def __eq__(self, other):
        return (isinstance(other, Ring) and self.n == other.n
                and self.aux == other.aux)

    def __hash__(self):
        return hash((self.n, self.aux))

    def __repr__(self):
        return "Ring(%d%s)" % (self.n, ", aux=%d" % self.aux if self.aux
                               else "")


def plain_ring(ring, what):
    """The ring, when it has no aux variables: what (an operation) acts on
    the 3n letter variables only, so on Ring(n) alone."""
    if ring.aux:
        raise ValueError("%s defined on the plain 3-letter ring Ring(%d), "
                         "not %r" % (what, ring.n, ring))
    return ring


# ---------------------------------------------------------------------------
# sparse monomials: sorted tuples of (variable index, positive exponent)

m_one = ()


def m_from_pairs(pairs):
    acc = {}
    for v, e in pairs:
        acc[v] = acc.get(v, 0) + e
    return tuple(sorted((v, e) for v, e in acc.items() if e))


def m_var(v, e=1):
    return ((v, e),) if e else ()


def m_mul(a, b):
    if not a:
        return b
    if not b:
        return a
    acc = dict(a)
    for v, e in b:
        acc[v] = acc.get(v, 0) + e
    return tuple(sorted(acc.items()))


def m_divides(a, b):
    """Does a divide b?"""
    db = dict(b)
    for v, e in a:
        if db.get(v, 0) < e:
            return False
    return True


def m_div(a, b):
    """a / b, or None when b does not divide a."""
    acc = dict(a)
    for v, e in b:
        r = acc.get(v, 0) - e
        if r < 0:
            return None
        if r:
            acc[v] = r
        else:
            acc.pop(v, None)
    return tuple(sorted(acc.items()))


def m_lcm(a, b):
    acc = dict(a)
    for v, e in b:
        if acc.get(v, 0) < e:
            acc[v] = e
    return tuple(sorted(acc.items()))


def m_deg(a):
    return sum(e for _, e in a)


def m_exp(a, v):
    for w, e in a:
        if w == v:
            return e
    return 0


def m_squarefree(a):
    return all(e == 1 for _, e in a)


# ---------------------------------------------------------------------------
# term orders

class WeightLexOrder:
    """Integer weight rows compared in turn, ties broken lexicographically
    along perm (largest variable first).  Every term order has this form
    (Robbiano 1985); lex has no rows.  The key is the tuple of row sums
    followed by the dense exponent vector along perm."""

    __slots__ = ("ring", "rows", "perm", "_pos", "_cache")

    def __init__(self, ring, rows=(), perm=None):
        self.ring = ring
        self._cache = {}
        nvars = ring.nvars
        # a positive multiple of a row orders monomials the same way, and
        # its keys are int sums
        self.rows = tuple(tuple(integer_row(row)[0]) for row in rows)
        if any(len(row) != nvars for row in self.rows):
            raise ValueError("every weight row needs one entry per variable")
        if perm is None:
            self.perm = self._pos = tuple(range(nvars))
            return
        self.perm = perm = tuple(perm)
        if sorted(perm) != list(range(nvars)):
            raise ValueError("perm must list every variable exactly once")
        self._pos = {v: i for i, v in enumerate(perm)}

    def key(self, m):
        k = self._cache.get(m)
        if k is None:
            pos, out = self._pos, [0] * len(self._pos)
            for v, e in m:
                out[pos[v]] = e
            k = tuple(sum(row[v] * e for v, e in m)
                      for row in self.rows) + tuple(out)
            self._cache[m] = k
        return k

    def compare(self, a, b):
        ka, kb = self.key(a), self.key(b)
        return (ka > kb) - (ka < kb)

    @property
    def signature(self):
        return (self.rows, self.perm)


def LexOrder(ring, perm=None):
    """Lexicographic order on a permutation of the variables (largest
    first)."""
    return WeightLexOrder(ring, (), perm)


def MatrixOrder(ring, rows, tiebreak=None):
    """Order by successive weight rows, then by the tiebreak's rows and its
    lexicographic permutation (the block order when none is given)."""
    if tiebreak is None:
        return WeightLexOrder(ring, rows)
    return WeightLexOrder(ring, tuple(rows) + tiebreak.rows, tiebreak.perm)


def WeightOrder(ring, weights, tiebreak=None):
    """Weight vector order refined by a tiebreak (the block order when none
    is given)."""
    return MatrixOrder(ring, [weights], tiebreak)


def GrevlexOrder(ring, perm=None):
    """Graded reverse lexicographic order on a permutation of the variables:
    the all-ones row, the 0/1 row of each shorter prefix of perm down to
    length two, then lex along perm.  The last exponent along perm where two
    monomials of one degree differ is the first prefix sum to differ."""
    perm = tuple(perm) if perm is not None else tuple(range(ring.nvars))
    rows = [[int(v in perm[:k]) for v in range(ring.nvars)]
            for k in range(len(perm), 1, -1)]
    return WeightLexOrder(ring, rows, perm)


def block_order(ring):
    """The default block lexicographic order x1 > ... > xn > y1 > ... > zn."""
    return LexOrder(ring)


def elimination_order(ring, eliminated):
    """Lex order placing the eliminated variables above all kept ones."""
    eliminated = sorted(set(eliminated))
    kept = [v for v in range(ring.nvars) if v not in set(eliminated)]
    return LexOrder(ring, tuple(eliminated + kept))


# ---------------------------------------------------------------------------
# polynomials

def _coeff(c):
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, (Fraction, EpsRational)):
        return c
    raise TypeError("unsupported coefficient %r" % (c,))


class Polynomial:
    """An immutable sparse polynomial over Q or Q(e)."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring, terms=None):
        self.ring = ring
        clean = {}
        if terms:
            for m, c in terms.items():
                c = _coeff(c)
                if c:
                    clean[m] = c
        self.terms = clean
        self._hash = None

    @classmethod
    def constant(cls, ring, c):
        return cls(ring, {m_one: c})

    @classmethod
    def monomial(cls, ring, mono, c=1):
        return cls(ring, {mono: c})

    @classmethod
    def variable(cls, ring, letter, camera):
        return cls(ring, {m_var(ring.var(letter, camera)): 1})

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        acc = dict(self.terms)
        for m, c in other.terms.items():
            v = acc.get(m, 0) + c
            if v:
                acc[m] = v
            else:
                acc.pop(m, None)
        return Polynomial(self.ring, acc)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise ValueError("polynomials from different rings")
            acc = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    m = m_mul(m1, m2)
                    v = acc.get(m, 0) + c1 * c2
                    if v:
                        acc[m] = v
                    else:
                        acc.pop(m, None)
            return Polynomial(self.ring, acc)
        if isinstance(other, (int, Fraction, EpsRational)):
            if not other:
                return Polynomial(self.ring)
            return Polynomial(self.ring,
                              {m: c * other for m, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def _lift(self, other):
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise ValueError("polynomials from different rings")
            return other
        if isinstance(other, (int, Fraction, EpsRational)):
            return Polynomial.constant(self.ring, other)
        return None

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, EpsRational)):
            other = Polynomial.constant(self.ring, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            items = tuple(sorted(self.terms.items(), key=lambda kv: kv[0]))
            self._hash = hash((self.ring, items))
        return self._hash

    def coefficient(self, mono):
        return self.terms.get(mono, Fraction(0))

    def total_degree(self):
        return max((m_deg(m) for m in self.terms), default=0)

    def multidegree(self):
        """The common multidegree; raises on inhomogeneous input."""
        if not self.terms:
            raise ValueError("zero polynomial has no multidegree")
        degs = {self.ring.multidegree(m) for m in self.terms}
        if len(degs) > 1:
            raise ValueError("inhomogeneous polynomial")
        return degs.pop()

    def is_homogeneous(self):
        return len({self.ring.multidegree(m) for m in self.terms}) <= 1

    def leading_term(self, order):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=order.key)
        return self.terms[m], m

    def in_ring(self, ring):
        """Reinterpret in a ring with the same block variables and every aux
        variable that occurs."""
        if ring.n != self.ring.n:
            raise ValueError("%r has other block variables than %r"
                             % (ring, self.ring))
        top = max((v for m in self.terms for v, _ in m), default=-1)
        if top >= ring.nvars:
            raise ValueError("%r lacks the variable %s"
                             % (ring, self.ring.name(top)))
        return Polynomial(ring, dict(self.terms))

    def domain(self):
        for c in self.terms.values():
            if isinstance(c, EpsRational):
                return "Q(e)"
        return "Q"

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return "Polynomial(%s)" % format_polynomial(self)


# ---------------------------------------------------------------------------
# text format: signed rational coefficients, '*'-separated variable powers
#   polynomial := [sign] term {sign term}
#   term       := factor {(*|/) factor}
#   factor     := number | e[^k] | x|y|z<camera>[^k] | ( polynomial )
#
# A parenthesized group is a coefficient over Q(e): it holds no variable and
# reads as an EpsRational, so '(-2)*x1' keeps the domain Q(e).  A variable is
# never a divisor, and the divisors that follow a variable are numbers: x1/2
# is 1/2*x1, while a Q(e) divisor goes in front, as in 1/(e)*x1.

# token groups: letter, camera, exponent | number | e, exponent | other char
_TOKEN_RE = re.compile(
    r"([xyz])(\d+)(?:\^(\d+))?|(\d+)|(e)(?:\^(\d+))?|(.)", re.S)
_MAX_EPS_POWER = 1000   # e^k is held as k + 1 integers
_MAX_EPS_NESTING = 50   # parentheses, each two frames of the reader


def _tokens(text):
    """The group tuples of _TOKEN_RE, one per token of text, blanks dropped."""
    return _TOKEN_RE.findall(text.replace(" ", ""))


def _cameras(text):
    """The camera numbers of the variables in text, in order."""
    return [int(camera) for _, camera, *_ in _tokens(text) if camera]


def format_monomial(ring, mono):
    if not mono:
        return "1"
    parts = []
    for v, e in sorted(mono):
        name = ring.name(v)
        parts.append(name if e == 1 else "%s^%d" % (name, e))
    return "*".join(parts)


def _coeff_str(c, mono_str):
    if mono_str != "1":
        if c == 1:
            return mono_str
        if c == -1:
            return "-" + mono_str
    s = str(c)
    if isinstance(c, EpsRational) and (
            "e" not in s or s.startswith("-") or " " in s or "/" in s):
        s = "(%s)" % s
    return s if mono_str == "1" else "%s*%s" % (s, mono_str)


def format_polynomial(p, order=None):
    """The terms in descending order under order (default block order).

    A Q(e) coefficient that is rational, negative or a quotient is written
    in parentheses, so that it reads back over Q(e): `(2)*x1 + e*y1`.  A
    coefficient of 1 or -1 in front of a variable is not written, so a
    Q(e) polynomial whose every coefficient is 1 or -1 reads back over Q.
    """
    if not p.terms:
        return "0"
    out = []
    order = order or block_order(p.ring)
    for m in sorted(p.terms, key=order.key, reverse=True):
        s = _coeff_str(p.terms[m], format_monomial(p.ring, m))
        if not out:
            out.append(s)
        elif s.startswith("-"):
            out.append("- " + s[1:])
        else:
            out.append("+ " + s)
    return " ".join(out)


def canonical_string(p):
    """Canonical serialization: block-lex sorted terms, scaled so that over Q
    the coefficients are coprime integers with positive leading one, and over
    Q(e) the polynomial is monic."""
    if not p.terms:
        return "0"
    lc, _ = p.leading_term(block_order(p.ring))
    if p.domain() == "Q(e)":
        return format_polynomial(
            Polynomial(p.ring, {m: c / lc for m, c in p.terms.items()}))
    ints = primitive_row(integer_row(p.terms.values())[0])
    if lc < 0:
        ints = [-c for c in ints]
    return format_polynomial(Polynomial(p.ring, dict(zip(p.terms, ints))))


def _read(ring, text, term_only=False):
    """Read text by the grammar above: a polynomial as its {monomial:
    coefficient} map, or with term_only one term as (coefficient, variable
    powers).  A zero divisor raises ZeroDivisionError, as over Q."""
    toks = _tokens(text) + [("",) * 7]   # the end: a token of no group
    pos = 0

    def bad(why):
        return ValueError("%s in %r" % (why, text))

    def term(depth):
        # the coefficient is num/den times q, its part over Q(e)
        nonlocal pos
        num, den, q, pairs, op = 1, 1, None, [], "*"
        while True:
            letter, camera, k, number, e, k_e, sym = toks[pos]
            pos += 1
            if letter:
                if depth or op == "/":
                    raise bad("a variable in parentheses or after '/'")
                pairs.append((ring.var(letter, int(camera)), int(k or 1)))
            elif number and op == "*":
                num *= int(number)
            elif number:
                den *= int(number)
            else:
                if e:
                    if int(k_e or 1) > _MAX_EPS_POWER:
                        raise bad("a power of e above e^%d" % _MAX_EPS_POWER)
                    v = eps(int(k_e or 1))
                elif sym == "(":
                    if depth == _MAX_EPS_NESTING:
                        raise bad("parentheses nested too deep")
                    v = polynomial(depth + 1).get(m_one, 0)
                    if toks[pos][6] != ")":
                        raise bad("unbalanced parentheses")
                    pos += 1
                    v = v if isinstance(v, EpsRational) else EpsRational(v)
                else:
                    raise bad("no factor at %r" % (sym or "the end"))
                if op == "/":
                    if pairs:
                        raise bad("a Q(e) divisor after a variable")
                    v = 1 / v
                q = v if q is None else q * v
            op = toks[pos][6]
            if op != "*" and op != "/":
                c = num if den == 1 else Fraction(num, den)
                return (c if q is None else q if c == 1 else q * c), pairs
            pos += 1

    def polynomial(depth):
        nonlocal pos
        acc, sign = {}, toks[pos][6]
        if sign == "+" or sign == "-":
            pos += 1
        while True:
            coeff, pairs = term(depth)
            mono = m_from_pairs(pairs)
            if sign == "-":
                coeff = -coeff
            acc[mono] = acc[mono] + coeff if mono in acc else coeff
            sign = toks[pos][6]
            if sign != "+" and sign != "-":
                return acc
            pos += 1

    out = term(0) if term_only else polynomial(0)
    if pos < len(toks) - 1:
        raise bad("unexpected %r" % "".join(toks[pos]))
    return out


def parse_polynomial(ring, text):
    """Parse the text format, e.g. 'x1*y2 - x2*y1', '2/3*x1^2' or 'x1/2', and
    over Q(e) coefficients such as '(e^2 - e)*x1' or '((-e - 1)/(e))*y2'."""
    return Polynomial(ring, _read(ring, text))


def parse_monomial(ring, text):
    """A monomial such as 'x1*y2^2': one term with coefficient 1, read as
    parse_polynomial reads a term.  '1' and '' are the monomial 1."""
    if not text.replace(" ", ""):
        return m_one
    coeff, pairs = _read(ring, text, term_only=True)
    if coeff != 1:
        raise ValueError("not a monomial: %r" % text)
    return m_from_pairs(pairs)
