"""Exact arithmetic kernel: big rationals, rational functions in one
parameter, and dense matrices with exact determinant, rank and kernel."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

__all__ = ["EpsRational", "Matrix", "det", "rank", "kernel", "inverse", "eps",
           "integer_row", "primitive_row"]

EPS_NAME = "e"


def integer_row(values):
    """(ints, d): the ints and Fractions in values, each times d, the lcm of
    their denominators.  Every rational row becomes an integer row here."""
    d = lcm(*{v.denominator for v in values})
    return [v.numerator * (d // v.denominator) for v in values], d


def primitive_row(ints):
    """The int row divided by the gcd of its entries; a zero row, whose gcd
    is 0, comes back as it is."""
    g = gcd(*ints)
    if g > 1:
        return [v // g for v in ints]
    return ints


# ---------------------------------------------------------------------------
# integer polynomials in the parameter, as coefficient tuples (low degree first)

def _trim(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return _trim(out)


def _pneg(a):
    return tuple(-x for x in a)


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _pdiv_exact(a, b):
    """Divide a by b in Z[e]; raises ValueError if the division is inexact."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return ()
    if len(a) < len(b):
        raise ValueError("inexact polynomial division")
    rem = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for k in range(len(a) - len(b), -1, -1):
        coef, r = divmod(rem[k + len(b) - 1], b[-1])
        if r:
            raise ValueError("inexact polynomial division")
        q[k] = coef
        if coef:
            for j, y in enumerate(b):
                rem[k + j] -= coef * y
    if any(rem):
        raise ValueError("inexact polynomial division")
    return _trim(q)


def _ppositive(a):
    return _pneg(a) if a and a[-1] < 0 else a


def _pgcd(a, b):
    """Gcd in Z[e] with positive leading coefficient, integer content
    included: a primitive pseudo-remainder sequence in ints."""
    if not a:
        return _ppositive(b)
    if not b:
        return _ppositive(a)
    fa, fb = primitive_row(a), primitive_row(b)
    while fb:
        # fa <- the primitive part of a nonzero multiple of (fa mod fb)
        while fa and len(fa) >= len(fb):
            g = gcd(fa[-1], fb[-1])
            s, t = fb[-1] // g, fa[-1] // g
            shift = len(fa) - len(fb)
            fa = [s * x for x in fa]
            for j, y in enumerate(fb):
                fa[shift + j] -= t * y
            while fa and fa[-1] == 0:
                fa.pop()
        fa, fb = fb, primitive_row(fa)
    return _pmul(_ppositive(tuple(fa)), (gcd(*a, *b),))


def _pord(a):
    for i, x in enumerate(a):
        if x:
            return i
    raise ValueError("order of the zero polynomial")


def _peval(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _pstr(a):
    if not a:
        return "0"
    parts = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if c == 0:
            continue
        if k == 0:
            body = str(abs(c))
        else:
            head = EPS_NAME if k == 1 else "%s^%d" % (EPS_NAME, k)
            body = head if abs(c) == 1 else "%d*%s" % (abs(c), head)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


def _coeffs_of(v):
    """Coerce an int, a Fraction or a tuple or list of them to (integer
    coefficient tuple, integer denominator)."""
    if isinstance(v, (int, Fraction)):
        v = (v,)
    elif not isinstance(v, (tuple, list)):
        raise TypeError("cannot build a rational function from %r" % (v,))
    ints, den = integer_row(v)
    return tuple(ints), den


def _lowest(n, d):
    """n/d in lowest terms, for trimmed int tuples: gcd(n, d) = 1 in Z[e] and
    d has a positive leading coefficient."""
    if not d:
        raise ZeroDivisionError("zero denominator")
    if not n:
        return (), (1,)
    if len(n) == 1 or len(d) == 1:
        # a constant side: the gcd is the integer gcd of all coefficients
        g = gcd(gcd(*n), gcd(*d))
        if g != 1:
            n, d = tuple(x // g for x in n), tuple(x // g for x in d)
    else:
        g = _pgcd(n, d)
        if g != (1,):
            n, d = _pdiv_exact(n, g), _pdiv_exact(d, g)
    if d[-1] < 0:
        return _pneg(n), _pneg(d)
    return n, d


class EpsRational:
    """A quotient of integer-coefficient polynomials in the parameter e.

    Instances are immutable and fully reduced: gcd(num, den) = 1 and the
    denominator has a positive leading coefficient.  Coefficient tuples run
    from the constant term upward.
    """

    __slots__ = ("num", "den")

    def __init__(self, num=0, den=1):
        if isinstance(num, EpsRational) or isinstance(den, EpsRational):
            a = num if isinstance(num, EpsRational) else EpsRational(num)
            b = den if isinstance(den, EpsRational) else EpsRational(den)
            n, d = _pmul(a.num, b.den), _pmul(a.den, b.num)
        else:
            nc, nd = _coeffs_of(num)
            dc, dd = _coeffs_of(den)
            n, d = _pmul(nc, (dd,)), _pmul(dc, (nd,))
        n, d = _lowest(n, d)
        object.__setattr__(self, "num", n)
        object.__setattr__(self, "den", d)

    def __setattr__(self, *_):
        raise AttributeError("EpsRational is immutable")

    @staticmethod
    def _of(num, den):
        """The instance with the given reduced coefficient tuples."""
        r = EpsRational.__new__(EpsRational)
        object.__setattr__(r, "num", num)
        object.__setattr__(r, "den", den)
        return r

    @staticmethod
    def _lift(other):
        if isinstance(other, EpsRational):
            return other
        if isinstance(other, (int, Fraction)):
            return EpsRational._of((other.numerator,) if other else (),
                                   (other.denominator,))
        return None

    @property
    def is_zero(self):
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return EpsRational._of(*_lowest(_padd(self.num, o.num), o.den))
        n = _padd(_pmul(self.num, o.den), _pmul(o.num, self.den))
        return EpsRational._of(*_lowest(n, _pmul(self.den, o.den)))

    __radd__ = __add__

    def __neg__(self):
        return EpsRational._of(_pneg(self.num), self.den)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return EpsRational._of(*_lowest(_pmul(self.num, o.num),
                                        _pmul(self.den, o.den)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if not o.num:
            raise ZeroDivisionError("division by zero")
        return EpsRational._of(*_lowest(_pmul(self.num, o.den),
                                        _pmul(self.den, o.num)))

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k):
        if k < 0:
            return 1 / (self ** (-k))
        r = EpsRational(1)
        b = self
        while k:
            if k & 1:
                r = r * b
            b = b * b
            k >>= 1
        return r

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        if len(self.num) <= 1 and len(self.den) == 1:
            # a constant hashes as the Fraction it equals
            return hash(Fraction(self.num[0] if self.num else 0, self.den[0]))
        return hash((self.num, self.den))

    def val(self):
        """Order of vanishing at e = 0 (negative for poles)."""
        if not self.num:
            raise ValueError("valuation of zero")
        return _pord(self.num) - _pord(self.den)

    def evaluate(self, x):
        """Evaluate at e = x.  At x = 0 the common power of e is stripped first."""
        x = Fraction(x)
        if not self.num:
            return Fraction(0)
        if x == 0:
            v = self.val()
            if v > 0:
                return Fraction(0)
            if v < 0:
                raise ZeroDivisionError("pole at e = 0")
            return Fraction(self.num[_pord(self.num)], self.den[_pord(self.den)])
        d = _peval(self.den, x)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at e = %s" % x)
        return _peval(self.num, x) / d

    def __str__(self):
        if not self.num:
            return "0"
        ns = _pstr(self.num)
        if self.den == (1,):
            return ns
        ds = _pstr(self.den)
        if len(self.num) > 1 or (self.num and self.num[0] < 0):
            ns = "(%s)" % ns
        if len(self.den) > 1:
            ds = "(%s)" % ds
        return "%s/%s" % (ns, ds)

    def __repr__(self):
        return "EpsRational(%s)" % self


def eps(k=1):
    """The monomial e**k as an EpsRational."""
    if k >= 0:
        return EpsRational((0,) * k + (1,))
    return EpsRational(1, (0,) * (-k) + (1,))


# ---------------------------------------------------------------------------
# dense matrices

class Matrix:
    """A dense matrix with exact entries (Fraction or EpsRational)."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows):
        # an int entry becomes a Fraction here, so elimination never
        # divides two ints
        rows = [[Fraction(e) if isinstance(e, int) else e for e in r]
                for r in rows]
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise ValueError("ragged rows")
        else:
            w = 0
        self.nrows = len(rows)
        self.ncols = w
        self.rows = rows

    @classmethod
    def identity(cls, n):
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    def transpose(self):
        return Matrix([[self.rows[i][j] for i in range(self.nrows)]
                       for j in range(self.ncols)])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError("dimension mismatch")
            return Matrix([[sum((self.rows[i][k] * other.rows[k][j]
                                 for k in range(self.ncols)), Fraction(0))
                            for j in range(other.ncols)]
                           for i in range(self.nrows)])
        return Matrix([[e * other for e in r] for r in self.rows])

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.nrows == other.nrows
                and self.ncols == other.ncols
                and all(self.rows[i][j] == other.rows[i][j]
                        for i in range(self.nrows) for j in range(self.ncols)))

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self.rows))

    def __repr__(self):
        return "Matrix(%r)" % (self.rows,)


def det(m):
    """Exact determinant: the signed product of the pivots of _echelon, in
    Q(e) when any entry is.  Entries must be Fractions or EpsRationals."""
    if m.nrows != m.ncols:
        raise ValueError("determinant requires a square matrix")
    n = m.nrows
    if n == 0:
        return Fraction(1)
    a = [list(r) for r in m.rows]
    kinds = {type(e) for r in a for e in r}
    if not kinds <= {Fraction, EpsRational}:
        raise TypeError("determinant entries must be Fractions or "
                        "EpsRationals")
    d = EpsRational(1) if EpsRational in kinds else Fraction(1)
    pivots, swaps = _echelon(a, n)
    if len(pivots) < n:
        return d - d
    for k in range(n):
        d = d * a[k][k]
    return -d if swaps % 2 else d


def _echelon(rows, ncols, normalize=False):
    """In-place forward elimination; returns the pivot columns and the
    number of row swaps.

    With normalize=True the result is the reduced row echelon form.
    """
    pivots = []
    swaps = 0
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            swaps += 1
        if normalize:
            p = rows[r][c]
            rows[r] = [e / p for e in rows[r]]
            rng = range(len(rows))
        else:
            rng = range(r + 1, len(rows))
        for i in rng:
            if i == r or not rows[i][c]:
                continue
            f = rows[i][c] / rows[r][c]
            rows[i] = [e - f * g for e, g in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return pivots, swaps


def rank(m):
    rows = [list(r) for r in m.rows]
    return len(_echelon(rows, m.ncols)[0])


def kernel(m):
    """Exact basis of the right null space, as a list of column vectors.

    Returns the empty list when the matrix has full column rank.
    """
    rows = [list(r) for r in m.rows]
    pivots = _echelon(rows, m.ncols, normalize=True)[0]
    pivot_set = set(pivots)
    free = [c for c in range(m.ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [Fraction(0)] * m.ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -rows[r][f]
        basis.append(v)
    return basis


def inverse(m):
    if m.nrows != m.ncols:
        raise ValueError("inverse requires a square matrix")
    n = m.nrows
    rows = [list(r) + [Fraction(int(i == j)) for j in range(n)]
            for i, r in enumerate(m.rows)]
    pivots = _echelon(rows, n, normalize=True)[0]
    if len(pivots) != n:
        raise ValueError("singular matrix")
    return Matrix([r[n:] for r in rows])
