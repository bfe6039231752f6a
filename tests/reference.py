"""The tests' exact reference, on a route of its own.

`Surd` is a ring of numbers p + q*sqrt(d) with rational p, q and d.
Its sign is decided by comparing Fraction squares.  `roots(a, b)`
builds the characteristic roots of x^2 - a*x + b from a and b alone,
and takes as alpha the root of larger square.  The naive oracle scans
`ref_p1`, `ref_p2`, `ref_p3` and `ref_n0` redo every comparison on
Fractions and these roots, and `reference_windows` assembles them into
the whole OracleWindows that `oracle.scan` must return.

Nothing here reads the package's roots, its integer form, its sign
kernel or its carrier: it imports only the spec, the term readers and
the window records, a rule tests/test_api.py enforces.  The package's
`QuadElem` is a display type without arithmetic.  `from_elem` reads
one into this ring, and `Surd.fields` writes a value back as the
integers a `QuadElem` holds, so that a test can compare the package's
roots, and render its own values, against the ones built here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import pairwise
from math import isqrt, lcm
from typing import NamedTuple, Optional

from recmono import PropertyId, RecurrenceSpec, WindowReport, iterate, term_minus_one
from recmono.oracle import OracleWindows


def _sign(v: Fraction) -> int:
    n = v.numerator
    return (n > 0) - (n < 0)


class Surd:
    """p + q*sqrt(d) for rationals p, q and d >= 0.

    q = 0 whenever sqrt(d) is rational, so q != 0 means an irrational
    value.  + - * are closed over one radicand d; a rational (q = 0)
    combines with any, and two irrationals over different radicands
    raise ValueError.  == compares values, whatever the radicands.
    """

    __slots__ = ("p", "q", "d")

    def __init__(self, p: int | Fraction, q: int | Fraction = 0, d: int | Fraction = 0):
        p, q, d = Fraction(p), Fraction(q), Fraction(d)
        if d < 0:
            raise ValueError("need a radicand d >= 0")
        r, s = isqrt(d.numerator), isqrt(d.denominator)
        if r * r == d.numerator and s * s == d.denominator:
            p, q = p + q * Fraction(r, s), Fraction(0)
        self.p, self.q, self.d = p, q, d

    def __repr__(self) -> str:
        return f"Surd({self.p!r}, {self.q!r}, {self.d!r})"

    @classmethod
    def _of(cls, p: Fraction, q: Fraction, d: Fraction) -> "Surd":
        # the ring's results: d is an operand's radicand, so the rule that
        # q = 0 for a rational sqrt(d) holds without a new square test
        out = object.__new__(cls)
        out.p, out.q, out.d = p, q, d
        return out

    @staticmethod
    def _coerce(value: object) -> Optional["Surd"]:
        if isinstance(value, Surd):
            return value
        if isinstance(value, (int, Fraction)):
            return Surd._of(Fraction(value), Fraction(0), Fraction(0))
        return None

    def _radicand(self, other: "Surd") -> Fraction:
        if self.q and other.q and self.d != other.d:
            raise ValueError(f"mixed radicands: sqrt({self.d}) versus sqrt({other.d})")
        return self.d if self.q else other.d

    def __add__(self, other: object) -> "Surd":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.q:
            return Surd._of(self.p + o.p, self.q, self.d)
        return Surd._of(self.p + o.p, self.q + o.q, self._radicand(o))

    __radd__ = __add__

    def __neg__(self) -> "Surd":
        return Surd._of(-self.p, -self.q, self.d)

    def __abs__(self) -> "Surd":
        return -self if self.sign() < 0 else self

    def __sub__(self, other: object) -> "Surd":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.q:
            return Surd._of(self.p - o.p, self.q, self.d)
        return Surd._of(self.p - o.p, self.q - o.q, self._radicand(o))

    def __rsub__(self, other: object) -> "Surd":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + -self

    def __mul__(self, other: object) -> "Surd":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.q:
            return Surd._of(self.p * o.p, self.q * o.p, self.d)
        d = self._radicand(o)
        return Surd._of(self.p * o.p + self.q * o.q * d, self.p * o.q + self.q * o.p, d)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        # q*sqrt(d) - q'*sqrt(d') is rational only when it is zero, since q
        # and q' are nonzero only where sqrt(d) and sqrt(d') are irrational
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self.p == o.p and _sign(self.q) == _sign(o.q)
                and self.q * self.q * self.d == o.q * o.q * o.d)

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}: where p and q*sqrt(d) differ in sign,
        the sign of the one with the larger square, p^2 against q^2*d."""
        sp, sq = _sign(self.p), _sign(self.q)
        if sq == 0 or sp == sq:
            return sp
        if sp == 0:
            return sq
        return sp * _sign(self.p * self.p - self.q * self.q * self.d)

    def fields(self) -> tuple[int, int, int, int]:
        """(x, y, n, den): integers with (x + y*sqrt(n))/den equal to this
        value and den > 0, from sqrt(d) = sqrt(d_num*d_den)/d_den."""
        if not self.q:
            return self.p.numerator, 0, 0, self.p.denominator
        p, y = self.p, self.q / self.d.denominator
        den = lcm(p.denominator, y.denominator)
        return (p.numerator * (den // p.denominator), y.numerator * (den // y.denominator),
                self.d.numerator * self.d.denominator, den)


def from_elem(elem) -> Surd:
    """The value of a package QuadElem, read off its four integers."""
    return Surd(Fraction(elem.x, elem.den), Fraction(elem.y, elem.den), elem.n)


def ref_str(elem) -> str:
    """QuadElem.__str__ as three Fractions print it."""
    p = Fraction(elem.x, elem.den)
    if elem.y == 0:
        return str(p)
    sign = "+" if elem.y > 0 else "-"
    return f"{p} {sign} {Fraction(abs(elem.y), 2)}*sqrt({Fraction(4 * elem.n, elem.den**2)})"


class Roots(NamedTuple):
    """The roots of x^2 - a*x + b: all None when they are complex."""

    discriminant_sign: int
    alpha_plus: Optional[Surd]
    alpha_minus: Optional[Surd]
    alpha: Optional[Surd]
    beta: Optional[Surd]


@cache
def roots(a: int | Fraction, b: int | Fraction) -> Roots:
    """(a +- sqrt(a^2 - 4*b))/2, with alpha the root of larger square and
    the plus root where the squares tie; kept per (a, b), since no Surd
    changes once built."""
    a, b = Fraction(a), Fraction(b)
    disc = a * a - 4 * b
    if disc < 0:
        return Roots(-1, None, None, None, None)
    plus, minus = Surd(a / 2, Fraction(1, 2), disc), Surd(a / 2, Fraction(-1, 2), disc)
    alpha, beta = (plus, minus) if (plus * plus - minus * minus).sign() >= 0 else (minus, plus)
    return Roots(_sign(disc), plus, minus, alpha, beta)


def is_quadratic_pisot(pair) -> bool:
    """True iff the dominant root of x^2 - a*x + b, for integers a and b,
    is a quadratic Pisot number: irrational (a monic integer quadratic is
    irreducible exactly when its roots are), > 1, and with a conjugate of
    absolute value < 1; all exact."""
    r = roots(*pair)
    if r.discriminant_sign < 0 or not r.alpha.q:
        return False
    return (r.alpha - 1).sign() > 0 and ((r.beta - 1) * (r.beta + 1)).sign() < 0


# ----------------------------------------------------------------------
# naive oracle scans: every comparison done directly on exact values
# ----------------------------------------------------------------------

def ref_p1(spec: RecurrenceSpec, k: int, n_max: int, terms=None):
    """(holds, first_violation) for a[n] <= a[n+1] on n in [k-1, n_max]."""
    terms = iterate(spec, n_max + 1) if terms is None else terms
    pairs = []
    if k == 0:
        pairs.append((-1, term_minus_one(spec), terms[0]))
        lo = 0
    else:
        lo = k - 1
    pairs.extend((n, terms[n], terms[n + 1]) for n in range(lo, n_max + 1))
    for n, x, y in pairs:
        if x > y:
            return False, n
    return True, None


def ref_p2(spec: RecurrenceSpec, n_max: int, terms=None):
    """(holds, first_violation, skipped) for the ratio-distance scan."""
    terms = iterate(spec, n_max + 2) if terms is None else terms
    alpha = roots(spec.a, spec.b).alpha

    @cache
    def distance(n):
        """|alpha - a[n+1]/a[n]|, the nth ratio distance."""
        return abs(alpha - terms[n + 1] / terms[n])

    skipped = []
    for n in range(n_max + 1):
        if terms[n] == 0 or terms[n + 1] == 0:
            skipped.append(n)
            continue
        if (distance(n) - distance(n + 1)).sign() < 0:
            return False, n, tuple(skipped)
    return True, None, tuple(skipped)


def ref_p3(spec: RecurrenceSpec, n_max: int, terms=None):
    """(holds, first_violation) for the weighted-residual scan."""
    r = roots(spec.a, spec.b)
    if r.discriminant_sign >= 0:
        terms = iterate(spec, n_max + 2) if terms is None else terms
        res = (abs(r.alpha * terms[n] - terms[n + 1]) for n in range(n_max + 2))
        for n, (r0, r1) in enumerate(pairwise(res)):
            if (r0 - r1).sign() < 0:
                return False, n
        return True, None
    m = spec.v1**2 - spec.a * spec.v0 * spec.v1 + spec.b * spec.v0**2
    values = [m * spec.b**n for n in range(n_max + 2)]
    for n in range(n_max + 1):
        if values[n] < values[n + 1]:
            return False, n
    return True, None


def ref_n0(spec: RecurrenceSpec, n_cap: int, terms=None):
    terms = iterate(spec, n_cap + 1) if terms is None else terms
    n0 = 0
    for n in range(n_cap + 1):
        if terms[n] > terms[n + 1]:
            n0 = n + 1
    return n0 if n0 <= n_cap else None


def reference_windows(spec: RecurrenceSpec, window: int, from_k: int) -> OracleWindows:
    """The OracleWindows that oracle.scan(spec, window, from_k) must
    return, every field from the naive references on one iterate walk."""
    last = from_k + window
    terms = iterate(spec, max(last, window + 1) + 1)
    real = roots(spec.a, spec.b).discriminant_sign >= 0
    return OracleWindows(
        WindowReport(PropertyId.P1, (-1, window), *ref_p1(spec, 0, window, terms), ()),
        WindowReport(PropertyId.P1, (from_k - 1, last),
                     *ref_p1(spec, from_k, last, terms), ()),
        WindowReport(PropertyId.P2, (0, window), *ref_p2(spec, window, terms))
        if real else None,
        WindowReport(PropertyId.P3, (0, window), *ref_p3(spec, window, terms), ()),
        ref_n0(spec, window, terms),
    )
