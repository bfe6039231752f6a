"""Exact arithmetic in real quadratic extensions of the rationals.

Every inequality this package decides reduces to the sign of a number
p + q*sqrt(d) with rational p, q and rational d >= 0.  This module
provides that number type together with exact sign and absolute-value
comparisons, and builds the characteristic roots of x^2 - a*x + b on
top of it.  Nothing here touches floating point; approximate rendering
for display lives in `to_decimal` and is only used at the edges
(reports, CLI output).

Which real root is the dominant one, alpha, needs no comparison: with
alpha+- = (a +- sqrt(disc))/2, |alpha+|^2 - |alpha-|^2 = a*sqrt(disc),
so alpha is the plus root when a >= 0 and the minus root otherwise.
`order_by_modulus` is the one place that applies this rule.

The radicand is kept exactly as constructed (for roots: a^2 - 4*b) and
is not reduced to squarefree form.  Elements built over different
radicands never mix in practice, one recurrence fixes one discriminant,
and the arithmetic raises if they do.  The one normalization performed
is collapsing a perfect-square radicand into the rational part, which
guarantees: q != 0 implies sqrt(d) is irrational.  The exactness of
`sign` rests on that invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import total_ordering
from typing import Optional, Union

Rational = Fraction
RationalLike = Union[int, Fraction]

__all__ = [
    "Rational",
    "QuadElem",
    "RootPair",
    "rational_sqrt",
    "cmp_abs",
    "characteristic_roots",
    "quadratic_roots",
    "order_by_modulus",
    "to_decimal",
    "decimal_str",
]


def _rat_sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def rational_sqrt(x: Fraction) -> Optional[Fraction]:
    """Exact square root of a non-negative rational, None if irrational."""
    if x < 0:
        raise ValueError("negative radicand has no real square root")
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


@total_ordering
class QuadElem:
    """The real number p + q*sqrt(d), held exactly.

    Immutable after construction.  Arithmetic is closed over a fixed
    radicand; combining two elements with distinct irrational radicands
    raises ValueError.  Rational elements (q == 0) combine with anything.
    """

    __slots__ = ("p", "q", "d")

    def __init__(self, p: RationalLike, q: RationalLike = 0, d: RationalLike = 0):
        p, q, d = Fraction(p), Fraction(q), Fraction(d)
        if d < 0:
            raise ValueError("radicand must be non-negative")
        if q == 0:
            d = Fraction(0)
        else:
            r = rational_sqrt(d)
            if r is not None:
                p, q, d = p + q * r, Fraction(0), Fraction(0)
        self.p = p
        self.q = q
        self.d = d

    # -- coercion helpers -------------------------------------------------

    @staticmethod
    def _coerce(value: object) -> Optional["QuadElem"]:
        if isinstance(value, QuadElem):
            return value
        if isinstance(value, (int, Fraction)):
            return QuadElem(value)
        return None

    def _common_radicand(self, other: "QuadElem") -> Fraction:
        if self.q == 0:
            return other.d
        if other.q == 0:
            return self.d
        if self.d != other.d:
            raise ValueError(
                f"mixed radicands: sqrt({self.d}) versus sqrt({other.d})"
            )
        return self.d

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: object) -> "QuadElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._common_radicand(o)
        return QuadElem(self.p + o.p, self.q + o.q, d)

    __radd__ = __add__

    def __neg__(self) -> "QuadElem":
        return QuadElem(-self.p, -self.q, self.d)

    def __sub__(self, other: object) -> "QuadElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: object) -> "QuadElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other: object) -> "QuadElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._common_radicand(o)
        return QuadElem(
            self.p * o.p + self.q * o.q * d,
            self.p * o.q + self.q * o.p,
            d,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "QuadElem":
        return QuadElem(self.p, -self.q, self.d)

    def __truediv__(self, other: object) -> "QuadElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._common_radicand(o)
        # norm is zero only for the zero element: q != 0 forces sqrt(d)
        # irrational, so p^2 = q^2 d is impossible
        norm = o.p * o.p - o.q * o.q * d
        if norm == 0:
            raise ZeroDivisionError("division by zero element")
        num = self * QuadElem(o.p, -o.q, d)
        return QuadElem(num.p / norm, num.q / norm, d)

    def __rtruediv__(self, other: object) -> "QuadElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, exponent: int) -> "QuadElem":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return (QuadElem(1) / self) ** (-exponent)
        result = QuadElem(1, 0, self.d)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- order and identity --------------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}.

        With q != 0 the radicand is irrational, so for mixed signs of p
        and q the comparison |p| versus |q|*sqrt(d) never ties and is
        decided by the rational quantity p^2 - q^2 d.
        """
        sp = _rat_sign(self.p)
        if self.q == 0:
            return sp
        sq = _rat_sign(self.q)
        if sp == 0:
            return sq
        if sp == sq:
            return sp
        return sp * _rat_sign(self.p * self.p - self.q * self.q * self.d)

    def __bool__(self) -> bool:
        return not (self.p == 0 and self.q == 0)

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.p == o.p and self.q == o.q and self.d == o.d

    def __hash__(self) -> int:
        if self.q == 0:
            return hash(self.p)
        return hash((self.p, self.q, self.d))

    def __lt__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    # -- rendering -----------------------------------------------------------

    def __float__(self) -> float:
        return float(self.p) + float(self.q) * math.sqrt(float(self.d))

    def __str__(self) -> str:
        if self.q == 0:
            return str(self.p)
        if self.q > 0:
            return f"{self.p} + {self.q}*sqrt({self.d})"
        return f"{self.p} - {-self.q}*sqrt({self.d})"

    def __repr__(self) -> str:
        return f"QuadElem({self.p!r}, {self.q!r}, {self.d!r})"


def cmp_abs(x: Union[QuadElem, RationalLike], y: Union[QuadElem, RationalLike]) -> int:
    """Compare |x| with |y| exactly: sign of x^2 - y^2."""
    qx, qy = QuadElem._coerce(x), QuadElem._coerce(y)
    if qx is None or qy is None:
        raise TypeError("cmp_abs needs QuadElem or rational arguments")
    return (qx * qx - qy * qy).sign()


@dataclass(frozen=True)
class RootPair:
    """Roots of x^2 - a*x + b, with the complex case kept implicit.

    discriminant_sign > 0: two distinct real roots alpha_plus > alpha_minus.
    discriminant_sign = 0: alpha_plus == alpha_minus, both rational.
    discriminant_sign < 0: no real roots; only the shared squared modulus
    of the conjugate pair is stored (it equals b).
    """

    discriminant: Fraction
    discriminant_sign: int
    alpha_plus: Optional[QuadElem]
    alpha_minus: Optional[QuadElem]
    modulus_squared: Optional[Fraction]


def characteristic_roots(a: RationalLike, b: RationalLike) -> RootPair:
    """Exact roots of x^2 - a*x + b for nonzero rational a, b."""
    if a == 0 or b == 0:
        raise ValueError("both coefficients must be nonzero")
    return quadratic_roots(a, b)


def quadratic_roots(a: RationalLike, b: RationalLike) -> RootPair:
    """Exact roots of x^2 - a*x + b for any rational a, b.

    Unlike characteristic_roots this admits a = 0 or b = 0, which occur
    as grid points of the coefficient plane.
    """
    a, b = Fraction(a), Fraction(b)
    disc = a * a - 4 * b
    if disc < 0:
        return RootPair(disc, -1, None, None, b)
    half = Fraction(1, 2)
    return RootPair(
        disc,
        1 if disc > 0 else 0,
        QuadElem(a * half, half, disc),
        QuadElem(a * half, -half, disc),
        None,
    )


def order_by_modulus(roots: RootPair) -> tuple[QuadElem, QuadElem]:
    """(alpha, beta) with |alpha| >= |beta|; raises for complex roots.

    alpha is the plus root exactly when a >= 0 (see the module
    docstring); for a = 0 or a repeated root the moduli tie and alpha is
    the plus root.
    """
    if roots.discriminant_sign < 0:
        raise ValueError("complex roots cannot be ordered by real modulus")
    ap, am = roots.alpha_plus, roots.alpha_minus
    if ap.p + am.p >= 0:  # the rational parts of the roots sum to a
        return ap, am
    return am, ap


def to_decimal(x: Union[QuadElem, RationalLike], digits: int = 12) -> Decimal:
    """x rounded to `digits` significant digits, computed with guard digits."""
    q = QuadElem._coerce(x)
    if q is None:
        raise TypeError(f"cannot render {type(x).__name__}")
    if digits < 1:
        raise ValueError("need at least one significant digit")
    with localcontext() as ctx:
        ctx.prec = digits + 20
        value = Decimal(q.p.numerator) / Decimal(q.p.denominator)
        if q.q != 0:
            root = (Decimal(q.d.numerator) / Decimal(q.d.denominator)).sqrt()
            value += (Decimal(q.q.numerator) / Decimal(q.q.denominator)) * root
        ctx.prec = digits
        value = +value
    return value


def decimal_str(x: Union[QuadElem, RationalLike], digits: int = 12) -> str:
    return str(to_decimal(x, digits))
