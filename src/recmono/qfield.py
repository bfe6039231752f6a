"""Exact arithmetic in real quadratic extensions of the rationals.

Every inequality this package decides reduces to the sign of a number
p + q*sqrt(d) with rational p, q and rational d >= 0.  This module
provides that number type together with exact sign and absolute-value
comparisons, and builds the characteristic roots of x^2 - a*x + b on
top of it.  Nothing here touches floating point; approximate rendering
for display lives in `to_decimal` and is only used at the edges
(reports, CLI output).

Every sign is decided on integers, once: `surd_sign(x, y, n)` is the
sign of x + y*sqrt(n) for integers x, y and n >= 0.  It is exact for
any n, a perfect square included, because its only comparison is
x^2 against y^2*n.  `QuadElem.sign` clears its denominators and calls
it; the raster cells of `regions`, whose centres sit on integer
numerators over one common denominator, and the exact fallback of the
oracle's carrier walk call it directly.

Which real root is the dominant one, alpha, needs no comparison: with
alpha+- = (a +- sqrt(disc))/2, |alpha+|^2 - |alpha-|^2 = a*sqrt(disc),
so alpha is the plus root when a >= 0 and the minus root otherwise.
`dominant_root_sign` is the one place that states this rule;
`order_by_modulus`, the raster cells of `regions` and the oracle's
residual walk apply it.

The radicand is kept exactly as constructed (for roots: a^2 - 4*b) and
is not reduced to squarefree form.  Elements built over different
radicands never mix in practice, one recurrence fixes one discriminant,
and the arithmetic raises if they do.  The one normalization performed
is collapsing a perfect-square radicand into the rational part, which
guarantees: q != 0 implies sqrt(d) is irrational.  Only the public
constructor decides squareness (two `isqrt`s); the ring operations
combine elements over one radicand, which by the invariant is either 0
or not a square, so their results keep it without a re-check.  Normal
form makes equality and hashing structural and the norm of a nonzero
element nonzero.

`surd_sign` and `dominant_root_sign` are the package's integer kernel,
not part of its exported API, and are left out of `__all__`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import total_ordering
from typing import Optional, Union

RationalLike = Union[int, Fraction]

__all__ = [
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


_ZERO = Fraction(0)


def _rat_sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def surd_sign(x: int, y: int, n: int) -> int:
    """Sign of x + y*sqrt(n) for integers x, y and n >= 0, exactly.

    When x and y*sqrt(n) differ in sign the sum has the sign of the
    larger modulus, that is of x^2 - y^2*n; a tie there is a true zero.
    """
    sx = (x > 0) - (x < 0)
    sy = (y > 0) - (y < 0) if n else 0
    if sx == sy or sy == 0:
        return sx
    if sx == 0:
        return sy
    t = x * x - y * y * n
    return sx * ((t > 0) - (t < 0))


def dominant_root_sign(a: Union[int, Fraction]) -> int:
    """s such that alpha = (a + s*sqrt(disc))/2 is a root of largest modulus.

    |alpha+|^2 - |alpha-|^2 = a*sqrt(disc), so s = +1 when a >= 0 and
    -1 otherwise; at a = 0 the moduli tie and the plus root is taken.
    The sign of a is that of any positive multiple of it, so integer
    numerators over a positive denominator may be passed as well.
    """
    return 1 if a >= 0 else -1


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
    raises ValueError.  Elements with q == 0 combine with anything.
    """

    __slots__ = ("p", "q", "d")

    def __init__(self, p: RationalLike, q: RationalLike = 0, d: RationalLike = 0):
        p, q, d = Fraction(p), Fraction(q), Fraction(d)
        if d < 0:
            raise ValueError("radicand must be non-negative")
        if q == 0:
            d = _ZERO
        else:
            r = rational_sqrt(d)
            if r is not None:
                p, q, d = p + q * r, _ZERO, _ZERO
        self.p = p
        self.q = q
        self.d = d

    @classmethod
    def _closed(cls, p: Fraction, q: Fraction, d: Fraction) -> "QuadElem":
        """p + q*sqrt(d) where d is 0 or a radicand already in normal form.

        Ring operations build their results here: their radicand is one
        an operand already carries, so it is not re-checked for squareness.
        """
        x = object.__new__(cls)
        x.p = p
        if q == 0:
            x.q = x.d = _ZERO
        else:
            x.q = q
            x.d = d
        return x

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
        return QuadElem._closed(self.p + o.p, self.q + o.q, d)

    __radd__ = __add__

    def __neg__(self) -> "QuadElem":
        return QuadElem._closed(-self.p, -self.q, self.d)

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
        return QuadElem._closed(
            self.p * o.p + self.q * o.q * d,
            self.p * o.q + self.q * o.p,
            d,
        )

    __rmul__ = __mul__

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
        num = self * QuadElem._closed(o.p, -o.q, d)
        return QuadElem._closed(num.p / norm, num.q / norm, d)

    def __rtruediv__(self, other: object) -> "QuadElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    # -- order and identity --------------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}.

        p + q*sqrt(f/g) times the positive P*Q*g, where P and Q are the
        denominators of p and q, is the integer surd
        p_num*Q*g + q_num*P*sqrt(f*g), whose sign `surd_sign` decides.
        """
        p, q = self.p, self.q
        if q == 0:
            return _rat_sign(p)
        g = self.d.denominator
        return surd_sign(
            p.numerator * q.denominator * g, q.numerator * p.denominator, self.d.numerator * g
        )

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
    """Compare |x| with |y| exactly: sign of x^2 - y^2 = (x - y)*(x + y)."""
    qx, qy = QuadElem._coerce(x), QuadElem._coerce(y)
    if qx is None or qy is None:
        raise TypeError("cmp_abs needs QuadElem or rational arguments")
    return (qx - qy).sign() * (qx + qy).sign()


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

    alpha is the plus root exactly when `dominant_root_sign(a)` is +1;
    for a = 0 or a repeated root the moduli tie and alpha is the plus
    root.
    """
    if roots.discriminant_sign < 0:
        raise ValueError("complex roots cannot be ordered by real modulus")
    ap, am = roots.alpha_plus, roots.alpha_minus
    # the rational parts of the roots sum to a
    if dominant_root_sign(ap.p + am.p) > 0:
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
