"""Exact arithmetic in real quadratic extensions of the rationals.

Every inequality this package decides reduces to the sign of a number
(x + y*sqrt(n))/den with integers x, y, n >= 0 and den > 0.  This
module provides that number type, `QuadElem`, together with exact sign
and absolute-value comparisons, and builds the characteristic roots of
x^2 - a*x + b on top of it.  Nothing here touches floating point.
Decimals are for display only.  One core, `_rounded`, rounds an element
half-even to a number of significant digits, on integers, and two
layouts print its result: `decimal_str` at 12 digits for reports and
`g6_str` at 6 digits, in C's %g layout, for CSV rasters.

Every sign is decided on integers, once: `surd_sign(x, y, n)` is the
sign of x + y*sqrt(n) for integers x, y and n >= 0.  It is exact for
any n, a perfect square included, because its only comparison is
x^2 against y^2*n.  `QuadElem.sign` is one call of it, since den > 0;
the exact fallback of the oracle's carrier walk calls it directly.

A root is (A +- sqrt(N))/(2L) here and in the oracle alike: a = A/L
and b = B/L over their common denominator L, and N = A^2 - 4*B*L, so
the discriminant a^2 - 4*b is N/L^2.  Which real root is the dominant
one, alpha, needs no comparison: |alpha+|^2 - |alpha-|^2 =
a*sqrt(a^2 - 4*b), so alpha is the plus root when a >= 0 and the minus
root otherwise.  `dominant_root_sign` is the one place that states
this rule; `quadratic_roots` and the oracle's residual walk apply it.

The radicand is kept exactly as constructed (for roots: N) and is not
reduced to squarefree form, nor is den reduced against x and y.
Elements built over different radicands never mix in practice, one
recurrence fixes one discriminant, and the arithmetic raises if they
do; an element with y = 0 is rational and combines with anything.
`quadratic_roots` decides squareness for the roots it builds (one
`isqrt`): a perfect-square N gives rational roots, so a root with
y != 0 has sqrt(N) irrational.  The oracle decides squareness on its
own, which keeps its route independent of this one.  Equality is
decided by value, as the sign of the difference.

`over_common_denominator` writes a rational pair as integer numerators
over one denominator, the first step of every integer route: the roots
here, the integer carrier and `regions.contains_coeff_plane`.  With
`surd_sign` and `dominant_root_sign` it is the package's integer
kernel, and `g6_str` is the CSV layout; none is part of the exported
API, and all are left out of `__all__`.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import isqrt, lcm
from typing import Optional, Union

RationalLike = Union[int, Fraction]

__all__ = [
    "QuadElem",
    "RootPair",
    "cmp_abs",
    "quadratic_roots",
    "decimal_str",
]


def over_common_denominator(x: RationalLike, y: RationalLike) -> tuple[int, int, int]:
    """(X, Y, L) with x = X/L and y = Y/L over their least common denominator L > 0."""
    L = lcm(x.denominator, y.denominator)
    return x.numerator * (L // x.denominator), y.numerator * (L // y.denominator), L


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


class QuadElem:
    """The real number (x + y*sqrt(n))/den, held as integers.

    Immutable after construction, with n >= 0 and den > 0.  Arithmetic
    is closed over a fixed radicand; combining two elements with y != 0
    and distinct radicands raises ValueError.  Elements with y == 0
    combine with anything.
    """

    __slots__ = ("x", "y", "n", "den")

    def __init__(self, x: int, y: int = 0, n: int = 0, den: int = 1):
        if n < 0 or den <= 0:
            raise ValueError("need a radicand n >= 0 and a denominator den > 0")
        self.x = x
        self.y = y
        self.n = n
        self.den = den

    @staticmethod
    def _coerce(value: object) -> Optional["QuadElem"]:
        if isinstance(value, QuadElem):
            return value
        if isinstance(value, (int, Fraction)):
            return QuadElem(value.numerator, 0, 0, value.denominator)
        return None

    def _common_radicand(self, other: "QuadElem") -> int:
        if self.y == 0:
            return other.n
        if other.y == 0 or self.n == other.n:
            return self.n
        raise ValueError(f"mixed radicands: sqrt({self.n}) versus sqrt({other.n})")

    def __add__(self, other: object) -> "QuadElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadElem(self.x * o.den + o.x * self.den, self.y * o.den + o.y * self.den,
                        self._common_radicand(o), self.den * o.den)

    __radd__ = __add__

    def __neg__(self) -> "QuadElem":
        return QuadElem(-self.x, -self.y, self.n, self.den)

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
        n = self._common_radicand(o)
        return QuadElem(self.x * o.x + self.y * o.y * n, self.x * o.y + self.y * o.x,
                        n, self.den * o.den)

    __rmul__ = __mul__

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}; den > 0 drops out."""
        return surd_sign(self.x, self.y, self.n)

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() == 0

    def __str__(self) -> str:
        """p + q*sqrt(d) with rational p = x/den, q = |y|/2 and d = 4*n/den^2,
        so a root (A +- sqrt(N))/(2L) prints as A/(2L) +- 1/2*sqrt(N/L^2)."""
        p = Fraction(self.x, self.den)
        if self.y == 0:
            return str(p)
        sign = "+" if self.y > 0 else "-"
        return f"{p} {sign} {Fraction(abs(self.y), 2)}*sqrt({Fraction(4 * self.n, self.den**2)})"


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
    In both, alpha is the root of largest modulus and beta the other;
    alpha is alpha_plus exactly when `dominant_root_sign(a)` is +1, so
    for a repeated root it is alpha_plus.
    discriminant_sign < 0: no real roots; only the shared squared modulus
    of the conjugate pair is stored (it equals b).
    """

    discriminant: Fraction
    discriminant_sign: int
    alpha_plus: Optional[QuadElem]
    alpha_minus: Optional[QuadElem]
    alpha: Optional[QuadElem]
    beta: Optional[QuadElem]
    modulus_squared: Optional[Fraction]


def quadratic_roots(a: RationalLike, b: RationalLike) -> RootPair:
    """Exact roots (A +- sqrt(N))/(2L) of x^2 - a*x + b for any rational a, b,
    with a = A/L, b = B/L over their common denominator L and
    N = A^2 - 4*B*L; a perfect-square N gives rational roots."""
    a, b = Fraction(a), Fraction(b)
    A, B, L = over_common_denominator(a, b)
    N = A * A - 4 * B * L
    disc = Fraction(N, L * L)
    if N < 0:
        return RootPair(disc, -1, None, None, None, None, b)
    r = isqrt(N)
    if r * r == N:
        plus, minus = QuadElem(A + r, 0, 0, 2 * L), QuadElem(A - r, 0, 0, 2 * L)
    else:
        plus, minus = QuadElem(A, 1, N, 2 * L), QuadElem(A, -1, N, 2 * L)
    alpha, beta = (plus, minus) if dominant_root_sign(A) > 0 else (minus, plus)
    return RootPair(disc, 1 if N else 0, plus, minus, alpha, beta, None)


def _rounded(x: Union[QuadElem, RationalLike], digits: int) -> tuple[int, int, int, bool]:
    """(sign, c, k, exact): |x| rounded half-even to c*10**k, c of `digits` digits.

    The work is on integers, for a surd and a rational (y = 0) alike.
    With v = (x + y*sqrt(n))/den, a lower bound on |v| picks the
    exponent k: |v| itself when x and y agree in sign, else the
    conjugate form |x^2 - y^2*n| / (den*(|x| + |y|*sqrt(n))), where
    nothing cancels.  The significand c = floor(|v|/10**k) comes from one
    isqrt, since floor((a + sqrt(m))/D) = (a + isqrt(m)) // D and
    floor((a - sqrt(m))/D) = (a - ceil(sqrt(m))) // D for integers a,
    m >= 0 and D > 0, whatever the cancellation between a and sqrt(m).
    Rounding is the exact sign of |v| - (c + 1/2)*10**k, by `surd_sign`.
    `exact` says that c*10**k is |v| itself; it is decided for rationals
    only, and a surd reports False.  Zero gives (0, 0, 0, True).
    """
    q = QuadElem._coerce(x)
    if q is None:
        raise TypeError(f"cannot render {type(x).__name__}")
    s = q.sign()
    if s == 0:
        return 0, 0, 0, True
    # |v| = (x + y*sqrt(n))/den > 0 from here on
    x, y, n, den = s * q.x, s * q.y, q.n, q.den
    low = abs(x) + isqrt(y * y * n)  # low <= |x| + |y|*sqrt(n) < low + 1
    if x >= 0 and y >= 0:
        num, dd = low, den
    else:
        num, dd = abs(x * x - y * y * n), den * (low + 1)
    # num/dd <= |v| <= 2*num/dd, so c has digits to digits + 2 digits at
    # this k; adjusted() counts digits where str() refuses ints past 4300
    k = Decimal(num).adjusted() - Decimal(dd).adjusted() - digits
    # |v|/10**k = (x*P + y*P*sqrt(n))/D
    P, D = (10**-k, den) if k < 0 else (1, den * 10**k)
    m = y * y * P * P * n
    r = isqrt(m)
    c = (x * P + r) // D if y >= 0 else (x * P - r - (r * r != m)) // D
    extra = len(str(c)) - digits
    c //= 10**extra
    k += extra
    P, D = (10**-k, den) if k < 0 else (1, den * 10**k)
    exact = y == 0 and x * P == c * D
    half = surd_sign(2 * x * P - (2 * c + 1) * D, 2 * y * P, n)
    if half > 0 or (half == 0 and c & 1):
        c += 1
    if c == 10**digits:
        c, k = c // 10, k + 1
    return s, c, k, exact


def decimal_str(x: Union[QuadElem, RationalLike]) -> str:
    """x rounded half-even to 12 significant digits, printed as a Decimal.

    An exact rational drops the trailing zeros of its fraction, so a
    terminating value keeps its short form ("0.5", "1000"); every other
    value prints all 12 digits ("1.00000000000E+15").
    """
    s, c, k, exact = _rounded(x, 12)
    while exact and k < 0 and c % 10 == 0:
        c, k = c // 10, k + 1
    return str(Decimal(f"{'-' if s < 0 else ''}{c}E{k}"))


def g6_str(x: Union[QuadElem, RationalLike]) -> str:
    """x rounded half-even to 6 significant digits, in the layout of C's %g.

    Trailing zeros are dropped.  A decimal exponent e from -4 to 5
    prints in fixed notation, any other as d.ddddde+XX, with at least
    two exponent digits.  Zero is "0".
    """
    s, c, k, _ = _rounded(x, 6)
    if s == 0:
        return "0"
    e, digits = k + 5, str(c).rstrip("0")  # |x| rounds to d.dddd*10**e
    if -4 <= e <= 5:  # zeros padded in, the point after the units digit
        digits, point, suffix = ("0" * -e + digits).ljust(e + 1, "0"), max(e, 0) + 1, ""
    else:
        point, suffix = 1, f"e{e:+03d}"
    return f"{'-' if s < 0 else ''}{digits[:point]}.{digits[point:]}".rstrip(".") + suffix
