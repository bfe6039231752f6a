"""Second-order linear recurrences over the rationals.

A spec pins down one solution of

    a[n+2] = a * a[n+1] - b * a[n]

by its coefficients and starting pair (a[0], a[1]) = (v0, v1).  The sign
convention matches the monic characteristic polynomial x^2 - a*x + b, so
the roots multiply to b and sum to a.

h-type specs are the one-parameter family started from (c, a*c).  They
are exactly the solutions with a[-1] = 0, a scaled copy of the divided
difference h[n] = (alpha^(n+1) - beta^(n+1)) / (alpha - beta); several
decision procedures are stated only for this family.

integer_carrier rescales the sequence to integers M[n] and is the one
kernel that reads terms at far indices.  For the carrier's roots h[n-1]
is the Lucas sequence U[n] of x^2 - A*x + B*q, so
M[n] = M[1]*U[n] - B*q*M[0]*U[n-1], and U reaches any index in O(log n)
products by fast doubling:
U[2k] = U[k]*(2*U[k+1] - A*U[k]) and U[2k+1] = U[k+1]^2 - B*q*U[k]^2.

Two term readers remain, on purpose.  `iterate` walks the recurrence in
Fractions and prints every prefix (`sequence`): each step reduces
against a denominator that shares almost every factor with the last,
so its gcds are cheap.  Reading a prefix off the carrier instead pays a
full gcd of two n-digit integers per term in Fraction(M[n], q**n*D),
which made `sequence --format=csv` on (7/3, -5/7, 3/4, -2/5) at
n = 3000 about 1.3x slower (CPython 3.11, x86-64).  `terms_between` is
the reader for a short stretch at a far index.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import islice
from typing import Iterator, Optional

from .qfield import QuadElem, RationalLike, RootPair, over_common_denominator, quadratic_roots

__all__ = [
    "RecurrenceSpec",
    "LimitKind",
    "RatioLimit",
    "make_h_spec",
    "iterate",
    "integer_carrier",
    "terms_between",
    "term_minus_one",
    "ratio_limit",
]


@dataclass(frozen=True)
class RecurrenceSpec:
    """Coefficients and starting pair; h_type marks the a[-1] = 0 family."""

    a: Fraction
    b: Fraction
    v0: Fraction
    v1: Fraction
    h_type: bool = False

    def __post_init__(self):
        for name in ("a", "b", "v0", "v1"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.a == 0 or self.b == 0:
            raise ValueError("coefficients a and b must be nonzero")
        if self.v0 == 0 and self.v1 == 0:
            raise ValueError("starting pair must not be (0, 0)")
        if self.h_type and (self.v0 == 0 or self.v1 != self.a * self.v0):
            raise ValueError("h-type requires v0 != 0 and v1 = a*v0")

    def roots(self) -> RootPair:
        """The roots of x^2 - a*x + b, built on first use and kept on the spec."""
        return self._roots

    # The roots, and signs and a[-1] that several decisions, ratio_limit
    # and the report read, each computed on first use and kept on the spec
    # (cached_property writes the instance dict, which frozen allows).
    # The three signs need real roots.

    @cached_property
    def _roots(self) -> RootPair:
        return quadratic_roots(self.a, self.b)

    @cached_property
    def _beta_residual_sign(self) -> int:
        """sign(v1 - v0*beta), 0 exactly on a start along beta."""
        return (self.v1 - self.v0 * self.roots().beta).sign()

    @cached_property
    def _alpha_residual_sign(self) -> int:
        """sign(v1 - v0*alpha), 0 exactly on the dominant eigen-solution."""
        return (self.v1 - self.v0 * self.roots().alpha).sign()

    @cached_property
    def _alpha_plus_vs_one(self) -> int:
        """sign(alpha_plus - 1)."""
        return (self.roots().alpha_plus - 1).sign()

    @cached_property
    def _term_minus_one(self) -> Fraction:
        return (self.a * self.v0 - self.v1) / self.b


def make_h_spec(a: RationalLike, b: RationalLike, c: RationalLike = 1) -> RecurrenceSpec:
    """The solution c, c*a, ... with a[-1] = 0; c must be nonzero."""
    c = Fraction(c)
    if c == 0:
        raise ValueError("h-type scale c must be nonzero")
    a = Fraction(a)
    return RecurrenceSpec(a, Fraction(b), c, a * c, h_type=True)


def iterate(spec: RecurrenceSpec, n_max: int) -> tuple[Fraction, ...]:
    """Exact terms a[0] .. a[n_max] by running the recurrence."""
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    terms = [spec.v0, spec.v1]
    for _ in range(n_max - 1):
        terms.append(spec.a * terms[-1] - spec.b * terms[-2])
    return tuple(terms[: n_max + 1])


def integer_carrier(
    spec: RecurrenceSpec, start: int = 0
) -> tuple[int, int, int, int, Iterator[int]]:
    """(q, A, B, D, M): the sequence rescaled to integers.

    With a = A/q, b = B/q over their common denominator q and D clearing
    the starting pair, M yields M[start], M[start+1], ... without end,
    where M[n] = a[n] * q**n * D obeys M[n+2] = A*M[n+1] - B*q*M[n].
    M[start] = M[1]*U[start] - B*q*M[0]*U[start-1] is reached by fast
    doubling (U[2k] = U[k]*(2*U[k+1] - A*U[k]),
    U[2k+1] = U[k+1]^2 - B*q*U[k]^2), without walking the prefix.
    """
    if start < 0:
        raise ValueError("start index must be non-negative")
    A, B, q = over_common_denominator(spec.a, spec.b)
    V0, V1, D = over_common_denominator(spec.v0, spec.v1)
    m0, m1 = _carrier_jump(A, B * q, V0, V1 * q, start)
    return q, A, B, D, _carrier_terms(A, B * q, m0, m1)


def _carrier_jump(A: int, Bq: int, m0: int, m1: int, n: int) -> tuple[int, int]:
    """(M[n], M[n+1]) from (M[0], M[1]) = (m0, m1), doubling (U[k], U[k+1])
    high bit of n first; n = 0 gives (m0, m1) back.  B*q*U[n-1] =
    A*U[n] - U[n+1] turns M[n] into (M[1] - A*M[0])*U[n] + M[0]*U[n+1],
    which needs no division."""
    u0, u1 = 0, 1
    for bit in bin(n)[2:]:
        u0, u1 = u0 * (2 * u1 - A * u0), u1 * u1 - Bq * u0 * u0
        if bit == "1":
            u0, u1 = u1, A * u1 - Bq * u0
    return (m1 - A * m0) * u0 + m0 * u1, m1 * u1 - Bq * m0 * u0


def _carrier_terms(A: int, Bq: int, m0: int, m1: int) -> Iterator[int]:
    while True:
        yield m0
        m0, m1 = m1, A * m1 - Bq * m0


def terms_between(spec: RecurrenceSpec, lo: int, hi: int) -> tuple[Fraction, ...]:
    """Exact terms a[lo] .. a[hi], read off the integer carrier started at lo."""
    if not 0 <= lo <= hi:
        raise ValueError("need 0 <= lo <= hi")
    q, _, _, D, M = integer_carrier(spec, lo)
    scale = q**lo * D
    out = []
    for m in islice(M, hi - lo + 1):
        out.append(Fraction(m, scale))
        scale *= q
    return tuple(out)


def term_minus_one(spec: RecurrenceSpec) -> Fraction:
    """The unique backward extension a[-1] = (a*a[0] - a[1]) / b."""
    return spec._term_minus_one


class LimitKind(Enum):
    CONVERGES = "converges"
    DIVERGES = "diverges"


@dataclass(frozen=True)
class RatioLimit:
    """Behavior of a[n+1]/a[n]; which_root tells which root is the limit."""

    kind: LimitKind
    limit: Optional[QuadElem]
    which_root: Optional[str]  # "alpha" (dominant) or "beta"


def ratio_limit(spec: RecurrenceSpec) -> RatioLimit:
    """Limit of consecutive-term ratios; needs v0*v1 != 0.

    The ratio converges exactly when the discriminant is non-negative.
    The limit is the dominant root alpha unless the starting pair kills
    its coefficient (v1 = v0*beta), in which case the orbit is a scaled
    power of beta and the ratio sits at beta from the start.
    """
    if spec.v0 * spec.v1 == 0:
        raise ValueError("ratio limit needs a nonzero starting pair")
    roots = spec.roots()
    if roots.discriminant_sign < 0:
        return RatioLimit(LimitKind.DIVERGES, None, None)
    if spec._beta_residual_sign != 0:
        return RatioLimit(LimitKind.CONVERGES, roots.alpha, "alpha")
    return RatioLimit(LimitKind.CONVERGES, roots.beta, "beta")
