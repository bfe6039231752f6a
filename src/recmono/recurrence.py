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

from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import islice
from typing import Iterator, NamedTuple, Optional

from .qfield import (
    QuadElem,
    RationalLike,
    RootPair,
    dominant_root_sign,
    over_common_denominator,
    quadratic_roots,
    surd_sign,
)

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


class RecurrenceSpec:
    """Coefficients and starting pair; h_type marks the a[-1] = 0 family.

    A read-only value: it compares and hashes by its five fields, and
    setting or deleting an attribute raises AttributeError.  It is not a
    NamedTuple, whose _replace and _make would skip the checks below.
    """

    a: Fraction
    b: Fraction
    v0: Fraction
    v1: Fraction
    h_type: bool

    def __init__(
        self,
        a: RationalLike,
        b: RationalLike,
        v0: RationalLike,
        v1: RationalLike,
        h_type: bool = False,
    ):
        a, b, v0, v1 = Fraction(a), Fraction(b), Fraction(v0), Fraction(v1)
        if a == 0 or b == 0:
            raise ValueError("coefficients a and b must be nonzero")
        if v0 == 0 and v1 == 0:
            raise ValueError("starting pair must not be (0, 0)")
        if h_type and (v0 == 0 or v1 != a * v0):
            raise ValueError("h-type requires v0 != 0 and v1 = a*v0")
        self.__dict__.update(a=a, b=b, v0=v0, v1=v1, h_type=h_type)

    def _key(self) -> tuple:
        return self.a, self.b, self.v0, self.v1, self.h_type

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (
            f"{type(self).__qualname__}(a={self.a!r}, b={self.b!r}, v0={self.v0!r}, "
            f"v1={self.v1!r}, h_type={self.h_type!r})"
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def roots(self) -> RootPair:
        """The roots of x^2 - a*x + b, built on first use and kept on the spec."""
        return self._roots

    # The roots and the integer form, each computed on first use and kept
    # on the spec (cached_property writes the instance dict directly, past
    # __setattr__, so a read-only spec still keeps them).

    @cached_property
    def _roots(self) -> RootPair:
        return quadratic_roots(self.a, self.b)

    @cached_property
    def _integers(self) -> tuple[int, int, int, int, int, int]:
        """(q, A, B, D, V0, V1): a = A/q and b = B/q over their least
        common denominator q, v0 = V0/D and v1 = V1/D over theirs."""
        A, B, q = over_common_denominator(self.a, self.b)
        V0, V1, D = over_common_denominator(self.v0, self.v1)
        return q, A, B, D, V0, V1

    # Every root clause of the decisions, and the sign ratio_limit and the
    # report read, is one sign on the integer form.  With real roots
    # (N = A*A - 4*B*q >= 0) the roots are (A +- sqrt(N))/(2*q), alpha
    # taking the sign dominant_root_sign(A) as quadratic_roots builds
    # them, and 2*q*(Y - X*r) = 2*q*Y - A*X - t*X*sqrt(N).

    def _gap_sign(self, t: int, X: int, Y: int) -> int:
        """sign(Y - X*r) for the root r = (A + t*sqrt(N))/(2*q) and integers
        X, Y over one positive denominator; exact for a square N too."""
        q, A, B, _, _, _ = self._integers
        return surd_sign(2 * q * Y - A * X, -t * X, A * A - 4 * B * q)


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
    The integers are the spec's own integer form, cleared once per spec
    and kept on it, which the decisions, the oracle and the report share,
    so a second carrier of one spec clears no denominator again.
    M[start] = M[1]*U[start] - B*q*M[0]*U[start-1] is reached by fast
    doubling (U[2k] = U[k]*(2*U[k+1] - A*U[k]),
    U[2k+1] = U[k+1]^2 - B*q*U[k]^2), without walking the prefix.
    """
    if start < 0:
        raise ValueError("start index must be non-negative")
    q, A, B, D, V0, V1 = spec._integers
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
    q, A, B, D, V0, V1 = spec._integers
    return Fraction(A * V0 - q * V1, B * D)


class LimitKind(Enum):
    CONVERGES = "converges"
    DIVERGES = "diverges"


class RatioLimit(NamedTuple):
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
    if not (spec.v0 and spec.v1):
        raise ValueError("ratio limit needs a nonzero starting pair")
    roots = spec.roots()
    if roots.discriminant_sign < 0:
        return RatioLimit(LimitKind.DIVERGES, None, None)
    _, A, _, _, V0, V1 = spec._integers
    if spec._gap_sign(-dominant_root_sign(A), V0, V1) != 0:  # v1 != v0*beta
        return RatioLimit(LimitKind.CONVERGES, roots.alpha, "alpha")
    return RatioLimit(LimitKind.CONVERGES, roots.beta, "beta")
