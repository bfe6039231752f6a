"""Exact finite-window checks of the three monotonicity properties.

These scans work directly on iterated terms and know nothing about the
decision criteria; they are the second route every verdict is held
against.  All comparisons are exact.

For speed the scans run on a rescaled integer copy of the sequence,
recurrence.integer_carrier: with a = A/q, b = B/q over a common
denominator q and D clearing the starting pair, M[n] := a[n] * q**n * D
is an integer sequence obeying M[n+2] = A*M[n+1] - B*q*M[n].  Each
compared inequality, cleared of its (shared, positive) denominator,
becomes a sign test on X + Y*sqrt(d) with integers X, Y and
d = A**2 - 4*B*q = q**2 * (a**2 - 4b) >= 0 -- no rational
normalization ever runs.  The rescaling multiplies compared quantities
by positive constants only, so every verdict equals the one computed on
raw terms; the test suite checks that equivalence against a direct
rational-arithmetic reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Optional

from .recurrence import RecurrenceSpec, integer_carrier

__all__ = [
    "PropertyId",
    "WindowReport",
    "check_p1_window",
    "check_p2_window",
    "check_p3_window",
    "find_n0",
]


class PropertyId(Enum):
    P1 = "P1"
    P2 = "P2"
    P3 = "P3"


@dataclass(frozen=True)
class WindowReport:
    """Result of one exact scan.

    checked_range is the closed index interval of compared positions;
    skipped_indices lists positions whose comparison is undefined
    (a zero term under a ratio) and was left out of the scan.
    """

    property: PropertyId
    checked_range: tuple[int, int]
    holds_on_window: bool
    first_violation: Optional[int]
    skipped_indices: tuple[int, ...]


def _int_sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _quad_int_sign(x: int, y: int, d: int) -> int:
    """Sign of x + y*sqrt(d) for integers with d >= 0."""
    if y == 0 or d == 0:
        return _int_sign(x)
    if x == 0:
        return _int_sign(y)
    sx, sy = _int_sign(x), _int_sign(y)
    if sx == sy:
        return sx
    return sx * _int_sign(x * x - y * y * d)


def check_p1_window(spec: RecurrenceSpec, k: int, n_max: int) -> WindowReport:
    """Scan a[n] <= a[n+1] for n in [k-1, n_max].

    For k = 0 the first compared pair is (a[-1], a[0]) with a[-1] the
    backward extension.
    """
    if k < 0:
        raise ValueError("start index must be non-negative")
    if n_max < k:
        raise ValueError("window must reach the start index")
    q, A, B, _, M = integer_carrier(spec)
    M = list(islice(M, n_max + 2))
    first: Optional[int] = None
    if k == 0:
        # a[-1] = (A*M[0] - M[1]) / (B*D) against a[0] = M[0]/D
        lhs, rhs = A * M[0] - M[1], B * M[0]
        if (lhs > rhs) if B > 0 else (lhs < rhs):
            first = -1
    lo = 0 if k == 0 else k - 1
    if first is None:
        for n in range(lo, n_max + 1):
            if q * M[n] > M[n + 1]:
                first = n
                break
    return WindowReport(PropertyId.P1, (k - 1, n_max), first is None, first, ())


def check_p2_window(spec: RecurrenceSpec, n_max: int) -> WindowReport:
    """Scan |alpha - a[n+1]/a[n]| >= |alpha - a[n+2]/a[n+1]| for n in [0, n_max].

    alpha is the dominant root; a negative discriminant is an error since
    the compared distances are not real then.  Comparisons where a[n] or
    a[n+1] vanishes are skipped and recorded.

    On the carrier the residual becomes
    R[n] := 2*q**(n+1)*D * (a[n]*alpha - a[n+1]) = u[n] + s*M[n]*sqrt(d)
    with u[n] = A*M[n] - 2*M[n+1] and s = +1 when A > 0, -1 otherwise.
    That s picks alpha without a comparison: |(a + sqrt(disc))/2|^2 -
    |(a - sqrt(disc))/2|^2 = a*sqrt(disc), and a spec has a != 0 (for a
    repeated root d = 0 and s drops out).  The scan compares
    |R[n]*M[n+1]| against |R[n+1]*M[n]|, which carry the same positive
    factor.
    With sigma and tau the signs of those two products, the difference
    of their moduli is
    (sigma*u[n]*M[n+1] - tau*u[n+1]*M[n]) + s*M[n]*M[n+1]*(sigma - tau)*sqrt(d),
    a plain integer sign whenever sigma = tau.  Each sign(R[n]) is
    computed once, when first needed, and carried to the next index.
    """
    if n_max < 0:
        raise ValueError("window length must be non-negative")
    q, A, B, _, M = integer_carrier(spec)
    d = A * A - 4 * B * q
    if d < 0:
        raise ValueError("ratio distances are undefined for complex roots")
    s = 1 if A > 0 else -1
    skipped: list[int] = []
    first: Optional[int] = None
    m0, m1 = next(M), next(M)
    u0 = A * m0 - 2 * m1
    g0: Optional[int] = None  # sign(R[n]), once computed
    for n in range(n_max + 1):
        m2 = next(M)
        u1 = A * m1 - 2 * m2
        if m0 == 0 or m1 == 0:
            skipped.append(n)
            g0 = None
        else:
            if g0 is None:
                g0 = _quad_int_sign(u0, s * m0, d)
            g1 = _quad_int_sign(u1, s * m1, d)
            sigma = g0 if m1 > 0 else -g0
            tau = g1 if m0 > 0 else -g1
            if sigma == tau:
                diff = sigma * _int_sign(u0 * m1 - u1 * m0)
            else:
                diff = _quad_int_sign(
                    sigma * u0 * m1 - tau * u1 * m0, s * m0 * m1 * (sigma - tau), d
                )
            if diff < 0:
                first = n
                break
            g0 = g1
        m0, m1, u0 = m1, m2, u1
    return WindowReport(PropertyId.P2, (0, n_max), first is None, first, tuple(skipped))


def check_p3_window(spec: RecurrenceSpec, n_max: int) -> WindowReport:
    """Scan |a[n]*alpha - a[n+1]| >= |a[n+1]*alpha - a[n+2]| for n in [0, n_max].

    Real roots: with the carrier residual R[n] = u[n] + s*M[n]*sqrt(d)
    of check_p2_window and g[n] = sign(R[n]), the scan takes the sign of
    q*|R[n]| - |R[n+1]| =
    (g[n]*q*u[n] - g[n+1]*u[n+1]) + s*(g[n]*q*M[n] - g[n+1]*M[n+1])*sqrt(d),
    each g computed once and carried to the next index.  Complex pair:
    the squared residual modulus is (v1^2 - a*v0*v1 + b*v0^2) * b^n
    exactly, and consecutive values are compared index by index.
    """
    if n_max < 0:
        raise ValueError("window length must be non-negative")
    q, A, B, _, M = integer_carrier(spec)
    d = A * A - 4 * B * q
    first: Optional[int] = None
    if d >= 0:
        s = 1 if A > 0 else -1
        m0, m1 = next(M), next(M)
        u0 = A * m0 - 2 * m1
        g0 = _quad_int_sign(u0, s * m0, d)
        for n in range(n_max + 1):
            m2 = next(M)
            u1 = A * m1 - 2 * m2
            g1 = _quad_int_sign(u1, s * m1, d)
            gq = g0 * q
            if _quad_int_sign(gq * u0 - g1 * u1, s * (gq * m0 - g1 * m1), d) < 0:
                first = n
                break
            m0, m1, u0, g0 = m1, m2, u1, g1
    else:
        # squared modulus sequence m * b^n tracked as an exact integer
        # pair (num, den); consecutive values compared cross-multiplied
        m = spec.v1**2 - spec.a * spec.v0 * spec.v1 + spec.b * spec.v0**2
        bn, bd = spec.b.numerator, spec.b.denominator
        num, den = m.numerator, m.denominator
        for n in range(n_max + 1):
            num_next, den_next = num * bn, den * bd
            if num * den_next < num_next * den:
                first = n
                break
            num, den = num_next, den_next
    return WindowReport(PropertyId.P3, (0, n_max), first is None, first, ())


def find_n0(spec: RecurrenceSpec, n_cap: int) -> Optional[int]:
    """Smallest n0 <= n_cap with a[n] <= a[n+1] for all n in [n0, n_cap].

    Returns None when even the final compared pair violates.  This is a
    witness for the eventual property, not a proof.
    """
    if n_cap < 0:
        raise ValueError("cap must be non-negative")
    q, _, _, _, M = integer_carrier(spec)
    M = list(islice(M, n_cap + 2))
    n0 = 0
    for n in range(n_cap + 1):
        if q * M[n] > M[n + 1]:
            n0 = n + 1
    return n0 if n0 <= n_cap else None
