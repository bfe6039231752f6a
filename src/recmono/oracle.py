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

The P2 and P3 scans compare moduli of the residual R = u + y*sqrt(d),
which cancels heavily once the sequence follows its dominant root.
Each modulus is therefore taken over the conjugate, where nothing
cancels: |R| = S := |u| + |y|*sqrt(d) when u and y*sqrt(d) agree in
sign, else |R| = |N|/S with N = u**2 - y**2*d the exact integer norm.
S is bracketed from r = isqrt(d << 128) to about 2**-63, so every
modulus lies between two 64-bit integers scaled by one power of two,
and a comparison is decided by exact integer inequalities between such
brackets.  Where the
brackets overlap (a tie such as |beta| = 1, a residual that is
identically 0, or a near tie) the index falls back to the exact sign
test of x + y*sqrt(d).  No float enters: every verdict comes from an
exact integer inequality.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import islice
from math import isqrt
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


# Below this bit length of the carrier term the exact test is cheaper
# than building the brackets, so short operands go to it directly.  The
# per-index crossover, measured on CPython 3.11, lies between about 450
# bits (P2 with opposite-sign products) and 900 bits (P2 with like
# signs, and P3).
_BRACKET_MIN_BITS = 640


def _top(x: int) -> tuple[int, int]:
    """(t, e) with t*2**e <= x < (t + 1)*2**e and t < 2**64, for x >= 0;
    e = 0 means t = x."""
    e = max(x.bit_length() - 64, 0)
    return x >> e, e


def _residual(
    u: int, y: int, d: int, r: int, slack: int
) -> tuple[int, Optional[tuple[int, int, int]]]:
    """Sign of R = u + y*sqrt(d) and a bracket (lo, hi, e) of |R|, with
    lo*2**e <= |R| <= hi*2**e and lo, hi of about 64 bits; no bracket
    for y shorter than _BRACKET_MIN_BITS.

    r = isqrt(d << 128) gives r*2**-64 <= sqrt(d) < (r + 1)*2**-64, so
    the conjugate modulus S = |u| + |y|*sqrt(d), a sum with no
    cancellation, lies in [t, t + slack)*2**(e - 64) with (t, e) the top
    64 bits of |u|*2**64 + |y|*r: slack 1 when sqrt(d) = r*2**-64
    exactly, else 2, since |y| <= (|u|*2**64 + |y|*r)/r < 2**e.  When u
    and y*sqrt(d) share a sign, or one of them is 0, |R| = S; otherwise
    |R| = |N|/S with N = u**2 - y**2*d = R*conjugate(R) the exact
    integer norm, and sign(R) = sign(u)*sign(N).
    """
    if y.bit_length() < _BRACKET_MIN_BITS:
        return _quad_int_sign(u, y, d), None
    su = _int_sign(u)
    sy = _int_sign(y) if d else 0
    t, e = _top((abs(u) << 64) + abs(y) * r)
    if su * sy >= 0:
        return su or sy, (t, t + slack, e - 64)
    n = u * u - y * y * d
    tn, en = _top(abs(n))
    # |N| = tn exactly when it fits in 64 bits, as it does for |B*q| = 1;
    # t >= 2**63 here, since u != 0
    hn = tn + (en > 0)
    return su * _int_sign(n), ((tn << 64) // (t + slack), -((-hn << 64) // t), en - e)


def _order(a: tuple[int, int, int], b: tuple[int, int, int]) -> int:
    """1 if every value of bracket a exceeds every value of bracket b,
    -1 for the reverse, 0 when the two brackets overlap."""
    alo, ahi, ae = a
    blo, bhi, be = b
    if ae > be:
        alo, ahi = alo << (ae - be), ahi << (ae - be)
    else:
        blo, bhi = blo << (be - ae), bhi << (be - ae)
    return (alo > bhi) - (ahi < blo)


def _sqrt_bracket(d: int) -> tuple[int, int]:
    """(r, slack) for _residual: r = isqrt(d << 128), slack 1 when r is
    exact (d a perfect square, d = 0 included), else 2."""
    r = isqrt(d << 128)
    return r, 1 if r * r == d << 128 else 2


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

    Each |R[n]| is taken over its conjugate, with no cancellation: it
    is S[n] = |u[n]| + |M[n]|*sqrt(d) when u[n] and s*M[n] agree in
    sign, else |N[n]|/S[n] with N[n] = u[n]**2 - M[n]**2*d the exact
    integer norm (see _residual).  Both moduli are bracketed to 64-bit
    integers with about 2**-61 relative width, and the two products are
    compared as integer brackets.  Only when the brackets overlap (a
    tie, or a near one) does the index fall back to the exact test: with
    sigma and tau the signs of the two products, the difference of their
    moduli is
    (sigma*u[n]*M[n+1] - tau*u[n+1]*M[n]) + s*M[n]*M[n+1]*(sigma - tau)*sqrt(d),
    a plain integer sign whenever sigma = tau.  Sign and bracket of each
    R[n] cost at most one exact norm; they are computed when first
    needed and carried to the next index.
    """
    if n_max < 0:
        raise ValueError("window length must be non-negative")
    q, A, B, _, M = integer_carrier(spec)
    d = A * A - 4 * B * q
    if d < 0:
        raise ValueError("ratio distances are undefined for complex roots")
    s = 1 if A > 0 else -1
    r, slack = _sqrt_bracket(d)
    skipped: list[int] = []
    first: Optional[int] = None
    m0, m1 = next(M), next(M)
    u0 = A * m0 - 2 * m1
    g0: Optional[int] = None  # sign(R[n]), once computed
    b0: Optional[tuple[int, int, int]] = None  # and the bracket of |R[n]|
    for n in range(n_max + 1):
        m2 = next(M)
        u1 = A * m1 - 2 * m2
        if m0 == 0 or m1 == 0:
            skipped.append(n)
            g0 = None
        else:
            if g0 is None:
                g0, b0 = _residual(u0, s * m0, d, r, slack)
            g1, b1 = _residual(u1, s * m1, d, r, slack)
            diff = 0
            if b0 is not None and b1 is not None:
                (lo0, hi0, e0), (lo1, hi1, e1) = b0, b1
                (t0, f0), (t1, f1) = _top(abs(m0)), _top(abs(m1))
                diff = _order((lo0 * t1, hi0 * (t1 + 1), e0 + f1),
                              (lo1 * t0, hi1 * (t0 + 1), e1 + f0))
            if diff == 0:
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
            g0, b0 = g1, b1
        m0, m1, u0 = m1, m2, u1
    return WindowReport(PropertyId.P2, (0, n_max), first is None, first, tuple(skipped))


def check_p3_window(spec: RecurrenceSpec, n_max: int) -> WindowReport:
    """Scan |a[n]*alpha - a[n+1]| >= |a[n+1]*alpha - a[n+2]| for n in [0, n_max].

    Real roots: with the carrier residual R[n] = u[n] + s*M[n]*sqrt(d)
    of check_p2_window, the scan compares q*|R[n]| with |R[n+1]|.  Each
    modulus is bracketed over its conjugate as in check_p2_window, at
    most one exact norm per index, and the two brackets decide the
    index unless they overlap.  Then, with g[n] = sign(R[n]), the exact
    test takes the sign of q*|R[n]| - |R[n+1]| =
    (g[n]*q*u[n] - g[n+1]*u[n+1]) + s*(g[n]*q*M[n] - g[n+1]*M[n+1])*sqrt(d).
    Sign and bracket are computed once per index and carried to the
    next.  Complex pair: the squared residual modulus is
    (v1^2 - a*v0*v1 + b*v0^2) * b^n exactly, and consecutive values are
    compared index by index.
    """
    if n_max < 0:
        raise ValueError("window length must be non-negative")
    q, A, B, _, M = integer_carrier(spec)
    d = A * A - 4 * B * q
    first: Optional[int] = None
    if d >= 0:
        s = 1 if A > 0 else -1
        r, slack = _sqrt_bracket(d)
        m0, m1 = next(M), next(M)
        u0 = A * m0 - 2 * m1
        g0, b0 = _residual(u0, s * m0, d, r, slack)
        for n in range(n_max + 1):
            m2 = next(M)
            u1 = A * m1 - 2 * m2
            g1, b1 = _residual(u1, s * m1, d, r, slack)
            diff = 0
            if b0 is not None and b1 is not None:
                lo0, hi0, e0 = b0
                diff = _order((q * lo0, q * hi0, e0), b1)
            if diff == 0:
                gq = g0 * q
                diff = _quad_int_sign(gq * u0 - g1 * u1, s * (gq * m0 - g1 * m1), d)
            if diff < 0:
                first = n
                break
            m0, m1, u0, g0, b0 = m1, m2, u1, g1, b1
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
