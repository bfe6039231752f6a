"""Exact finite-window checks of the three monotonicity properties.

These scans work directly on iterated terms and know nothing about the
decision criteria; they are the second route every verdict is held
against.  scan decides every window of one report -- both P1 windows,
the n0 witness, P2 and P3 -- on a single walk of the carrier from
index 0, which never jumps: decisions and terms_between reach far terms
by Lucas fast doubling, so the two routes reach a far index
independently.  The walk tests P1 through the whole window (n0 needs
its last violation) and goes past it only for the from-k P1 window,
and only while that window is still clean; the P2/P3 part stops once
both have a violation or the window ends.  All comparisons are exact.

For speed the scans run on a rescaled integer copy of the sequence,
recurrence.integer_carrier: with a = A/q, b = B/q over a common
denominator q and D clearing the starting pair, M[n] := a[n] * q**n * D
is an integer sequence obeying M[n+2] = A*M[n+1] - B*q*M[n].  Each
compared inequality, cleared of its (shared, positive) denominator,
becomes a sign test on X + Y*sqrt(d) with integers X, Y and
d = A**2 - 4*B*q = q**2 * (a**2 - 4b) >= 0 -- no rational
normalization ever runs.  The roots are (A +- sqrt(d))/(2q), the form
in which qfield.quadratic_roots builds them (there N = d, L = q) and
the regions decide on.  The rescaling multiplies compared quantities
by positive constants only, so every verdict equals the one computed on
raw terms; the test suite checks that equivalence against a direct
rational-arithmetic reference.

P2 and P3 are statements about the residual R = u + y*sqrt(d), decided
on the same walk from each index's sign and bracket, built once.  The
residual cancels heavily once the sequence follows its dominant root,
so each modulus is taken over the conjugate, where nothing cancels:
|R| = S := |u| + |y|*sqrt(d) when u and y*sqrt(d) agree in sign, else
|R| = |N|/S with N = u**2 - y**2*d the exact integer norm.  That norm is
the Casoratian of the carrier, so N[n+1] = B*q*N[n] exactly (the
generalized Cassini identity): the walk computes it directly at the
first index, carries it with one small-times-big product per index,
and at the last index walked computes it directly again and raises
InternalInconsistency if the two differ.  S is bracketed from
r = isqrt(d << 128) to about 2**-63, so every modulus lies between two
64-bit integers scaled by one power of two, and a comparison is decided
by exact integer inequalities between such brackets.  Where the
brackets overlap (a tie such as |beta| = 1, a residual that is
identically 0, or a near tie) the index falls back to the exact sign
test of x + y*sqrt(d), qfield.surd_sign.  No float enters: every
verdict comes from an exact integer inequality.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import chain, islice
from math import isqrt
from typing import Iterator, Optional

from .qfield import dominant_root_sign, surd_sign
from .recurrence import RecurrenceSpec, integer_carrier

__all__ = [
    "InternalInconsistency",
    "PropertyId",
    "OracleWindows",
    "WindowReport",
    "scan",
]


class InternalInconsistency(RuntimeError):
    """The program contradicts itself: a decision verdict and its oracle
    window disagree, or the oracle's exact self-check fails."""


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


@dataclass(frozen=True)
class OracleWindows:
    """Every oracle window of one report, from one walk of the carrier
    (see scan); p2 is None for complex roots."""

    p1_immediate: WindowReport
    p1_from_k: WindowReport
    p2: Optional[WindowReport]
    p3: WindowReport
    n0_witness: Optional[int]


# Below this bit length of the carrier term the exact test is cheaper
# than building the brackets, so short operands go to it directly.  With
# the norm carried rather than squared, the per-index crossover measured
# on CPython 3.11 lies between about 320 and 576 bits, depending on the
# spec.
_BRACKET_MIN_BITS = 512


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
    """(r, slack) for the brackets in scan: r = isqrt(d << 128), slack 1
    when r is exact (d a perfect square, d = 0 included), else 2."""
    r = isqrt(d << 128)
    return r, 1 if r * r == d << 128 else 2


def _residual_terms(
    A: int, Bq: int, d: int, M: Iterator[int]
) -> Iterator[tuple[int, int, int]]:
    """(M[n], u[n], N[n]) for n = 0, 1, ... without end, with
    u[n] = A*M[n] - 2*M[n+1] and N[n] = u[n]**2 - M[n]**2*d.

    N[n] is computed directly only at n = 0 and then carried by the
    Casoratian identity N[n+1] = B*q*N[n]: N[n] is 4*(M[n+1]**2 -
    A*M[n]*M[n+1] + B*q*M[n]**2), which any solution of
    M[n+2] = A*M[n+1] - B*q*M[n] multiplies by B*q per step.
    """
    m0, m1 = next(M), next(M)
    u = A * m0 - 2 * m1
    norm = u * u - m0 * m0 * d
    while True:
        yield m0, u, norm
        m0, m1 = m1, next(M)
        u = A * m0 - 2 * m1
        norm *= Bq


def scan(spec: RecurrenceSpec, window: int, from_k: int) -> OracleWindows:
    """Every oracle window of one report, on one walk of the carrier.

    The walk starts at index 0 and tests P1 once per index n, as
    q*M[n] > M[n+1], that is a[n] > a[n+1].  That one test feeds the
    immediate window n in [-1, window] (n = -1 compares the backward
    extension a[-1] with a[0]), the witness n0_witness (the smallest n0
    <= window with no violation in [n0, window], None when the last
    pair violates) and, from n = from_k - 1 on, the from-k window
    n in [from_k - 1, from_k + window]; for from_k = 0 that is the
    immediate window.  P1 walks the whole window, for n0, and past it
    only while the from-k window is still clean.

    P2 scans |alpha - a[n+1]/a[n]| >= |alpha - a[n+2]/a[n+1]|, with alpha
    the dominant root; it is None for complex roots, where the compared
    distances are not real.  Comparisons where a[n] or a[n+1] vanishes
    are skipped and recorded.  P3 scans
    |a[n]*alpha - a[n+1]| >= |a[n+1]*alpha - a[n+2]|.  Both run on
    n in [0, window], on the same walk while either is still clean, and
    stop once both have a violation or the window ends.

    Real roots: on the carrier both are statements about the residual
    R[n] := 2*q**(n+1)*D * (a[n]*alpha - a[n+1]) = u[n] + s*M[n]*sqrt(d)
    with u[n] = A*M[n] - 2*M[n+1] and s = qfield.dominant_root_sign(A),
    the sign that picks alpha (for a repeated root d = 0 and s drops
    out).  Each index's sign g[n] of R[n] and 64-bit bracket of |R[n]|
    are computed once and feed both scans.  The exact norm
    N[n] = R[n]*conjugate(R[n]) = u[n]**2 - M[n]**2*d comes from
    _residual_terms, which computes it directly at n = 0 only and
    carries it by the Casoratian identity N[n+1] = B*q*N[n].  At the
    last index walked the norm is computed directly once more, and a
    difference from the carried one raises InternalInconsistency.  The
    identity is a fact about the recurrence, not about the properties:
    the scans never use R[n+1] = q*beta*R[n], which is the P3 theorem.

    The bracket: when u and s*M*sqrt(d) share a sign, or one of them is
    0, sign(R) is that sign and |R| = S := |u| + |M|*sqrt(d), a sum with
    no cancellation; otherwise sign(R) = sign(u)*sign(N) and
    |R| = |N|/S.  r = isqrt(d << 128) gives
    r*2**-64 <= sqrt(d) < (r + 1)*2**-64, so S lies in
    [t, t + slack)*2**(e - 64) with (t, e) the top 64 bits of
    |u|*2**64 + |M|*r: slack 1 when sqrt(d) = r*2**-64 exactly, else 2,
    since |M| <= (|u|*2**64 + |M|*r)/r < 2**e.  So every modulus lies
    between two 64-bit integers scaled by one power of two.  Carrier
    terms shorter than _BRACKET_MIN_BITS get no bracket.

    P2 compares |R[n]*M[n+1]| against |R[n+1]*M[n]|, which carry the
    same positive factor; P3 compares q*|R[n]| with |R[n+1]|.  The
    brackets decide an index unless they overlap (a tie, or a near one);
    then it falls back to the exact test.  For P2, with sigma and tau
    the signs of the two products, the difference of their moduli is
    (sigma*u[n]*M[n+1] - tau*u[n+1]*M[n]) + s*M[n]*M[n+1]*(sigma - tau)*sqrt(d),
    a plain integer sign whenever sigma = tau.  For P3 it is
    (g[n]*q*u[n] - g[n+1]*u[n+1]) + s*(g[n]*q*M[n] - g[n+1]*M[n+1])*sqrt(d).

    Complex pair: the squared residual modulus is
    (v1^2 - a*v0*v1 + b*v0^2) * b^n exactly, and P3 compares consecutive
    values index by index, off the carrier.
    """
    if from_k < 0:
        raise ValueError("start index must be non-negative")
    if window < 0:
        raise ValueError("window length must be non-negative")
    q, A, B, _, M = integer_carrier(spec)
    d = A * A - 4 * B * q
    m0, m1 = next(M), next(M)
    # a[-1] = (A*M[0] - M[1]) / (B*D) against a[0] = M[0]/D
    lhs, rhs = A * m0 - m1, B * m0
    backward = (lhs > rhs) if B > 0 else (lhs < rhs)
    p1: list[int] = []  # the indices n with a[n] > a[n+1], ascending
    checked = (0, window)
    n = 0
    if d < 0:
        p2 = None
        first3 = _complex_p3(spec, window)
        p3 = WindowReport(PropertyId.P3, checked, first3 is None, first3, ())
    else:
        s = dominant_root_sign(A)
        sd = s if d else 0
        r, slack = _sqrt_bracket(d)
        skipped: list[int] = []
        first2: Optional[int] = None
        first3 = None
        walk = _residual_terms(A, B * q, d, chain((m0, m1), M))
        t1 = f1 = None  # set with each bracket
        # item n + 1 of the walk is read at index n: n = -1 reads item 0
        for n, (m1, u1, norm) in enumerate(islice(walk, window + 2), -1):
            # sign g1 and bracket b1 of R[n+1]; t1*2**f1 <= |M[n+1]| <
            # (t1 + 1)*2**f1, carried to the next index as t0, f0
            su = (u1 > 0) - (u1 < 0)
            sy = sd * ((m1 > 0) - (m1 < 0))
            like = su * sy >= 0
            g1 = (su or sy) if like else su * ((norm > 0) - (norm < 0))
            b1 = None
            if m1.bit_length() >= _BRACKET_MIN_BITS:
                am = abs(m1)
                x = (abs(u1) << 64) + am * r
                e = max(x.bit_length() - 64, 0)
                t = x >> e
                if like:
                    b1 = (t, t + slack, e - 64)
                else:
                    an = abs(norm)
                    en = max(an.bit_length() - 64, 0)
                    tn = an >> en
                    # |N| = tn exactly when it fits in 64 bits, as it does
                    # for |B*q| = 1; t >= 2**63 here, since u != 0
                    hn = tn + (en > 0)
                    b1 = ((tn << 64) // (t + slack), -((-hn << 64) // t), en - e)
                f1 = am.bit_length() - 64
                t1 = am >> f1
            if n >= 0:
                if q * m0 > m1:
                    p1.append(n)
                if first2 is None:
                    if m0 == 0 or m1 == 0:
                        skipped.append(n)
                    else:
                        diff = 0
                        if b0 is not None and b1 is not None:
                            (lo0, hi0, e0), (lo1, hi1, e1) = b0, b1
                            diff = _order((lo0 * t1, hi0 * (t1 + 1), e0 + f1),
                                          (lo1 * t0, hi1 * (t0 + 1), e1 + f0))
                        if diff == 0:
                            sigma = g0 if m1 > 0 else -g0
                            tau = g1 if m0 > 0 else -g1
                            if sigma == tau:
                                c = u0 * m1 - u1 * m0
                                diff = sigma * ((c > 0) - (c < 0))
                            else:
                                diff = surd_sign(
                                    sigma * u0 * m1 - tau * u1 * m0,
                                    s * m0 * m1 * (sigma - tau), d,
                                )
                        if diff < 0:
                            first2 = n
                if first3 is None:
                    diff = 0
                    if b0 is not None and b1 is not None:
                        lo0, hi0, e0 = b0
                        diff = _order((q * lo0, q * hi0, e0), b1)
                    if diff == 0:
                        gq = g0 * q
                        diff = surd_sign(gq * u0 - g1 * u1, s * (gq * m0 - g1 * m1), d)
                    if diff < 0:
                        first3 = n
                if first2 is not None and first3 is not None:
                    break
            m0, u0, g0, b0, t0, f0 = m1, u1, g1, b1, t1, f1
        if norm != u1 * u1 - m1 * m1 * d:
            raise InternalInconsistency(
                "oracle self-check: the residual norm carried by N[n+1] = B*q*N[n] "
                f"differs from the one computed directly at index {n + 1}"
            )
        p2 = WindowReport(PropertyId.P2, checked, first2 is None, first2, tuple(skipped))
        p3 = WindowReport(PropertyId.P3, checked, first3 is None, first3, ())
        # the walk reads one term ahead and holds M[n+2]; recover it as
        # (A*M[n+1] - u[n+1])/2, exact since u[n+1] = A*M[n+1] - 2*M[n+2]
        n += 1
        m0, m1 = m1, (A * m1 - u1) >> 1
    # P1 alone from here, with (m0, m1) = (M[n], M[n+1]): to the end of
    # the window, then on only while the from-k window is still clean
    last = from_k + window
    while n <= window or (n <= last and not (p1 and p1[-1] >= from_k - 1)):
        if q * m0 > m1:
            p1.append(n)
        n += 1
        m0, m1 = m1, next(M)
    in_window = [i for i in p1 if i <= window]
    first1 = -1 if backward else (in_window[0] if in_window else None)
    immediate = WindowReport(PropertyId.P1, (-1, window), first1 is None, first1, ())
    if from_k == 0:
        from_k_window = immediate
    else:
        first_k = next((i for i in p1 if i >= from_k - 1), None)
        from_k_window = WindowReport(
            PropertyId.P1, (from_k - 1, last), first_k is None, first_k, ()
        )
    n0 = in_window[-1] + 1 if in_window else 0
    return OracleWindows(immediate, from_k_window, p2, p3, n0 if n0 <= window else None)


def _complex_p3(spec: RecurrenceSpec, n_max: int) -> Optional[int]:
    """First violation of the P3 scan for a complex root pair: the
    squared modulus sequence m * b^n, tracked as an exact integer pair
    (num, den), with consecutive values compared cross-multiplied."""
    m = spec.v1**2 - spec.a * spec.v0 * spec.v1 + spec.b * spec.v0**2
    bn, bd = spec.b.numerator, spec.b.denominator
    num, den = m.numerator, m.denominator
    for n in range(n_max + 1):
        num_next, den_next = num * bn, den * bd
        if num * den_next < num_next * den:
            return n
        num, den = num_next, den_next
    return None

