"""Exact finite-window checks of the three monotonicity properties.

These scans work directly on the terms and know nothing about the
decision criteria; they are the second route every verdict is held
against.  scan decides every window of one report -- both P1 windows,
the n0 witness, P2 and P3 -- in one walk of the carrier from index 0.
The walk tests P1 through the whole window (n0 needs its last violation)
and goes past it only for the from-k P1 window, and only while that
window is still clean; P2 and P3 ride on the same indices until both
have a violation or the window ends.  From there P1 walks on its own,
on the difference sequence E[n] = M[n+1] - q*M[n] of the carrier below,
which obeys the carrier's recurrence and is negative exactly where
a[n] > a[n+1]: one step per index to the end of the window, then one
reader (_first_e) for the from-k window past it, which jumps to the
range's first index and steps from there to its first violation.  The
jump (_jump) is the oracle's own square-and-multiply of x**s modulo the
carrier's characteristic polynomial, a different algorithm from the
Lucas fast doubling by which the decisions and terms_between reach far
terms, so the two routes reach a far index independently.
first_p1_violation is that reader alone, from M[0], M[1]: the report
reads with it the two rows that certify an n0 past the window, so no
report scans twice.  All comparisons are exact.

Where the terms grow, the walk decides every later index at once by an
exact certificate.  In the P2/P3 stretch it tests growth of the carrier,
|M[i+1]| >= c*|M[i]| with c = max(|B|, q), which decides all three
properties (see scan), on a block of two indices: two
cross-multiplications of terms already read.  Whether a block that
passes makes every later index pass is the sign of one number, the
mirrored carrier's characteristic polynomial at c, read once per scan;
where it is not, the walk refuses its first try and tries no more.
So the first certified block ends the walk.  It tries a block as early
as scan's proof allows, right after two indices in a row that P3's
part signs decided.  Where the dominant root is negative the terms alternate in
sign, and the test runs on the mirror (-1)**n * M[n], which solves the
recurrence with -A and keeps one sign: it certifies growth of |M| the
same way, and P1, the one property that reads signs, then fails at
every other index, read off its parity.  This is the positivity of a
second-order recurrence read off its dominant root (Halava, Harju and
Hirvensalo, Discrete Applied Mathematics 154, 2006), here on the steps
M[i+1] - c*M[i].

For speed the scans run on a rescaled integer copy of the sequence,
recurrence.integer_carrier: with a = A/q, b = B/q over a common
denominator q and D clearing the starting pair, M[n] := a[n] * q**n * D
is an integer sequence obeying M[n+2] = A*M[n+1] - B*q*M[n].  Each
compared inequality, cleared of its (shared, positive) denominator,
becomes a sign test on X + Y*sqrt(d) with integers X, Y and
d = A**2 - 4*B*q = q**2 * (a**2 - 4b), or for a complex pair (d < 0)
a comparison of integers -- no rational normalization ever runs.  The
roots are (A +- sqrt(d))/(2q), the form in which qfield.quadratic_roots
builds them (there N = d, L = q).  The
rescaling multiplies compared quantities by positive constants only, so
every verdict equals the one computed on raw terms; the test suite
checks that equivalence against a direct rational-arithmetic reference.

P2 and P3 are statements about the residual R = u + y*sqrt(d) and its
exact integer norm N = u**2 - y**2*d.  P2's distance |alpha - a[n+1]/a[n]|
is P3's residual |a[n]*alpha - a[n+1]| over |a[n]|, so both compare one
residual modulus at n and n+1 and differ only in its weights.  For a
complex pair N = |R|**2, and P3 compares norms computed directly from
the terms at every index.  For real roots R cancels once the sequence
follows its dominant root, but its conjugate R' = u - y*sqrt(d) does
not, and N, carried by the Casoratian identity N[n+1] = B*q*N[n],
divides out (see scan): each property is then one weighted comparison
P*|R'[n+1]| >= Q*|R'[n]|, one usually implying the other.  While the
sequence follows the other root, R' cancels and R does not.  Each index
is decided in three steps, each only where the one before leaves it
open: the signs of P3's two integer parts, which decide almost every
index where the terms grow; brackets of the weighted moduli, of |R'|
where it does not cancel or else of |R| where that does not, built from
top words at one shift, which only confirm a comparison that holds; and
one exact step on R' (on R where N = 0), which decides every violation:
a comparison of integers where d is a square (rational roots), where P3
skips the brackets, else two exact signs from qfield.surd_sign.  No
float enters: every verdict comes from an exact integer inequality.
"""

from __future__ import annotations

from enum import Enum
from math import isqrt
from typing import NamedTuple, Optional

from .qfield import dominant_root_sign, surd_sign
from .recurrence import RecurrenceSpec, integer_carrier

__all__ = [
    "InternalInconsistency",
    "PropertyId",
    "OracleWindows",
    "WindowReport",
    "first_p1_violation",
    "scan",
]

# the walk's event sink (see scan): None, the default, emits nothing
_events: Optional[list[tuple]] = None


def _emit(*events: tuple) -> None:
    if _events is not None:
        _events.extend(events)


class InternalInconsistency(RuntimeError):
    """The program contradicts itself: a decision verdict and its oracle
    window disagree, or the oracle's exact self-check fails."""


class PropertyId(Enum):
    P1 = "P1"
    P2 = "P2"
    P3 = "P3"


class WindowReport(NamedTuple):
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


class OracleWindows(NamedTuple):
    """Every oracle window of one report, from one walk of the carrier
    (see scan); p2 is None for complex roots."""

    p1_immediate: WindowReport
    p1_from_k: WindowReport
    p2: Optional[WindowReport]
    p3: WindowReport
    n0_witness: Optional[int]


def scan(spec: RecurrenceSpec, window: int, from_k: int) -> OracleWindows:
    """Every oracle window of one report, on one walk of the carrier.

    The walk is one pass from index 0, reading integer_carrier(spec)
    while P2 or P3 is open, up to the first certified block (below).
    It tests P1 once per index n, as q*M[n] > M[n+1], that is
    a[n] > a[n+1], or on a whole certified block; once P2 and P3 are
    done, P1 steps on E from the last two terms read to the end of the
    window, and _first_e reads the from-k window past it.  Each violation
    goes into one ascending list, led by n = -1 where the backward
    extension a[-1] exceeds a[0], and each P1 field reads it: the
    immediate window takes its first entry in [-1, window], the from-k
    window its first in [from_k - 1, from_k + window], and n0_witness is
    one past its last entry at most window (the smallest n0 <= window
    with no violation in [n0, window], None when the last pair violates).
    P1 walks the whole window, for n0, and past it only while the from-k
    window is clean.

    Growth test.  On a solution w of the carrier's recurrence, or of the
    mirror's (below), with w[n] > 0, it asks w[i+1] >= c*w[i] with
    c = max(|B|, q) at i = n and n + 1, a block of two indices, and
    w[i+1] > c*w[i] where it is strict: the block's two steps
    e[i] = w[i+1] - c*w[i], on w[n], w[n+1] and w[n+2], which the walk has
    read when it tries n.  A certified block advances the pair by two
    steps of the carrier's recurrence.

    Certified blocks in the real-root P2/P3 stretch.  The walk tries a
    block of indices [n, n + 2) at an index n of the window right
    after two indices in a row, n - 2 and n - 1, whose P3 the part signs
    decided: all the argument below reads of the walk.  That leaves P3
    open; it gives the conjugate form (below: u and s*M*sqrt(d) differ in
    sign or d = 0, and N != 0) at n - 2, n - 1 and n, and
    |v[j+1]| >= |B|*|v[j]| for v = M and v = u at j = n - 2 and n - 1.
    So M[n] != 0, since M[n] = 0 would make M[n-1] = 0 too, and a nonzero
    solution has no two zeros in a row; and u[n] != 0 the same way, since
    u, a solution too, is not identically 0: u = 0 makes M geometric with
    ratio A/2, a root only where d = 0, and there N = u**2 - M**2*d = 0
    rules out the conjugate form.  Whether the test is invariant (below)
    depends on s*A, B*q and c alone and is read once per scan: where it
    is not, the first try is refused and the walk tries no more; where it
    is, a refused try waits for the next two such indices in a row.  A
    complex pair or a stretch where only P2 is open never tries.  The
    test runs on the mirror w[i] = s**i * M[i], with s the sign of the
    dominant root (below), which solves the carrier's recurrence with s*A
    in place of A: where the dominant root is negative the terms
    alternate in sign, and w keeps one.  The block is certified where w
    keeps one sign and |M[i+1]| >= max(|B|, q)*|M[i]| at each index i of
    it, the growth test on w made positive at n, and where that test is
    invariant (below).  Since |B| and q are integers of at least 1,
    growth alone gives positivity: w[i+1] >= c*w[i] >= w[i] > 0 from
    w[n] > 0 on.  Where M keeps its sign (s > 0), P1 holds where M > 0;
    where M < 0 the test is strict, so |M[i+1]| > q*|M[i]| and every
    index is a violation.  Where M alternates (s < 0), growth alone
    decides P1 and the test is plain: P1 fails exactly where
    M[i] > 0 > M[i+1], at every other index.  P3 holds at every index
    by its part signs, since |u| too grows by |B| (next), and P2 follows
    from P3 since |a[i+1]| >= |a[i]|.

    That u grows needs no test of its own: M's test and the two indices
    before the block imply it.  On the carrier's roots alpha' = q*alpha and
    beta' = q*beta, write M[i] = P[i] + Q[i] with P[i] = c1*alpha'**i and
    Q[i] = c2*beta'**i; then u = s*sqrt(d)*(Q - P), the conjugate form
    at i gives |Q[i]| <= |P[i]| and P, Q != 0, and with x = Q[i]/P[i]
    and r = beta'/alpha' (|r| <= 1), M[i+1]/M[i] = alpha'*(1 + r*x)/(1 + x)
    and u[i+1]/u[i] = alpha'*(1 - r*x)/(1 - x).  At n, M[n], u[n] != 0
    rule out x = -1 and 1, and x[i] = x[n]*r**(i-n), so |x| < 1 from n
    on: M has P's sign, M keeping its sign makes alpha' > 0, and u keeps
    its sign too.  Where s < 0 the argument runs on w, whose roots are
    -alpha' and -beta', in place of M: w keeping its sign makes
    -alpha' > 0.  The mirror changes no quantity the argument reads,
    since it maps u to (-1)**(i+1)*u and R' to (-1)**(i+1)*R' and leaves
    d, N, |M|, |u| and the conjugate form as they are; only P1 reads
    signs.  Where x >= 0, u[i+1]/u[i] >= alpha' >= M[i+1]/M[i],
    which is >= |B|.  Where x < 0, u[i+1]/u[i] equals
    alpha'*(1 + r*|x|)/(1 + |x|), which falls as |x| grows; for every
    i >= n, in this block or a later one, one of j = n - 1 and n - 2 has
    i - j even or r > 0, so x[j] = x[i]*r**(j-i) has x[i]'s sign and
    |x[j]| >= |x[i]|, and the conjugate form and the part on u at j give
    u[j+1]/u[j] >= |B|.  On a repeated root (d = 0),
    M[i] = (c1 + c2*i)*alpha'**i keeps its sign only where alpha' > 0,
    and u[i] = -2*c2*alpha'**(i+1), c2 != 0 since N = u**2 != 0, grows by
    alpha', the ratio the part on u read at n - 1.  The roots enter this
    argument only; the walk reads none.

    One certificate decides the rest.  The steps e solve the recurrence
    too, and with P(x) = x**2 - s*A*x + B*q, the mirror's characteristic
    polynomial, e[i+1] = (s*A - c)*e[i] - P(c)*w[i], where s*A = |A| > 0.
    The test is invariant, a block that passes it making every later
    index pass it, exactly where P(c) <= 0, given c*c >= |B*q|, which
    c = max(|B|, q) gives; on the spec's roots that c makes P(c) <= 0
    the same as |beta| <= 1 <= |alpha|.  Where B*q > 0, P(c) <= 0 gives
    s*A >= c + B*q/c > c, so e[i] >= 0 and w[i] > 0 give e[i+1] >= 0 and
    w[i+1] >= c*w[i] > 0, index by index.  Where B*q < 0,
    e[i+2] = s*A*e[i+1] + |B*q|*e[i], so two steps >= 0 in a row give a
    third.  Both keep > where e[i] > 0, so the strict test, asked where
    M < 0 keeps its sign, is invariant on the same sign of P(c).  The tie
    P(c) = 0, c a root of P, falls on the invariant side: there
    e[i+1] = (s*A - c)*e[i], and the eigen-solution c**i ties at every
    index, passing the plain test and failing the strict one.  Where
    P(c) > 0 and B*q < 0, s*A < c, so e[n+1] < 0 wherever e[n] >= 0 and
    no block passes; where B*q > 0, c*c >= B*q, the product of P's
    roots, and P(c) > 0 put c above both, where the ratio w[i+1]/w[i]
    falls toward the larger one, so a passing block is followed by a
    failing index.  For smaller c the sign of P(c) is not the
    invariance: c below both roots has P(c) > 0 and an invariant test.
    The closed form decides no violation: it only stops the tries, and a
    block is certified only where its two steps pass on the terms read
    at the try.

    Where the test is invariant, every index from a certified block on
    passes it (strictly where M < 0 keeps its sign), with the conjugate
    form true and M, u != 0 by growth: P2 and P3 hold through the window.
    Where M keeps its sign, P1 holds at every index from n on where
    M > 0, while where M < 0 every index is a violation, the from-k
    window's first at max(n, from_k - 1).  Where M alternates, P1 fails
    at every other index from n on, those with M > 0; where the window's
    violations end before from_k - 1, the from-k window's first is
    max(from_k - 1, window + 1) or, by parity, the index after it.  So
    the first certified block ends the walk, even one that runs past the
    window's end: the walk advances its pair to n + 2, runs the
    self-check below on it, and reads no E.

    P2 scans |alpha - a[n+1]/a[n]| >= |alpha - a[n+2]/a[n+1]|, with alpha
    the dominant root; it is None for complex roots, where the compared
    distances are not real.  Comparisons where a[n] or a[n+1] vanishes
    are skipped and recorded.  P3 scans
    |a[n]*alpha - a[n+1]| >= |a[n+1]*alpha - a[n+2]|.  Both run on
    n in [0, window], at the same indices of the walk while either is
    still clean, and stop once both have a violation or the window ends.

    On the carrier both are statements about the residual
    R[n] := 2*q**(n+1)*D * (a[n]*alpha - a[n+1]) = u[n] + s*M[n]*sqrt(d)
    with u[n] = A*M[n] - 2*M[n+1], which the walk reads as
    u[n+1] = B*q*M[n] - M[n+2], one product instead of two on the
    carrier's recurrence, and s = qfield.dominant_root_sign(A),
    the sign that picks alpha (for a repeated root d = 0 and s drops
    out), and about its exact norm
    N[n] = R[n]*R'[n] = u[n]**2 - M[n]**2*d, R'[n] = u[n] - s*M[n]*sqrt(d).
    P2's distance is P3's residual over |a[n]|, so the two compare the
    same modulus under different weights: P3 is q*|R[n]| >= |R[n+1]| and
    P2 is |M[n+1]|*|R[n]| >= |M[n]|*|R[n+1]|.

    Complex pair: N[n] = |R[n]|**2, and P3 compares q*q*N[n] with
    N[n+1], each computed directly from the terms at every index.
    Carrying N by N[n+1] = B*q*N[n] instead would restate the paper's P3
    criterion for a conjugate pair, so the window could never disagree
    with it.

    Real roots: N[n] is 4*(M[n+1]**2 - A*M[n]*M[n+1] + B*q*M[n]**2),
    which any solution of M[n+2] = A*M[n+1] - B*q*M[n] multiplies by B*q
    per step, so N[n] = N[0]*(B*q)**n.  Where N != 0, |R| = |N|/|R'| turns
    both into P*|R'[n+1]| >= Q*|R'[n]|, with (P, Q) = (1, |B|) for P3 and
    (|M[n+1]|, |B*q|*|M[n]|) for P2.  The walk reads the
    identity only there and in the sign of N[n]; at the last index the
    P2/P3 part reaches it computes the norm directly, on
    u[n] = A*M[n] - 2*M[n+1] as defined, and raises
    InternalInconsistency if it differs from N[0]*(B*q)**n, so dividing
    the norm out, and the pair the certified block advanced, depend on
    nothing that check does not guard.  The
    identity is a fact about the recurrence, not about the properties:
    the scans never use R[n+1] = q*beta*R[n], which is the P3 theorem.

    Where u and s*M*sqrt(d) differ in sign (or one is 0) at n and n+1,
    |R'| = |u| + |M|*sqrt(d) at both, and P3 at n is the sign of
    x3 + y3*sqrt(d) with the integer parts x3 = |u[n+1]| - |B|*|u[n]| and
    y3 = |M[n+1]| - |B|*|M[n]|.  Where both are >= 0, P3 holds with no
    further test, and P2 with it where |a[n+1]| >= |a[n]| (below), that
    is |M[n+1]| >= q*|M[n]|.  Only an index whose parts differ
    in sign, or where P2 is open and P3 does not imply it, goes on to the
    weighted comparison, which tries brackets wherever bits(M[n]) >= 64.
    With k = bits(M[n]) - 64, x_v the top word v >> k of each v in
    |u[n]|, |M[n]|, |u[n+1]|, |M[n+1]|, and
    r = isqrt(d << 128), so that r*2**-64 <= sqrt(d) < (r + 1)*2**-64,
    2**(64 - k)*|R'| lies in [lo, lo + 2**64 + x_M + r + 1) with
    lo = x_u*2**64 + x_M*r, and 2**-k*|M| in [x_M, x_M + 1), which
    brackets P2's weights.  The brackets only confirm: a comparison
    holds where the lower bracket of its left side reaches the upper one
    of its right side, and every other index goes to the exact step.

    Where the conjugate form fails at n or n+1 and d != 0, the walk reads
    whether u and s*M*sqrt(d) agree in sign at both, and only there:
    then R does not cancel, |R| = |u| + |M|*sqrt(d) at both, and the
    same top words bracket 2**(64 - k)*|R| in
    [lo, lo + 2**64 + x_M + r + 1), since 2**-k*|u| and 2**-k*|M| lie in
    [x_u, x_u + 1) and [x_M, x_M + 1), so that
    x_u*2**64 + x_M*r <= 2**(64 - k)*|R| < (x_u + 1)*2**64 + (x_M + 1)*(r + 1).
    No norm is divided out there: P3 is q*|R[n]| >= |R[n+1]| and P2
    |M[n+1]|*|R[n]| >= |M[n]|*|R[n+1]|, as defined, each confirmed where
    the lower bracket of its left side reaches the upper one of its right
    side.  The brackets read no root: r is isqrt(d << 128), as above.
    That is the stretch where the terms follow the non-dominant root: R'
    cancels there and no certificate ends it, so without these brackets
    each of its indices would take an exact step.

    What the part signs and brackets leave open, including every
    violation and every index no bracket confirms, goes to one exact step
    on X = R', or on X = R where N = 0.  N = u[0]**2 - M[0]**2*d = 0
    forces d to be a square, since M[0] = 0 would make the start (0, 0).
    Where d = t**2, X is the integer u + gt*M with gt = -s*t where N != 0
    and gt = s*t where N = 0, so the step compares integers: on R',
    P*|X[n+1]| >= Q*|X[n]|; on R, q*|X[n]| >= |X[n+1]| for P3 and
    |M[n+1]|*|X[n]| >= |M[n]|*|X[n+1]| for P2.  P3 there is that step
    alone, with no bracket before it; P2 keeps its brackets, which spare
    it the products of long weights.  Otherwise N != 0,
    X = R' = u - s*M*sqrt(d), and |P*X[n+1]| >= |Q*X[n]| is the sign of
    (P*X[n+1] - Q*X[n])*(P*X[n+1] + Q*X[n]) >= 0, the product of two
    exact signs of x + y*sqrt(d), qfield.surd_sign.

    One comparison implies the other, exactly: P3 at n gives P2 at n if
    |a[n+1]| >= |a[n]|, and P2 gives P3 if |a[n+1]| <= |a[n]|.  While both
    are open, the walk decides the premise first and the other only when
    it fails.

    Events.  Where a list is installed as _events, as only the tests do,
    the walk appends each decision a test pins to it, in walk order, as a
    tuple led by its name: ("refused", n) and ("certified", n) for each
    try at a certified block, ("lasting", n) where a lasting certificate
    ends the walk at n, ("p1", r) for the range r of indices a stretch
    decides P1 on, one by one or as a block, ("jump", n, k1) where
    _first_e jumps from n to its range's first index k1, the from-k
    window's in scan, and
    ("exact", bits(M[n])) at each exact step.  Beyond exact steps, no
    event is emitted per walked index.
    """
    if from_k < 0:
        raise ValueError("start index must be non-negative")
    if window < 0:
        raise ValueError("window length must be non-negative")
    q, A, B, _, M = integer_carrier(spec)
    Bq = B * q
    d = A * A - 4 * Bq
    real = d >= 0
    m0, m1 = next(M), next(M)
    # a[-1] = (A*M[0] - M[1]) / (B*D) against a[0] = M[0]/D
    lhs, rhs = A * m0 - m1, B * m0
    # the indices n >= -1 with a[n] > a[n+1], ascending
    p1 = [-1] if ((lhs > rhs) if B > 0 else (lhs < rhs)) else []
    u0 = A * m0 - 2 * m1
    norm = u0 * u0 - m0 * m0 * d
    if real:
        s = dominant_root_sign(A)
        sd = s if d else 0
        ns = (norm > 0) - (norm < 0)  # the sign of N[0]
        r, t = isqrt(d << 128), isqrt(d)
        square = t * t == d  # rational roots: sqrt(d) = t
        span = (1 << 64) + r + 1  # hi - lo, less the top word of |M|
        aB, aBq = abs(B), abs(Bq)
        # the conjugate form holds at n: N != 0 and R' does not cancel,
        # u and s*M*sqrt(d) differing in sign or d = 0
        conj0 = ns != 0 and (not sd or ((u0 < 0) != (m0 < 0)) != (sd < 0))

        # where d = t**2, X = u + gt*M is the integer R', or R where N = 0
        gt = (-sd if ns else sd) * t
        # the growth the certificate asks, and whether it is invariant:
        # P(c) <= 0 on the mirror's polynomial x**2 - s*A*x + B*q (see scan)
        c = max(aB, q)
        invariant = c * c - s * A * c + Bq <= 0

        def holds(p2: bool) -> bool:
            """P2 at the walk's index n if p2, else P3, on the loop's
            variables: the brackets where they confirm it, else the exact step
            on X = R', or on X = R where N = 0."""
            c, bits = (aBq if p2 else aB), m0.bit_length()
            # brackets where R' does not cancel, or else where R does not,
            # u and s*M*sqrt(d) agreeing in sign at n and n+1, d != 0; not
            # for P3 on rational roots, whose ties at |beta| = 1 no
            # bracket confirms
            if bits >= 64 and (p2 or not square) and (conj or sd and (
                    ((u0 < 0) != (m0 < 0)) == (sd < 0) == ((u1 < 0) != (m1 < 0)))):
                # brackets [lo, lo + span + y) of 2**(64 - k)*|R'| or
                # 2**(64 - k)*|R| at n and n+1, weighed by [y, y + 1) for P2
                k = bits - 64
                y0, y1 = abs(m0) >> k, abs(m1) >> k
                lo0 = ((abs(u0) >> k) << 64) + y0 * r
                lo1 = ((abs(u1) >> k) << 64) + y1 * r
                v0, v1, e = (y0, y1, 1) if p2 else (1, 1, 0)
                if (v1 * lo1 >= c * (v0 + e) * (lo0 + span + y0) if conj
                        else (v1 if p2 else q) * lo0 >= (v0 + e) * (lo1 + span + y1)):
                    return True
            _emit(("exact", bits))
            if square:
                x0, x1 = abs(u0 + gt * m0), abs(u1 + gt * m1)
                if ns:
                    return abs(m1) * x1 >= c * abs(m0) * x0 if p2 else x1 >= c * x0
                return abs(m1) * x0 >= abs(m0) * x1 if p2 else q * x0 >= x1
            # N != 0: |P*X[n+1]| >= |Q*X[n]| on X = R' = u - s*M*sqrt(d) is
            # (P*X[n+1] - Q*X[n])*(P*X[n+1] + Q*X[n]) >= 0
            P, Q = (abs(m1), c * abs(m0)) if p2 else (1, c)
            pu, qu, pm, qm = P * u1, Q * u0, P * m1, Q * m0
            return (surd_sign(pu - qu, sd * (qm - pm), d)
                    * surd_sign(pu + qu, -sd * (pm + qm), d)) >= 0

    skipped: list[int] = []
    first2: Optional[int] = None
    first3: Optional[int] = None
    run = 0  # indices in a row whose P3 the part signs decided
    tries = True  # until a try on a test that is not invariant is refused
    certified: Optional[int] = None  # the first index of the certified block
    n = 0
    while n <= window and (first3 is None or (real and first2 is None)):
        m2 = next(M)
        # u[n+1] = A*M[n+1] - 2*M[n+2] on the carrier's recurrence, one product shorter
        u1 = Bq * m0 - m2
        if run >= 2 and tries:
            # the run at n - 2 and n - 1 leaves P3 open, conj true at n and
            # M[n], u[n] != 0; |M| grows by c at n and n + 1, strictly where
            # M < 0 keeps its sign (|u| then grows by |B|), where the two
            # steps w[i+1] - c*w[i] of the mirror w[i] = s**i * M[i], made
            # positive at n by g, pass; and, the test being invariant, at
            # every later index
            g, w1 = (1 if m0 > 0 else -1), s * m1
            if invariant and min(g * (w1 - c * m0), g * (m2 - c * w1)) >= (m0 < 0 < s):
                certified = n
                _emit(("p1", range(n)), ("certified", n), ("lasting", n + 2),
                      ("p1", range(n, window + 1)))
                m0, m1 = m2, A * m2 - Bq * m1
                n += 2
                break  # every later index is certified too (see above)
            _emit(("refused", n))
            run = 0
            tries = invariant
        # (m0, m1, m2) = (M[n], M[n+1], M[n+2]); P1 is q*M[n] > M[n+1]
        qm0 = q * m0
        if qm0 > m1:
            p1.append(n)
        if not real:
            norm1 = u1 * u1 - m1 * m1 * d
            if q * q * norm < norm1:
                first3 = n
            norm = norm1
        else:
            need2 = first2 is None
            if need2 and not (m0 and m1):
                skipped.append(n)
                need2 = False
            need3 = first3 is None
            conj1 = ns != 0 and (not sd or ((u1 < 0) != (m1 < 0)) != (sd < 0))
            conj = conj0 and conj1
            parts = False
            # |a[n+1]| >= |a[n]| is |M[n+1]| >= q*|M[n]|
            if need3 and (not need2 or abs(m1) >= abs(qm0)):
                # P3 in the conjugate form, decided on the signs of its
                # parts alone where both are >= 0: no bracket, no exact test
                parts = conj and abs(u1) >= aB * abs(u0) and abs(m1) >= aB * abs(m0)
                h3 = parts or holds(False)
                h2 = not need2 or h3 or holds(True)
            else:
                h2 = not need2 or holds(True)
                h3 = not need3 or h2 or holds(False)
            run = run + 1 if parts else 0
            if not h3:
                first3 = n
            if not h2:
                first2 = n
            conj0 = conj1
        n += 1
        u0, m0, m1 = u1, m1, m2
    # the direct norm at n, on u[n] = A*M[n] - 2*M[n+1] as defined
    if real and norm * Bq**n != (A * m0 - 2 * m1) ** 2 - m0 * m0 * d:
        raise InternalInconsistency(
            "oracle self-check: the residual norm carried by "
            "N[n+1] = B*q*N[n] differs from the one computed "
            f"directly at index {n}"
        )
    last, k1 = from_k + window, from_k - 1
    if certified is None:
        # P1 on E from n to the end of the window, for n0, then the from-k
        # window's first violation past it while none is read at or after k1
        e0, e1 = m1 - q * m0, (A - q) * m1 - Bq * m0
        _emit(("p1", range(n)), ("p1", range(n, window + 1)))
        for i in range(n, window + 1):
            if e0 < 0:
                p1.append(i)
            e0, e1 = e1, A * e1 - Bq * e0
        if last > window and not (p1 and p1[-1] >= k1):
            far = _first_e(A, Bq, e0, e1, window + 1, k1, last)
            if far is not None:
                p1.append(far)
    elif s < 0 or m0 < 0:
        # from the certified block on P1 fails at every index where M < 0
        # keeps its sign, and where M alternates at every other one, those
        # with M > 0 (m0, two indices on, has M's sign at the certified
        # index); so the from-k window's first is max(k1, window + 1) or, by
        # parity, the index after it, read where the window's violations
        # end before k1
        step = 1 if s > 0 else 2
        lead = certified + (s < 0 and m0 < 0)
        p1.extend(range(lead, window + 1, step))
        far = max(k1, window + 1)
        far += (far - lead) % step
        if not (p1 and p1[-1] >= k1):
            p1.append(far)
            _emit(("p1", range(far, far + 1)))
    checked = (0, window)
    p2 = None
    if real:
        p2 = WindowReport(PropertyId.P2, checked, first2 is None, first2, tuple(skipped))
    p3 = WindowReport(PropertyId.P3, checked, first3 is None, first3, ())
    first1 = next((i for i in p1 if i <= window), None)
    first_k = next((i for i in p1 if k1 <= i <= last), None)
    n0 = next((i for i in reversed(p1) if i <= window), -1) + 1
    immediate = WindowReport(PropertyId.P1, (-1, window), first1 is None, first1, ())
    from_k_window = WindowReport(PropertyId.P1, (k1, last), first_k is None, first_k, ())
    return OracleWindows(immediate, from_k_window, p2, p3, n0 if n0 <= window else None)


def first_p1_violation(spec: RecurrenceSpec, lo: int, hi: int) -> Optional[int]:
    """The first n in [lo, hi], 0 <= lo <= hi, with a[n] > a[n+1]; None
    where there is none.

    The P1 reader with no P2 or P3 and no window of its own: _first_e
    from E[0], E[1], which jumps E to lo and steps from there to the
    first violation or hi, as scan's far from-k window does.
    """
    if not 0 <= lo <= hi:
        raise ValueError("the range must have 0 <= lo <= hi")
    q, A, B, _, M = integer_carrier(spec)
    m0, m1, Bq = next(M), next(M), B * q
    return _first_e(A, Bq, m1 - q * m0, (A - q) * m1 - Bq * m0, 0, lo, hi)


def _first_e(A: int, Bq: int, e0: int, e1: int, n: int, lo: int, hi: int) -> Optional[int]:
    """The first index in [max(n, lo), hi], n <= hi, with a[i] > a[i+1],
    from (e0, e1) = (E[n], E[n+1]); None where there is none.

    E[n] = M[n+1] - q*M[n] obeys the carrier's recurrence
    E[n+2] = A*E[n+1] - B*q*E[n] and is negative exactly where
    a[n] > a[n+1]: that spares per index the product q*M[n], a comparison
    of two long terms and a step of the carrier's generator.  Where
    lo > n, the pair jumps to (E[lo], E[lo+1]) in O(log(lo - n))
    products (_jump), reading nothing in between; from there it steps on
    E once per index, up to the first violation or hi.
    """
    if lo > n:
        _emit(("jump", n, lo))
        e0, e1 = _jump(A, Bq, e0, e1, lo - n)
        n = lo
    first = n
    while e0 >= 0 and n < hi:
        n += 1
        e0, e1 = e1, A * e1 - Bq * e0
    _emit(("p1", range(first, n + 1)))
    return n if e0 < 0 else None


def _jump(A: int, Bq: int, w0: int, w1: int, s: int) -> tuple[int, int]:
    """P1's far jump (_first_e): (w[n+s], w[n+s+1]) from
    (w[n], w[n+1]) = (w0, w1) on any solution w of
    w[n+2] = A*w[n+1] - Bq*w[n], in O(log s) products; s = 0 gives
    (w0, w1) back.

    The shift S, (S w)[n] = w[n+1], obeys S**2 = A*S - Bq on every such
    w, so a polynomial in S acts as its remainder modulo x**2 - A*x + Bq.
    Where x**s leaves c1*x + c0, w[n+s] = c1*w[n+1] + c0*w[n]; and
    x**(s+1) leaves (A*c1 + c0)*x - Bq*c1, which gives w[n+s+1].  The
    remainder is built by square-and-multiply (Fiduccia 1985), high bit
    of s first, from x**0 = 1 on: (c1*x + c0)**2 leaves
    (A*c1 + 2*c0)*c1*x + c0**2 - Bq*c1**2, and x*(c1*x + c0) leaves
    (A*c1 + c0)*x - Bq*c1."""
    c1, c0 = 0, 1
    for bit in bin(s)[2:]:
        c1, c0 = (A * c1 + 2 * c0) * c1, c0 * c0 - Bq * c1 * c1
        if bit == "1":
            c1, c0 = A * c1 + c0, -Bq * c1
    return c1 * w1 + c0 * w0, (A * c1 + c0) * w1 - Bq * c1 * w0
