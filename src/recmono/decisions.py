"""Decision procedures for three monotonicity properties.

Property 1: terms eventually (or from a given index) nondecreasing.
Property 2: distance of consecutive-term ratios to the dominant root
            nonincreasing.
Property 3: the root-weighted residual |a[n]*alpha - a[n+1]| nonincreasing.

Each procedure is a finite, exact criterion on (a, b, v0, v1), decided
on the spec's integer form: the discriminant's sign is that of
A*A - 4*B*q, and every root clause is one or two signs of
`RecurrenceSpec._gap_sign`, so no root is built here.  Each returns a
Verdict carrying the clause that decided it, so reports can say why and
the oracle module can be pointed at the matching scan window.  A failing
clause that forces an early violation also names the index it forces one
by, so the report checks a window against the verdict alone.  The
criteria quantify over all n; the oracle scans finite windows; keeping
both routes separate is the point.

One index bounds P1's tail where the dominant term is proven to win,
_dominance_index, on the integer form alone.  With N = A*A - 4*B*q > 0
the roots r+ = (A + sqrt(N))/(2*q) and r- = (A - sqrt(N))/(2*q) are
distinct, a[n] = c1*r+**n + c2*r-**n, and the differences are
a[n+1] - a[n] = C1*r+**n + C2*r-**n with C1 = c1*(r+ - 1) and
C2 = c2*(r- - 1).  Over the positive 4*q*D*sqrt(N) each is a product of
two linear surds: (X + V0*sqrt(N))*(A - 2*q + sqrt(N)) for C1 and
(V0*sqrt(N) - X)*(A - 2*q - sqrt(N)) for C2, with X = 2*q*V1 - A*V0;
and rho = r+/|r-| is (A + sqrt(N))/|A - sqrt(N)|.  One
r = isqrt(N << 128) brackets 2**64*sqrt(N) in [r, r + 1], and so each
factor, times 2**64, in an integer interval.  The brackets prove C1 > 0
where both of its factors' intervals lie on one side of 0, and
rho >= P/Q > 1 where the lower end P of A + sqrt(N) exceeds the upper
end Q of |A - sqrt(N)|; else, or where N < 0, _dominance_index proves
nothing and returns None.  They bound |C2|/C1 by x/y, the products of the factors'
largest and least moduli.  Then every n >= ceil(L*P/(P - Q)), with
L = bits(x) - bits(y) + 1, has a[n] < a[n+1]: log2(x/y) < L, since
x < 2**bits(x) and y >= 2**(bits(y) - 1); and
log2(rho) >= ln(rho) >= (rho - 1)/rho >= (P - Q)/P, since
ln(t) >= 1 - 1/t for t > 0, ln 2 < 1 and (t - 1)/t grows with t; so
n*log2(rho) >= L > log2(|C2|/C1), that is C1*r+**n > |C2|*|r-|**n with
r+ > 0.  Where x <= y the index is 0, since rho**n >= 1 >= |C2|/C1
there (a[n] <= a[n+1]).  No float enters, and the proof
reads nothing of the clause chain: the index holds wherever it is
proven, which the chain allows only on COND_MONOTONIC_1.  A from-k test
on that clause past the index needs no triple (_p1_verdict); on the
10**-7 near-unit input (2, 1 - 10**-14, 1, 1 - 10**-8), whose n0 lies
near 10**6, the index is 10000001.

With N = 0 the root r = A/(2*q) repeats, a[n] = (c1 + c2*n)*r**n with
c1 = v0 and c2 = v1/r - v0, and, where A > 0, a[n+1] - a[n] is
r**n*(K + S*n) over the positive 2*q*D*A, with K = 2*q*A*(V1 - V0) and
S = X*(A - 2*q).  Where S > 0 the factor K + S*n rises through 0 once,
so the index max(0, ceil(-K/S)) is n0 itself: a[n] <= a[n+1] from it
on and a[n] > a[n+1] before it.  Else it is None.  On
(4, 4, -1, -2 + 10**-30), a start 10**-30 above the eigen-solution
-2**n, the index is 2*10**30 - 2.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import islice
from math import isqrt
from typing import NamedTuple, Optional

from .qfield import RationalLike, dominant_root_sign, over_common_denominator
from .recurrence import RecurrenceSpec, integer_carrier, term_minus_one

__all__ = [
    "Branch",
    "Verdict",
    "eventually_nondecreasing",
    "nondecreasing_from",
    "positive_monotone_h",
    "ratio_monotone_h",
    "weighted_monotone",
    "eventually_ratio_monotone",
    "hartman_aurel_sufficient",
]


class Branch(Enum):
    """Clause certifying a verdict."""

    # holding branches
    COND_MONOTONIC_1 = "COND_MONOTONIC_1"  # dominant growth pushes upward
    COND_ALPHA_ONE = "COND_ALPHA_ONE"  # unit root, ordered start decides
    # geometric start: P1's ordered triple decides, P3's residual is zero
    COND_GEOMETRIC = "COND_GEOMETRIC"
    COND_H_MONOTONE = "COND_H_MONOTONE"  # h-type positive monotone clause
    COND_RATIO_CONTRACTION = "COND_RATIO_CONTRACTION"  # |a| >= |beta|
    COND_MODULUS_AT_MOST_ONE = "COND_MODULUS_AT_MOST_ONE"  # |beta| <= 1
    COMPLEX_MODULUS = "COMPLEX_MODULUS"  # complex pair, b <= 1
    DISCRIMINANT_NONNEGATIVE = "DISCRIMINANT_NONNEGATIVE"
    # failing branches
    DISCRIMINANT_NEGATIVE = "DISCRIMINANT_NEGATIVE"
    FAIL_INITIAL_TRIPLE = "FAIL_INITIAL_TRIPLE"
    FAIL_ALPHA_PLUS_NOT_POSITIVE = "FAIL_ALPHA_PLUS_NOT_POSITIVE"
    FAIL_A_NOT_POSITIVE = "FAIL_A_NOT_POSITIVE"
    FAIL_GROWTH_PRODUCT = "FAIL_GROWTH_PRODUCT"
    FAIL_INITIAL_NOT_POSITIVE = "FAIL_INITIAL_NOT_POSITIVE"
    FAIL_COEFF_BELOW_ONE = "FAIL_COEFF_BELOW_ONE"
    FAIL_ALPHA_PLUS_BELOW_ONE = "FAIL_ALPHA_PLUS_BELOW_ONE"
    COND2_FAIL_MODULUS = "COND2_FAIL_MODULUS"
    COND3_FAIL_MODULUS = "COND3_FAIL_MODULUS"


class Verdict(NamedTuple):
    holds: bool
    branch: Branch
    violation_by: Optional[int] = None  # a failing clause forces a violation by it


def _require_h(spec: RecurrenceSpec, what: str) -> None:
    if not spec.h_type:
        raise ValueError(f"{what} is stated only for h-type specs")


def _complex_roots(spec: RecurrenceSpec) -> bool:
    """Is the discriminant a^2 - 4*b = (A*A - 4*B*q)/q^2 negative?"""
    q, A, B, _, _, _ = spec._integers
    return A * A < 4 * B * q


def _ordered_triple(spec: RecurrenceSpec, start: int) -> bool:
    """Is a[start] <= a[start+1] <= a[start+2]?  start = -1 reads a[-1] as
    term_minus_one; any other start is one carrier read, which costs
    O(log start)."""
    if start < 0:
        return term_minus_one(spec) <= spec.v0 <= spec.v1
    # a[n] = M[n] / (q**n * D) with q, D > 0: a[n] <= a[n+1] iff q*M[n] <= M[n+1]
    q, _, _, _, M = integer_carrier(spec, start)
    m0, m1, m2 = islice(M, 3)
    return q * m0 <= m1 and q * m1 <= m2


def _p1_verdict(spec: RecurrenceSpec, k: Optional[int]) -> Verdict:
    """The clause chain shared by both P1 tests; k = None is the eventual one.

    The chain runs first.  A from-k test then reads its triple a[k-1],
    a[k], a[k+1], which, unordered, fails it whatever the chain says, but
    not where the chain holds on COND_MONOTONIC_1 at a k >= 2 with
    k - 1 >= _dominance_index(spec): that index proves the triple ordered,
    so the O(log k) read of three O(k)-digit terms is left out.
    """
    if _complex_roots(spec):
        return Verdict(False, Branch.DISCRIMINANT_NEGATIVE)
    verdict = _p1_chain(spec, k is None)
    if k is None:
        return verdict
    if k >= 2 and verdict.branch is Branch.COND_MONOTONIC_1:
        clean = _dominance_index(spec)
        if clean is not None and clean <= k - 1:
            return verdict
    # an unordered from-k triple holds a violation at k - 1 or k
    if not _ordered_triple(spec, k - 1):
        return Verdict(False, Branch.FAIL_INITIAL_TRIPLE, k)
    return verdict


def _p1_chain(spec: RecurrenceSpec, eventual: bool) -> Verdict:
    """P1's clauses on real roots, past any from-k triple.

    c = sign(v1 - v0*beta) is 0 exactly on a geometric start and is the
    sign of the dominant root's coefficient where a > 0.  The eventual
    test reads a[0], a[1], a[2] only on the two clauses that consult it,
    r+ = 1 and c = 0.
    """
    unit = -spec._gap_sign(1, 1, 1)  # sign(r+ - 1)
    if unit:
        if spec._gap_sign(1, 1, 0) >= 0:  # r+ <= 0
            return Verdict(False, Branch.FAIL_ALPHA_PLUS_NOT_POSITIVE)
        _, A, _, _, V0, V1 = spec._integers
        c = spec._gap_sign(-dominant_root_sign(A), V0, V1)  # beta = r+ if a < 0, else r-
        if c:
            if spec.a < 0:
                return Verdict(False, Branch.FAIL_A_NOT_POSITIVE)
            up = c == unit
            return Verdict(up, Branch.COND_MONOTONIC_1 if up else Branch.FAIL_GROWTH_PRODUCT)
    # r+ = 1, where the ordered start decides; or the geometric sequence
    # v0*beta**n, whose differences v0*beta**n*(beta - 1) share one sign if
    # beta > 0 and alternate if not, so its triple decides it
    if eventual and not _ordered_triple(spec, 0):
        return Verdict(False, Branch.FAIL_INITIAL_TRIPLE)
    return Verdict(True, Branch.COND_GEOMETRIC if unit else Branch.COND_ALPHA_ONE)


def _dominance_index(spec: RecurrenceSpec) -> Optional[int]:
    """An index from which a[n] <= a[n+1] at every n, proven where
    C1*r+**n dominates, or on a repeated root where the differences'
    linear factor rises (see the module docstring); None where N < 0, or
    where that proof fails."""
    q, A, B, _, V0, V1 = spec._integers
    N = A * A - 4 * B * q
    X = 2 * q * V1 - A * V0
    if N <= 0:
        # a repeated root A/(2*q) > 0: a[n+1] - a[n] is its n-th power times
        # 2*q*A*(V1 - V0) + S*n over 2*q*D*A, with S = X*(A - 2*q)
        S = X * (A - 2 * q) if N == 0 and A > 0 else 0
        return max(0, -(2 * q * A * (V1 - V0) // S)) if S > 0 else None
    r = isqrt(N << 128)  # r <= 2**64*sqrt(N) < r + 1

    def bracket(x: int, y: int) -> tuple[int, int]:
        """(lo, hi) with lo <= 2**64*(x + y*sqrt(N)) <= hi."""
        ends = (x << 64) + y * r, (x << 64) + y * (r + 1)
        return ends if y >= 0 else ends[::-1]

    def most(lo: int, hi: int) -> int:
        return max(-lo, hi)

    # C1 > 0 where its two factors lie on one side of 0; |C2|/C1 <= c2/c1
    f_lo, f_hi = bracket(X, V0)
    g_lo, g_hi = bracket(A - 2 * q, 1)
    if f_lo > 0 and g_lo > 0:
        c1 = f_lo * g_lo
    elif f_hi < 0 and g_hi < 0:
        c1 = f_hi * g_hi
    else:
        return None
    c2 = most(*bracket(-X, V0)) * most(*bracket(A - 2 * q, -1))
    # rho >= P/Q > 1
    P, Q = bracket(A, 1)[0], most(*bracket(A, -1))
    if P <= Q:
        return None
    if c2 <= c1:
        return 0
    # n*(P - Q)/P >= L > log2(c2/c1) from n = ceil(L*P/(P - Q)) on
    L = c2.bit_length() - c1.bit_length() + 1
    return -(-L * P // (P - Q))


def eventually_nondecreasing(spec: RecurrenceSpec) -> Verdict:
    """Is a[n] <= a[n+1] for all large n?

    Holds iff the discriminant is non-negative, r+ > 0 and either the
    dominant root's coefficient, of sign c = sign(v1 - v0*beta), pushes
    upward (c != 0, a > 0 and c = sign(r+ - 1)) or the carrier's triple
    a[0], a[1], a[2] is ordered and r+ = 1 or the start is geometric
    (c = 0), as the non-dominant eigen start and a repeated root's are.
    """
    return _p1_verdict(spec, None)


def nondecreasing_from(spec: RecurrenceSpec, k: int) -> Verdict:
    """Is a[n] <= a[n+1] for every n >= k-1?

    Same clauses as the eventual test plus the local triple
    a[k-1] <= a[k] <= a[k+1]; for k = 0 the left neighbor is the
    backward extension a[-1] = (a*a[0] - a[1]) / b.
    """
    if k < 0:
        raise ValueError("start index must be non-negative")
    return _p1_verdict(spec, k)


def positive_monotone_h(spec: RecurrenceSpec) -> Verdict:
    """h-type only: is 0 < a[0] <= a[n] <= a[n+1] for all n?

    Holds iff the discriminant is non-negative, a[0] > 0, a >= 1 and the
    larger root is at least 1.
    """
    _require_h(spec, "positive_monotone_h")
    if _complex_roots(spec):
        return Verdict(False, Branch.DISCRIMINANT_NEGATIVE)
    if spec.v0 <= 0:
        return Verdict(False, Branch.FAIL_INITIAL_NOT_POSITIVE)
    if spec.a < 1:
        return Verdict(False, Branch.FAIL_COEFF_BELOW_ONE)
    if spec._gap_sign(1, 1, 1) > 0:  # r+ < 1
        return Verdict(False, Branch.FAIL_ALPHA_PLUS_BELOW_ONE)
    return Verdict(True, Branch.COND_H_MONOTONE)


def ratio_monotone_h(spec: RecurrenceSpec) -> Verdict:
    """h-type only: is |alpha - a[n+1]/a[n]| nonincreasing over all n?

    Holds iff the discriminant is non-negative and |a| >= |beta|.
    """
    _require_h(spec, "ratio_monotone_h")
    if _complex_roots(spec):
        return Verdict(False, Branch.DISCRIMINANT_NEGATIVE)
    # (a - beta)*(a + beta) >= 0 with a = A/q, as sign(A - q*beta)*sign(-A - q*beta) <= 0
    q, A, _, _, _, _ = spec._integers
    t = -dominant_root_sign(A)
    if spec._gap_sign(t, q, A) * spec._gap_sign(t, q, -A) <= 0:
        return Verdict(True, Branch.COND_RATIO_CONTRACTION)
    return Verdict(False, Branch.COND2_FAIL_MODULUS, 0)


def weighted_monotone(spec: RecurrenceSpec) -> Verdict:
    """Is |a[n]*alpha - a[n+1]| nonincreasing over all n?

    The residual equals |v1 - v0*alpha| * |beta|^n, so the criterion is
    |beta| <= 1, or a start on the dominant eigen-solution (v1 = v0*alpha),
    whose residual is identically zero.  With a negative discriminant the
    same comparison runs on the shared squared modulus of the conjugate
    pair, which is b.  Otherwise the residual grows from index 0 on.
    """
    if _complex_roots(spec):
        if spec.b <= 1:
            return Verdict(True, Branch.COMPLEX_MODULUS)
        return Verdict(False, Branch.COND3_FAIL_MODULUS, 0)
    # (1 - beta)*(1 + beta) >= 0, as sign(1 - beta)*sign(-1 - beta) <= 0
    _, A, _, _, V0, V1 = spec._integers
    s = dominant_root_sign(A)
    if spec._gap_sign(-s, 1, 1) * spec._gap_sign(-s, 1, -1) <= 0:
        return Verdict(True, Branch.COND_MODULUS_AT_MOST_ONE)
    if spec._gap_sign(s, V0, V1) == 0:  # v1 = v0*alpha
        return Verdict(True, Branch.COND_GEOMETRIC)
    return Verdict(False, Branch.COND3_FAIL_MODULUS, 0)


def eventually_ratio_monotone(spec: RecurrenceSpec) -> Verdict:
    """Is |alpha - a[n+1]/a[n]| nonincreasing for all large n?

    Needs v0*v1 != 0.  Holds iff the discriminant is non-negative.
    """
    if not (spec.v0 and spec.v1):
        raise ValueError("ratio property needs a nonzero starting pair")
    if not _complex_roots(spec):
        return Verdict(True, Branch.DISCRIMINANT_NONNEGATIVE)
    return Verdict(False, Branch.DISCRIMINANT_NEGATIVE)


def hartman_aurel_sufficient(a: RationalLike, b: RationalLike) -> bool:
    """Classical sufficient test: a - 1 - b > 0 and b > 0.

    Under it, differences telescope through
    a[n+2] - a[n+1] = (a - 1 - b)*a[n+1] + b*(a[n+1] - a[n]),
    so any positive nondecreasing start stays nondecreasing.
    """
    A, B, q = over_common_denominator(Fraction(a), Fraction(b))
    if A == 0 or B == 0:
        raise ValueError("both coefficients must be nonzero")
    # a - 1 - b = (A - q - B)/q and b = B/q, with q > 0
    return A - q - B > 0 and B > 0
