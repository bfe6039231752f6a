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
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import islice
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

    With real roots, c = sign(v1 - v0*beta) is 0 exactly on a geometric
    start and is the sign of the dominant root's coefficient where a > 0.
    The from-k test reads its triple a[k-1], a[k], a[k+1] first, after
    the discriminant check; the eventual test reads a[0], a[1], a[2] only
    on the two clauses that consult it, r+ = 1 and c = 0.
    """
    if _complex_roots(spec):
        return Verdict(False, Branch.DISCRIMINANT_NEGATIVE)
    # an unordered from-k triple holds a violation at k - 1 or k
    unordered = Verdict(False, Branch.FAIL_INITIAL_TRIPLE, k)
    if k is not None and not _ordered_triple(spec, k - 1):
        return unordered
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
    if k is None and not _ordered_triple(spec, 0):
        return unordered
    return Verdict(True, Branch.COND_GEOMETRIC if unit else Branch.COND_ALPHA_ONE)


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
