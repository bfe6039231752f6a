"""Decision procedures for three monotonicity properties.

Property 1: terms eventually (or from a given index) nondecreasing.
Property 2: distance of consecutive-term ratios to the dominant root
            nonincreasing.
Property 3: the root-weighted residual |a[n]*alpha - a[n+1]| nonincreasing.

Each procedure is a finite, exact criterion on (a, b, v0, v1) and returns
a Verdict carrying the clause that decided it, so reports can say why and
the oracle module can be pointed at the matching scan window.  The
criteria quantify over all n; the oracle scans finite windows; keeping
both routes separate is the point.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import islice
from typing import Optional

from .qfield import RationalLike, cmp_abs
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
    COND_GEOMETRIC = "COND_GEOMETRIC"  # geometric start, ordered start decides
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


@dataclass(frozen=True)
class Verdict:
    holds: bool
    branch: Branch


def _require_h(spec: RecurrenceSpec, what: str) -> None:
    if not spec.h_type:
        raise ValueError(f"{what} is stated only for h-type specs")


def _p1_verdict(spec: RecurrenceSpec, k: Optional[int]) -> Verdict:
    """The clause chain shared by both P1 tests; k = None is the eventual one.

    The eventual test reads the triple a[0], a[1], a[2] and consults it
    only when r+ = 1 or the start is geometric; the from-k test reads
    a[k-1], a[k], a[k+1], after the discriminant check since that costs
    O(log k), and requires it on every branch.
    """
    roots = spec.roots()
    if roots.discriminant_sign < 0:
        return Verdict(False, Branch.DISCRIMINANT_NEGATIVE)
    if k is None:
        ordered = spec.v0 <= spec.v1 <= spec.a * spec.v1 - spec.b * spec.v0
    elif k == 0:
        ordered = term_minus_one(spec) <= spec.v0 <= spec.v1
    else:
        # a[n] = M[n] / (q**n * D) with q, D > 0: a[n] <= a[n+1] iff q*M[n] <= M[n+1]
        q, _, _, _, M = integer_carrier(spec, k - 1)
        m0, m1, m2 = islice(M, 3)
        ordered = q * m0 <= m1 and q * m1 <= m2
    ap, am = roots.alpha_plus, roots.alpha_minus
    if ap == 1 or (k is not None and not ordered):
        if ordered:
            return Verdict(True, Branch.COND_ALPHA_ONE)
        return Verdict(False, Branch.FAIL_INITIAL_TRIPLE)
    if ap.sign() <= 0:
        return Verdict(False, Branch.FAIL_ALPHA_PLUS_NOT_POSITIVE)
    if spec.a > 0:
        growth = ((ap - 1) * (spec.v1 - spec.v0 * am)).sign()
        if growth > 0:
            return Verdict(True, Branch.COND_MONOTONIC_1)
        if growth < 0:
            return Verdict(False, Branch.FAIL_GROWTH_PRODUCT)
    elif (spec.v1 - spec.v0 * ap).sign():
        return Verdict(False, Branch.FAIL_A_NOT_POSITIVE)
    # v1 = v0*r, r = r- where a > 0 and r+ where a <= 0: the geometric
    # sequence v0*r**n, whose differences v0*r**n*(r - 1) all share one
    # sign if r > 0 and alternate if r < 0, so its triple decides it
    if ordered:
        return Verdict(True, Branch.COND_GEOMETRIC)
    return Verdict(False, Branch.FAIL_INITIAL_TRIPLE)


def eventually_nondecreasing(spec: RecurrenceSpec) -> Verdict:
    """Is a[n] <= a[n+1] for all large n?

    Holds iff the discriminant is non-negative and either the dominant
    growth clause fires (1 != r+ > 0, a > 0, (r+ - 1)(v1 - v0*r-) > 0) or
    the first three terms are already ordered and either r+ = 1 or r+ > 0
    and the start is geometric: v1 = v0*r- where a > 0, v1 = v0*r+ where
    a <= 0.  The eigen start on the non-dominant root is such a start,
    and so is a repeated root's.
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
    roots = spec.roots()
    if roots.discriminant_sign < 0:
        return Verdict(False, Branch.DISCRIMINANT_NEGATIVE)
    if spec.v0 <= 0:
        return Verdict(False, Branch.FAIL_INITIAL_NOT_POSITIVE)
    if spec.a < 1:
        return Verdict(False, Branch.FAIL_COEFF_BELOW_ONE)
    if (roots.alpha_plus - 1).sign() < 0:
        return Verdict(False, Branch.FAIL_ALPHA_PLUS_BELOW_ONE)
    return Verdict(True, Branch.COND_H_MONOTONE)


def ratio_monotone_h(spec: RecurrenceSpec) -> Verdict:
    """h-type only: is |alpha - a[n+1]/a[n]| nonincreasing over all n?

    Holds iff the discriminant is non-negative and |a| >= |beta|.
    """
    _require_h(spec, "ratio_monotone_h")
    roots = spec.roots()
    if roots.discriminant_sign < 0:
        return Verdict(False, Branch.DISCRIMINANT_NEGATIVE)
    if cmp_abs(spec.a, roots.beta) >= 0:
        return Verdict(True, Branch.COND_RATIO_CONTRACTION)
    return Verdict(False, Branch.COND2_FAIL_MODULUS)


def weighted_monotone(spec: RecurrenceSpec) -> Verdict:
    """Is |a[n]*alpha - a[n+1]| nonincreasing over all n?

    The residual equals |v1 - v0*alpha| * |beta|^n, so the criterion is
    |beta| <= 1.  With a negative discriminant the same comparison runs
    on the shared squared modulus of the conjugate pair, which is b.
    """
    roots = spec.roots()
    if roots.discriminant_sign < 0:
        if spec.b <= 1:
            return Verdict(True, Branch.COMPLEX_MODULUS)
        return Verdict(False, Branch.COND3_FAIL_MODULUS)
    if cmp_abs(roots.beta, 1) <= 0:
        return Verdict(True, Branch.COND_MODULUS_AT_MOST_ONE)
    return Verdict(False, Branch.COND3_FAIL_MODULUS)


def eventually_ratio_monotone(spec: RecurrenceSpec) -> Verdict:
    """Is |alpha - a[n+1]/a[n]| nonincreasing for all large n?

    Needs v0*v1 != 0.  Holds iff the discriminant is non-negative.
    """
    if spec.v0 * spec.v1 == 0:
        raise ValueError("ratio property needs a nonzero starting pair")
    roots = spec.roots()
    if roots.discriminant_sign >= 0:
        return Verdict(True, Branch.DISCRIMINANT_NONNEGATIVE)
    return Verdict(False, Branch.DISCRIMINANT_NEGATIVE)


def hartman_aurel_sufficient(a: RationalLike, b: RationalLike) -> bool:
    """Classical sufficient test: a - 1 - b > 0 and b > 0.

    Under it, differences telescope through
    a[n+2] - a[n+1] = (a - 1 - b)*a[n+1] + b*(a[n+1] - a[n]),
    so any positive nondecreasing start stays nondecreasing.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("both coefficients must be nonzero")
    return a - 1 - b > 0 and b > 0
