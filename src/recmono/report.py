"""Full analysis of one recurrence, cross-checked and JSON-ready.

The report carries every decision verdict next to the oracle window it
must agree with on the scanned range.  Agreements that are theorems are
enforced here: a holding verdict with a dirty window, or a failing
verdict whose forced violation (the index the verdict names as
violation_by) is missing, raises InternalInconsistency (the CLI maps it
to exit code 1), as does a failed self-check inside the oracle's
residual walk.  All printed oracle windows come from one oracle.scan
call: one walk of the integer carrier from index 0 through the window,
which stops early at the first block whose certificate is invariant,
since that block decides every later index, and goes past the window
only while the from-k P1 window is still clean, by one jump to that
window and one step per index through it.  A holding eventual verdict
whose n0 lies past the window has k* = n0 + 1 found by the decisions
(_first_clean_start) and certified by two more rows of the same
contract, each read by oracle.first_p1_violation, P1 alone with no
P2/P3 walk: nondecreasing_from(k*), which holds, on [k* - 1, k* + window],
and nondecreasing_from(k* - 1), which fails on its triple by k* - 1, on
the one index k* - 2.  So the scan is the report's one walk of the
window, and all seven rows pass one rule.  The search reads decisions
past the dominance index at no far cost (decisions._dominance_index),
and stops at N0_SEARCH_LIMIT.  Where it fails there, n0 may lie past it
only if that index is proven and at least the limit: the input is then
refused (ValueError, exit 2, naming the limit and the index), and
otherwise the failure is a contradiction.
Which clause forces which violation is stated in decisions alone; a
start on the dominant eigen-solution is decided there too (its weighted
residual is identically zero, so P3 holds), and the report only prints
it as degenerate_geometric.

Rendering is exact work done once, on integers where it can be.
alpha, beta and the ratio limit are the very root objects alpha_plus
and alpha_minus, so the two roots' decimals are rendered once and the
other blocks copy them.  The spec clears its denominators once, into
its integer form (q, A, B, D, V0, V1), kept on it like its roots.  The
carrier, a[-1] and every root sign read it: the verdicts' and
ratio_limit's, and degenerate_geometric's sign(v1 - v0*alpha), are one
or two surd_sign calls each, with no QuadElem.  The terms preview
prints the carrier's terms M[n] over q**n * D with one gcd each, and
the P3 residuals and the P2 detail are one QuadElem each, built on
alpha's own integers, with no QuadElem or Fraction arithmetic: the
residuals on the carrier's terms, the detail on the numerators and
denominators of terms_between's three terms.  The Riccati prefix
steps the ratio map on the integer form too
(riccati._states), from b0 = V1/V0 reduced by one gcd, and prints each
state with fraction_str.  Each state whose two terms are among the
preview's carrier terms is checked against them, q*p*M[n] = r*M[n+1],
and terminated_early against their first zero; a mismatch raises
InternalInconsistency naming riccati_prefix.  Outside the oracle scan,
a median report-corpus op spends about 117 microseconds in
build_report (125 with the prefix built as Fractions), 17 of them in
the verdicts (with a[-1]) and hartman_aurel_sufficient (CPython 3.11.7,
x86-64, per-op best of 5 rounds over the first 1,000 ops of seed 1,
median of three runs).
"""

from __future__ import annotations

from itertools import islice
from math import gcd
from typing import Optional

from . import decisions, oracle
from .decisions import Verdict
from .oracle import InternalInconsistency, WindowReport
from .qfield import QuadElem, decimal_str, dominant_root_sign, fraction_str, surd_sign
from .recurrence import (
    RecurrenceSpec,
    integer_carrier,
    ratio_limit,
    term_minus_one,
    terms_between,
)
from .riccati import _states

__all__ = ["InternalInconsistency", "build_report", "spec_json"]

RICCATI_PREFIX_LEN = 8
TERMS_PREVIEW_LEN = 9

# the largest start at which the report looks for n0 past the window; one
# decision read at k before the dominance index takes O(log k) products of
# O(k)-digit integers: on (a, b, v0, v1) = (2, 1 - 10**-14, 1, 1 - 10**-8),
# whose search reaches the limit, the read at 32768 took 0.27 s and the
# whole report 0.47 s, and on (2, 1 - 10**-30, 1, 1 - 10**-16) 1.15 and
# 2.0 s (CPython 3.11.7, x86-64); n0 on valid input can lie far past the
# limit: on the first of these it is near 10**6 (a float estimate), under
# a proven dominance index of 10000001, and that report exits 2
N0_SEARCH_LIMIT = 1 << 15


def spec_json(spec: RecurrenceSpec) -> dict:
    """The input recurrence as echoed by every JSON output that takes one."""
    return {
        "a": str(spec.a),
        "b": str(spec.b),
        "v0": str(spec.v0),
        "v1": str(spec.v1),
        "h_type": spec.h_type,
    }


def _quad_json(x: QuadElem) -> dict:
    return {"exact": str(x), "decimal": decimal_str(x)}


def _verdict_json(v: Optional[Verdict], **extra) -> Optional[dict]:
    if v is None:
        return None
    out = {"holds": v.holds, "branch": v.branch.value}
    out.update(extra)
    return out


def _said(v: Verdict) -> str:
    return f"{'holds' if v.holds else 'fails'} on {v.branch.value}"


def _window_json(w: Optional[WindowReport], **extra) -> Optional[dict]:
    if w is None:
        return None
    out = {
        "property": w.property.value,
        "checked_range": list(w.checked_range),
        "holds_on_window": w.holds_on_window,
        "first_violation": w.first_violation,
        "skipped_indices": list(w.skipped_indices),
    }
    out.update(extra)
    return out


def _modulus_decimal(alpha: QuadElem, c0: int, c1: int, den: int) -> str:
    """decimal_str(|c0*alpha - c1| / den) for integers c0, c1 and den > 0.

    One QuadElem on alpha's own (x, y, n, den), with no QuadElem
    arithmetic: its y is 0 exactly where alpha's or c0 is, so a rational
    value keeps decimal_str's short exact form.
    """
    x, y = c0 * alpha.x - c1 * alpha.den, c0 * alpha.y
    s = surd_sign(x, y, alpha.n)
    return decimal_str(QuadElem(s * x, s * y, alpha.n, den * alpha.den))


def _first_clean_start(spec: RecurrenceSpec, k: int) -> Optional[int]:
    """The least start k* > k at which nondecreasing_from holds, for a
    spec whose eventual verdict holds and whose from-k verdict fails at k;
    None where it fails at every start up to N0_SEARCH_LIMIT.

    nondecreasing_from(k) states a[n] <= a[n+1] for every n >= k - 1, so
    it is monotone in k: the search gallops to k + 1, k + 2, k + 4, ...
    until it holds, then bisects between the last start that failed and
    the first that held.  Then n0 = k* - 1.
    """
    step = 1
    while True:
        hi = min(k + step, N0_SEARCH_LIMIT)
        if decisions.nondecreasing_from(spec, hi).holds:
            break
        if hi == N0_SEARCH_LIMIT:
            return None
        k, step = hi, 2 * step
    while hi - k > 1:
        mid = (k + hi) // 2
        if decisions.nondecreasing_from(spec, mid).holds:
            hi = mid
        else:
            k = mid
    return hi


def build_report(spec: RecurrenceSpec, window: int = 300, from_k: int = 0) -> dict:
    """Assemble the analysis dict; raises InternalInconsistency on mismatch."""
    if window < 1:
        raise ValueError("window must be at least 1")
    if from_k < 0:
        raise ValueError("start index must be non-negative")

    roots = spec.roots()
    real = roots.discriminant_sign >= 0
    # a[n] = M[n] / scales[n] with scales[n] = q**n * D > 0
    q, _, _, D, M = integer_carrier(spec)
    carrier = list(islice(M, TERMS_PREVIEW_LEN))
    scales = [D * q**n for n in range(TERMS_PREVIEW_LEN)]

    # ---- verdicts ---------------------------------------------------------
    v_eventual = decisions.eventually_nondecreasing(spec)
    v_immediate = decisions.nondecreasing_from(spec, 0)
    v_from_k = v_immediate if from_k == 0 else decisions.nondecreasing_from(spec, from_k)
    v_h_monotone = decisions.positive_monotone_h(spec) if spec.h_type else None
    v_h_ratio = decisions.ratio_monotone_h(spec) if spec.h_type else None
    v_ratio_eventual = (
        decisions.eventually_ratio_monotone(spec) if spec.v0 and spec.v1 else None
    )
    v_weighted = decisions.weighted_monotone(spec)
    hartman = decisions.hartman_aurel_sufficient(spec.a, spec.b)

    # ---- oracle windows ---------------------------------------------------
    windows = oracle.scan(spec, window, from_k)
    w1_immediate, w1_from_k = windows.p1_immediate, windows.p1_from_k
    w2, w3, n0 = windows.p2, windows.p3, windows.n0_witness

    # degenerate start: coefficient of the dominant root vanishes
    # (v1 = v0*alpha), the weighted residual is identically zero
    alpha = roots.alpha
    _, A, B, _, V0, V1 = spec._integers
    degenerate = real and spec._gap_sign(dominant_root_sign(A), V0, V1) == 0

    # ---- consistency: the decision/oracle contract -------------------------
    # One row per verdict an oracle window can contradict: its name, the
    # verdict and the window's first violation.  A holding verdict needs
    # none; a failing one that names a forced violation needs one by that
    # index.
    def _mismatch(msg: str) -> None:
        raise InternalInconsistency(f"decision/oracle mismatch: {msg}")

    contract = [
        (f"nondecreasing_from({from_k})", v_from_k, w1_from_k.first_violation),
        ("nondecreasing_from(0)", v_immediate, w1_immediate.first_violation),
        ("positive_monotone_h", v_h_monotone, w1_immediate.first_violation),
        ("ratio_monotone_h", v_h_ratio, w2 and w2.first_violation),
        ("weighted_monotone", v_weighted, w3.first_violation),
    ]
    if v_eventual.holds and n0 is None:
        # the window's last pair, at index window, violates, so n0 lies past
        # the window and nondecreasing_from fails at window + 1; k* = n0 + 1
        # is certified by two rows: nondecreasing_from(k*) on a clean
        # [k* - 1, k* + window], and nondecreasing_from(k* - 1), which fails
        # on its triple by k* - 1, on [k* - 2, k* - 2]
        k = _first_clean_start(spec, window + 1)
        if k is None:
            # the failed search puts a violation at some n >= N0_SEARCH_LIMIT - 1,
            # which a proven clean tail from N_hi on contradicts only where
            # N_hi < N0_SEARCH_LIMIT; past that n0 <= N_hi may lie beyond the
            # search, and the input is refused; on a repeated root the index
            # is n0 itself, and the refusal names it exactly
            clean = decisions._dominance_index(spec)
            if clean is not None and clean >= N0_SEARCH_LIMIT:
                proves = f"n0 = {clean}" if roots.discriminant_sign == 0 else f"only n0 <= {clean}"
                raise ValueError(
                    f"n0 lies past the search limit: nondecreasing_from fails at every "
                    f"start up to {N0_SEARCH_LIMIT}, and the dominance bound proves {proves}")
            _mismatch(
                "eventually_nondecreasing holds but nondecreasing_from fails at every "
                f"start up to {N0_SEARCH_LIMIT}"
            )
        held = f"(eventually_nondecreasing holds from n0 = {k - 1} on)"
        contract += [
            (f"nondecreasing_from({k}) {held}", decisions.nondecreasing_from(spec, k),
             oracle.first_p1_violation(spec, k - 1, k + window)),
            (f"nondecreasing_from({k - 1}) {held}", decisions.nondecreasing_from(spec, k - 1),
             oracle.first_p1_violation(spec, k - 2, k - 2)),
        ]
    for name, verdict, first in contract:
        if verdict is None:
            continue
        by = verdict.violation_by
        if verdict.holds and first is not None:
            _mismatch(f"{name} holds but the window finds a violation at {first}")
        if by is not None and (first is None or first > by):
            _mismatch(
                f"{name} fails on {verdict.branch.value}, which forces a violation by "
                f"index {by}, but the window's first violation is {first}"
            )
    # on an h-type spec a[-1] = 0, so positive_monotone_h (0 < a[0] <= a[n] <=
    # a[n+1] for all n) says nondecreasing_from(0) and v0 > 0: two clause
    # chains, held against each other
    if v_h_monotone is not None and v_h_monotone.holds != (v_immediate.holds and spec.v0 > 0):
        raise InternalInconsistency(
            f"decision cross-check: positive_monotone_h {_said(v_h_monotone)}, but "
            f"nondecreasing_from(0) {_said(v_immediate)} and v0 = {spec.v0}")
    # under the hypothesis a positive nondecreasing start telescopes upward
    if hartman and 0 < spec.v0 <= spec.v1 and n0 != 0:
        _mismatch(
            f"hartman_aurel_sufficient holds and 0 < v0 <= v1, but the last "
            f"violation of the window is at {window if n0 is None else n0 - 1}"
        )

    # ---- assembled blocks --------------------------------------------------
    # each root's decimal once: alpha, beta and the limit are these objects
    rendered = {}
    if real:
        rendered = {id(r): _quad_json(r) for r in (roots.alpha_plus, roots.alpha_minus)}
        roots_block = {
            "kind": "real_distinct" if roots.discriminant_sign > 0 else "real_repeated",
            "alpha_plus": rendered[id(roots.alpha_plus)],
            "alpha_minus": rendered[id(roots.alpha_minus)],
            "alpha": dict(rendered[id(alpha)]),
            "beta": dict(rendered[id(roots.beta)]),
            "modulus_squared": None,
        }
    else:
        roots_block = {
            "kind": "complex",
            "alpha_plus": None,
            "alpha_minus": None,
            "alpha": None,
            "beta": None,
            "modulus_squared": str(roots.modulus_squared),
        }

    p2_extra = {}
    if w2 is not None and w2.first_violation is not None:
        n = w2.first_violation
        # the window skips zero terms, so a[n] and a[n+1] are not 0; for
        # u = a[i] and v = a[i+1] over their lowest terms,
        # |alpha - v/u| = |u.num*v.den*alpha - v.num*u.den| / (|u.num|*v.den)
        t = terms_between(spec, n, n + 2)
        lhs, rhs = (_modulus_decimal(alpha, u.numerator * v.denominator, v.numerator * u.denominator,
                                     abs(u.numerator) * v.denominator) for u, v in zip(t, t[1:]))
        p2_extra["violation_detail"] = {"index": n, "lhs_decimal": lhs, "rhs_decimal": rhs}
    p3_extra = {}
    if real:
        # a[n]*alpha - a[n+1] = (q*M[n]*alpha - M[n+1]) / scales[n+1]
        p3_extra["residual_decimal_prefix"] = [
            _modulus_decimal(alpha, q * carrier[n], carrier[n + 1], scales[n + 1])
            for n in range(min(3, window + 1))
        ]

    limit = ratio_limit(spec) if spec.v0 and spec.v1 else None
    limit_block = None if limit is None else {
        "kind": limit.kind.value,
        "which_root": limit.which_root,
        "limit": None if limit.limit is None else dict(rendered[id(limit.limit)]),
    }

    riccati_block = None
    if V0 and V1:
        # b0 = v1/v0 = V1/V0, in lowest terms by one gcd; each state p/r
        # whose two terms the carrier holds is a[n+1]/a[n],
        # q*p*M[n] = r*M[n+1], and the orbit ends at the first zero among them
        g = gcd(V1, V0) if V0 > 0 else -gcd(V1, V0)
        cut = len(carrier) - 1
        printed = []
        for n, (p, r) in enumerate(_states(A, B, q, V1 // g, V0 // g, RICCATI_PREFIX_LEN)):
            if n < cut and q * p * carrier[n] != r * carrier[n + 1]:
                raise InternalInconsistency(
                    f"riccati_prefix mismatch: state {n}, {fraction_str(p, r)}, is not "
                    f"a[{n + 1}]/a[{n}] on the carrier's terms")
            printed.append(fraction_str(p, r))
        terminated = None if p else n
        zero = carrier.index(0, 1) - 1 if 0 in carrier[1:] else None
        if zero != terminated and (zero is not None or terminated < cut):
            raise InternalInconsistency(
                f"riccati_prefix mismatch: terminated_early is {terminated}, but the "
                f"first n < {cut} with a[n+1] = 0 is {zero}")
        riccati_block = {"b0": printed[0], "states": printed, "terminated_early": terminated}

    return {
        "schema": 1,
        "spec": spec_json(spec),
        "window": window,
        "from_k": from_k,
        "discriminant": {
            "value": str(roots.discriminant),
            "sign": roots.discriminant_sign,
        },
        "roots": roots_block,
        "degenerate_geometric": degenerate,
        "verdicts": {
            "p1_immediate": _verdict_json(v_immediate),
            "p1_from_k": _verdict_json(v_from_k, k=from_k),
            "p1_eventual": _verdict_json(v_eventual),
            "p1_h_monotone": _verdict_json(v_h_monotone),
            "p2_h_ratio_monotone": _verdict_json(v_h_ratio),
            "p2_eventual_ratio_monotone": _verdict_json(v_ratio_eventual),
            "p3_weighted": _verdict_json(v_weighted),
            "hartman_aurel_sufficient": hartman,
        },
        "oracle_windows": {
            "p1_immediate": _window_json(w1_immediate),
            "p1_from_k": _window_json(w1_from_k, k=from_k),
            "p2": _window_json(w2, **p2_extra),
            "p3": _window_json(w3, **p3_extra),
            "n0_witness": n0,
        },
        "ratio_limit": limit_block,
        "riccati_prefix": riccati_block,
        "terms_preview": [fraction_str(m, scale) for m, scale in zip(carrier, scales)],
        "term_minus_one": str(term_minus_one(spec)),
    }
