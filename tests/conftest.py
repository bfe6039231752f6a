"""Shared randomized-corpus builders, decision-vs-oracle agreement checks,
the quadratic Pisot test and the oracle walk's event sink.

Corpora are seeded and therefore deterministic.  Starting pairs lying on
an eigen-solution (v1 - v0*root = 0 for either root) are excluded, which
keeps the corpora as they were; the decisions need no such exclusion.
Either eigen start is a geometric sequence: P1's verdicts decide it on
the ordered triple, and on the dominant root the weighted residual is
identically zero, so P3 holds (branch COND_GEOMETRIC).  test_decisions
holds both against a term scan on a grid of such starts.
"""

from __future__ import annotations

import contextlib
import random
from fractions import Fraction

from recmono import oracle
from recmono import (
    Branch,
    IntCoeffPair,
    RecurrenceSpec,
    WindowReport,
    cmp_abs,
    eventually_nondecreasing,
    eventually_ratio_monotone,
    hartman_aurel_sufficient,
    is_irreducible,
    make_h_spec,
    nondecreasing_from,
    positive_monotone_h,
    quadratic_roots,
    ratio_monotone_h,
    terms_between,
    weighted_monotone,
)
from recmono.oracle import OracleWindows, scan

MAX_NUM = 20
MAX_DEN = 20

N0_CAP = 500  # eventual-property witness bound
AGREE_WINDOW = 300  # oracle window length for verdict agreement
SCAN = N0_CAP + AGREE_WINDOW
DEEP_SCAN = 3000  # first escalation when a finite witness hides
DEEPEST = 8000  # final escalation; a miss here is a genuine bug


@contextlib.contextmanager
def oracle_events():
    """Install a list as the oracle walk's event sink (see oracle.scan)
    for the with block, and yield it: every walk in the block appends its
    events to it."""
    events = []
    oracle._events = events
    try:
        yield events
    finally:
        oracle._events = None


def random_fraction(rng, *, nonzero=False, max_num=MAX_NUM, max_den=MAX_DEN):
    while True:
        f = Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))
        if f != 0 or not nonzero:
            return f


def eigen_degenerate(a, b, v0, v1) -> bool:
    """(v1 - v0*alpha)*(v1 - v0*beta) = 0: the start is an eigen-solution."""
    return v1 * v1 - a * v0 * v1 + b * v0 * v0 == 0


def _random_coeffs(rng, want_negative_disc: bool):
    while True:
        if want_negative_disc:
            a = random_fraction(rng, nonzero=True, max_num=6, max_den=4)
            b = random_fraction(rng, nonzero=True)
            if a * a - 4 * b < 0:
                return a, b
        else:
            a = random_fraction(rng, nonzero=True)
            b = random_fraction(rng, nonzero=True)
            if a * a - 4 * b >= 0:
                return a, b


# handcrafted repeated-root coefficient pairs (discriminant exactly zero)
_REPEATED_ROOT_COEFFS = (
    (Fraction(2), Fraction(1)),
    (Fraction(-2), Fraction(1)),
    (Fraction(1), Fraction(1, 4)),
    (Fraction(3), Fraction(9, 4)),
    (Fraction(1, 2), Fraction(1, 16)),
    (Fraction(-3), Fraction(9, 4)),
)


def build_corpus(seed: int, count: int) -> list[RecurrenceSpec]:
    """General specs: two thirds real discriminant, one third complex,
    plus one repeated-root spec per handcrafted coefficient pair."""
    rng = random.Random(seed)
    out: list[RecurrenceSpec] = []
    for a, b in _REPEATED_ROOT_COEFFS:
        while True:
            v0 = random_fraction(rng, max_num=8, max_den=4)
            v1 = random_fraction(rng, max_num=8, max_den=4)
            if (v0, v1) != (0, 0) and not eigen_degenerate(a, b, v0, v1):
                out.append(RecurrenceSpec(a, b, v0, v1))
                break
    i = 0
    while len(out) < count:
        a, b = _random_coeffs(rng, want_negative_disc=(i % 3 == 2))
        i += 1
        v0 = random_fraction(rng, max_num=8, max_den=4)
        v1 = random_fraction(rng, max_num=8, max_den=4)
        if (v0, v1) == (0, 0) or eigen_degenerate(a, b, v0, v1):
            continue
        out.append(RecurrenceSpec(a, b, v0, v1))
    return out


def build_h_corpus(seed: int, count: int) -> list[RecurrenceSpec]:
    """h-type specs (a[-1] = 0 convention), same discriminant mix."""
    rng = random.Random(seed)
    out: list[RecurrenceSpec] = []
    for a, b in _REPEATED_ROOT_COEFFS[:3]:
        out.append(make_h_spec(a, b, random_fraction(rng, nonzero=True, max_num=8, max_den=4)))
    i = 0
    while len(out) < count:
        a, b = _random_coeffs(rng, want_negative_disc=(i % 3 == 2))
        i += 1
        c = random_fraction(rng, nonzero=True, max_num=8, max_den=4)
        out.append(make_h_spec(a, b, c))
    return out


def shift_spec(spec: RecurrenceSpec, m: int) -> RecurrenceSpec:
    """The same sequence re-anchored at index m (never (0,0): at most one
    term of a valid spec vanishes)."""
    return RecurrenceSpec(spec.a, spec.b, *terms_between(spec, m, m + 1))


# ---------------------------------------------------------------------------
# agreement checks: one assertion family per decision procedure, each
# handed its field of one shared oracle scan
# ---------------------------------------------------------------------------


def check_eventual_agreement(spec: RecurrenceSpec) -> None:
    v = eventually_nondecreasing(spec)
    n0 = scan(spec, SCAN, 0).n0_witness
    if v.holds:
        assert n0 is not None and n0 <= N0_CAP, (
            f"eventual verdict holds but oracle n0={n0}: {spec}"
        )
    else:
        # some violation at or beyond N0_CAP must exist; widen until seen
        if n0 is not None and n0 <= N0_CAP:
            n0 = scan(spec, DEEP_SCAN, 0).n0_witness
            if n0 is not None and n0 <= N0_CAP:
                n0 = scan(spec, DEEPEST, 0).n0_witness
        assert n0 is None or n0 > N0_CAP, (
            f"eventual verdict fails but the tail is clean: {spec}"
        )


def check_from_k_agreement(spec: RecurrenceSpec, k: int, w: WindowReport) -> None:
    """w is the P1 window [k - 1, k + AGREE_WINDOW]."""
    v = nondecreasing_from(spec, k)
    if v.holds:
        assert w.holds_on_window, (
            f"from-{k} verdict holds but window violates at "
            f"{w.first_violation}: {spec}"
        )
        assert eventually_nondecreasing(spec).holds
        return
    if v.branch is Branch.FAIL_INITIAL_TRIPLE:
        assert w.first_violation is not None and w.first_violation <= k, (
            f"from-{k} triple fails but no violation by {k}: {spec}"
        )
        return
    # failing for asymptotic reasons: the ordering must break somewhere
    if w.holds_on_window:
        w = scan(spec, DEEPEST, k).p1_from_k
    assert not w.holds_on_window, (
        f"from-{k} verdict fails but no violation found: {spec}"
    )


def check_weighted_agreement(spec: RecurrenceSpec, w: WindowReport) -> None:
    """w is the P3 window [0, AGREE_WINDOW]."""
    v = weighted_monotone(spec)
    if v.holds:
        assert w.holds_on_window, (
            f"weighted verdict holds but window violates at "
            f"{w.first_violation}: {spec}"
        )
    else:
        # |beta| > 1 off the dominant eigen start forces a strict increase
        # at the very first comparison
        assert w.first_violation == 0, (
            f"weighted verdict fails but first violation is "
            f"{w.first_violation}: {spec}"
        )


def check_ratio_eventual_agreement(spec: RecurrenceSpec, w: WindowReport | None) -> None:
    """w is the P2 window [0, AGREE_WINDOW], None for complex roots."""
    if spec.v0 * spec.v1 == 0:
        return
    v = eventually_ratio_monotone(spec)
    if spec.roots().discriminant_sign < 0:
        assert not v.holds
        return
    assert v.holds
    if not w.holds_on_window:
        tail = shift_spec(spec, SCAN)
        w = scan(tail, AGREE_WINDOW, 0).p2
        if not w.holds_on_window:
            tail = shift_spec(spec, DEEP_SCAN)
            w = scan(tail, 600, 0).p2
    assert w.holds_on_window, (
        f"ratio-eventual verdict holds but violations persist: {spec}"
    )


def check_h_agreements(spec: RecurrenceSpec, windows: OracleWindows) -> None:
    """windows is the oracle scan at AGREE_WINDOW."""
    assert spec.h_type
    vp = positive_monotone_h(spec)
    w1 = windows.p1_immediate
    if vp.holds:
        assert spec.v0 > 0 and w1.holds_on_window, (
            f"h-monotone verdict holds but oracle disagrees: {spec}"
        )
    elif spec.v0 > 0:
        # positive start, failing verdict: ordering must break eventually
        if w1.holds_on_window:
            w1 = scan(spec, DEEP_SCAN, 0).p1_from_k
        assert not w1.holds_on_window, (
            f"h-monotone verdict fails but no violation found: {spec}"
        )
    vr = ratio_monotone_h(spec)
    vw = weighted_monotone(spec)
    if spec.roots().discriminant_sign >= 0:
        w2 = windows.p2
        if vr.holds:
            assert w2.holds_on_window, (
                f"h-ratio verdict holds but window violates at "
                f"{w2.first_violation}: {spec}"
            )
        else:
            # |a| < |beta| forces a violation at the first comparison
            assert w2.first_violation == 0, (
                f"h-ratio verdict fails but first violation is "
                f"{w2.first_violation}: {spec}"
            )
    else:
        assert not vr.holds
    if vp.holds and vw.holds:
        assert vr.holds, f"implication chain broken: {spec}"


def check_hartman_soundness(spec: RecurrenceSpec) -> None:
    if hartman_aurel_sufficient(spec.a, spec.b) and 0 < spec.v0 <= spec.v1:
        w = scan(spec, AGREE_WINDOW, 1).p1_from_k
        assert w.holds_on_window, (
            f"sufficient test passed but ordering breaks at "
            f"{w.first_violation}: {spec}"
        )


def check_all_agreements(spec: RecurrenceSpec) -> None:
    """Every applicable agreement family for one spec."""
    windows = scan(spec, AGREE_WINDOW, 3)
    check_eventual_agreement(spec)
    check_from_k_agreement(spec, 0, windows.p1_immediate)
    check_from_k_agreement(spec, 3, windows.p1_from_k)
    check_weighted_agreement(spec, windows.p3)
    check_ratio_eventual_agreement(spec, windows.p2)
    check_hartman_soundness(spec)
    if spec.h_type:
        check_h_agreements(spec, windows)


def is_quadratic_pisot(pair: IntCoeffPair) -> bool:
    """True iff the dominant root of x^2 - a*x + b is a quadratic Pisot
    number: the polynomial is irreducible over the integers, the dominant
    root is > 1 and its conjugate has absolute value < 1; all exact."""
    if not is_irreducible(pair):
        return False
    roots = quadratic_roots(*pair)
    if roots.discriminant_sign < 0:
        return False
    return (roots.alpha - 1).sign() > 0 and cmp_abs(roots.beta, 1) < 0
