"""Brute-force window scanner: pinned windows, reference equivalence,
the telescoping residual identity, and the Casoratian norm the residual
walk carries for real roots and computes for a complex pair.

The production scanner runs on a rescaled integer carrier; the naive
references in reference.py redo every comparison on Fractions and on
roots of their own, and reference_windows assembles them into the whole
OracleWindows that scan must return, checked ranges and skipped indices
included.  Each reference check is the one equality
scan(spec, window, from_k) == reference_windows(spec, window, from_k);
held on a random corpus, it is the main correctness argument for the
rescaling.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, islice
from math import isqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from recmono import cli, oracle
from recmono import (
    InternalInconsistency,
    PropertyId,
    RecurrenceSpec,
    WindowReport,
    iterate,
    make_h_spec,
    terms_between,
)
from recmono.qfield import surd_sign
from recmono.recurrence import _carrier_jump, integer_carrier
from recmono.report import build_report

import reference
from conftest import build_corpus, oracle_events
from reference import reference_windows

FIB = make_h_spec(1, -1, 1)
LUCAS = RecurrenceSpec(1, -1, 2, 1)
SPREAD_H = make_h_spec(1, -3, 1)
# roots 2.26 and -0.10 over q = 13: the carrier grows by 29.3 per index,
# past max(|B|, q) = 13, so the walk certifies whole blocks inside the
# window; with h = -2/5 every term is negative and every index violates P1
DEEP = make_h_spec(Fraction(28, 13), Fraction(-3, 13), Fraction(2, 5))
DEEP_NEGATIVE = make_h_spec(Fraction(28, 13), Fraction(-3, 13), Fraction(-2, 5))
# roots 3 and 2: the terms and their differences E grow, and every
# from-k window is clean
RISING = make_h_spec(5, 6, 1)
# roots 199/200 and 99/100 and a[n] = alpha**n - (1 - 1/1000)*beta**n: the
# terms grow by more than 1 per index up to about index 130, then shrink
# toward the dominant root below 1, so the test on M (growth by q) is not
# invariant: the walk refuses its one try, at 2, and tries no more
TRANSIENT = RecurrenceSpec(Fraction(397, 200), Fraction(19701, 20000),
                           Fraction(1, 1000), Fraction(599, 100000))
# repeated root 1, a[n] = -1 - 2*n: every index violates P1, and the test on
# M is invariant, strict or not: c = 1 is the root of P(x) = (x - 1)**2, the
# tie P(1) = 0, and the eigen-solution 1**n ties a[n+1] = a[n]
FALLING_UNIT = RecurrenceSpec(2, 1, -1, -3)


def _assert_matches_references(cases):
    for case in cases:
        assert oracle.scan(*case) == reference_windows(*case), case


def _block_events(spec, window, from_k, names=("certified", "refused", "lasting")):
    """scan's windows and, in walk order, the events of its walk (see
    oracle.scan) whose names are in names: by default the block the P2/P3
    walk certifies, each try it refuses, and the index from which a
    lasting certificate decides every later one, where the walk stops."""
    with oracle_events() as events:
        got = oracle.scan(spec, window, from_k)
    return got, [event for event in events if event[0] in names]


# ----------------------------------------------------------------------
# pinned windows on the worked families
# ----------------------------------------------------------------------

class TestPinnedWindows:
    def test_fibonacci_all_clean(self):
        w = oracle.scan(FIB, 300, 0)
        assert w.p1_from_k.holds_on_window
        assert w.p2.holds_on_window
        assert w.p3.holds_on_window

    def test_lucas_first_descent_at_zero(self):
        rep = oracle.scan(LUCAS, 300, 0).p1_from_k
        assert not rep.holds_on_window and rep.first_violation == 0

    def test_lucas_ratio_distance_violated_at_zero(self):
        rep = oracle.scan(LUCAS, 300, 0).p2
        assert not rep.holds_on_window and rep.first_violation == 0

    def test_lucas_weighted_clean_and_n0(self):
        assert oracle.scan(LUCAS, 300, 0).p3.holds_on_window
        assert oracle.scan(LUCAS, 500, 0).n0_witness == 1

    def test_spread_h_violations_at_zero(self):
        # coefficients (1, -3): ratio distances and weighted residuals
        # both grow from the start
        w = oracle.scan(SPREAD_H, 120, 0)
        assert w.p2.first_violation == 0
        assert w.p3.first_violation == 0

    def test_zero_terms_are_skipped_not_compared(self):
        # terms 1, 0, -1, ... : the ratio scan cannot use indices 0 and 1
        spec = RecurrenceSpec(Fraction(5, 2), 1, 1, 0)
        rep = oracle.scan(spec, 40, 0).p2
        assert rep.skipped_indices == (0, 1)
        assert rep.holds_on_window

    def test_mixed_denominator_violation_at_one(self):
        spec = RecurrenceSpec(Fraction(1, 10), Fraction(-21, 5), 1, 3)
        rep = oracle.scan(spec, 40, 0).p2
        assert not rep.holds_on_window and rep.first_violation == 1

    def test_backward_pair_violation_positive_b(self):
        # a[-1] = (3*1 - 0)/2 = 3/2 > a[0] = 1
        rep = oracle.scan(RecurrenceSpec(3, 2, 1, 0), 10, 0).p1_from_k
        assert rep.first_violation == -1

    def test_backward_pair_violation_negative_b(self):
        # a[-1] = (1*1 - 4)/(-2) = 3/2 > a[0] = 1
        rep = oracle.scan(RecurrenceSpec(1, -2, 1, 4), 10, 0).p1_from_k
        assert rep.first_violation == -1

    def test_n0_witnesses(self):
        assert oracle.scan(FIB, 500, 0).n0_witness == 0
        # alternating rotation: the last compared pair still violates
        assert oracle.scan(RecurrenceSpec(1, 1, 1, 1), 20, 0).n0_witness is None
        # strictly decreasing tail: no clean suffix at all
        assert oracle.scan(make_h_spec(1, Fraction(1, 4), 1), 200, 0).n0_witness is None


class TestValidation:
    def test_p1_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            oracle.scan(FIB, 11, -1)
        with pytest.raises(ValueError):
            oracle.scan(FIB, -1, 5)

    def test_p2_rejects_complex_roots(self):
        # the ratio distances are not real: no P2 window, only P3
        w = oracle.scan(RecurrenceSpec(1, 1, 1, 1), 10, 0)
        assert w.p2 is None and w.p3.property is PropertyId.P3

    def test_negative_windows_rejected(self):
        with pytest.raises(ValueError):
            oracle.scan(FIB, -1, 0)
        with pytest.raises(ValueError):
            oracle.scan(FIB, -1, 3)


class TestResidualTelescoping:
    def test_residual_multiplies_by_other_root(self):
        # a[n]*alpha - a[n+1] = (v0*alpha - v1) * beta^n, checked exactly
        for spec in (
            LUCAS,
            RecurrenceSpec(1, -1, 1, 1),
            RecurrenceSpec(3, 1, 2, 1),
            RecurrenceSpec(Fraction(1, 2), Fraction(-3, 4), 1, 5),
            make_h_spec(2, Fraction(3, 4), 1),
        ):
            roots = reference.roots(spec.a, spec.b)
            alpha, beta = roots.alpha, roots.beta
            terms = iterate(spec, 31)
            res = [alpha * terms[n] - terms[n + 1] for n in range(31)]
            for n in range(30):
                assert res[n + 1] == beta * res[n], (spec, n)


class TestReferenceEquivalence:
    """The rescaled integer scanner must equal the naive scanner exactly,
    held whole on (40, 0), (38, 2) and (60, 0), each case in one method."""

    def _specs(self):
        return [
            FIB, LUCAS, SPREAD_H, make_h_spec(1, Fraction(1, 4), 1),
            RecurrenceSpec(Fraction(5, 2), 1, 1, 0),
            RecurrenceSpec(Fraction(1, 10), Fraction(-21, 5), 1, 3),
            RecurrenceSpec(3, 2, -31, -30),  # hits an exceptional zero
            RecurrenceSpec(-1, -6, 1, 1),  # negative dominant direction
            RecurrenceSpec(2, 1, 1, 1),  # repeated unit root
            RecurrenceSpec(4, 4, 1, 2),  # start on an eigen-solution
            RecurrenceSpec(1, 1, 1, 1),  # complex rotation through zero
        ] + build_corpus(777, 90)

    def test_p1_matches_reference(self):
        _assert_matches_references((spec, 38, 2) for spec in self._specs())

    def test_p2_matches_reference(self):
        _assert_matches_references((spec, 40, 0) for spec in self._specs()
                                   if spec.roots().discriminant_sign >= 0)

    def test_p3_matches_reference(self):
        # P2 is None on the complex specs: P3 is the field they test
        _assert_matches_references((spec, 40, 0) for spec in self._specs()
                                   if spec.roots().discriminant_sign < 0)

    def test_n0_matches_reference(self):
        _assert_matches_references((spec, 60, 0) for spec in self._specs())


class TestDegreeReducedScans:
    """P2 and P3 compare |R[n]*M[n+1]| with |R[n+1]*M[n]| and q*|R[n]|
    with |R[n+1]|.  With the norm N = R*R' divided out, each index is
    decided on brackets of the conjugate moduli |R'| taken at one shift,
    one comparison implying the other where the terms grow or decay, and
    falls back to the exact test where the brackets overlap, R' cancels
    or N = 0; pinned here against the naive scans over a long window, on
    specs that run the whole window, reach both the equal-sign and the
    opposite-sign case, tie at every index, start on an eigen-solution,
    have decaying terms, or carry operands of ~2,000 bits."""

    WINDOW = 150
    LONG_WINDOW = 400
    DECAYING = make_h_spec(Fraction(11, 10), Fraction(1, 5))

    SPECS = (
        # DP h-specs, q = 13; b < 0 flips the residual sign each step,
        # b > 0 with two positive roots keeps it
        make_h_spec(Fraction(28, 13), Fraction(-3, 13), Fraction(2, 5)),
        make_h_spec(Fraction(30, 13), Fraction(12, 13), 1),
        make_h_spec(Fraction(27, 13), Fraction(1, 13), -3),
        FIB,  # beta < 0 and positive terms: the two products differ in sign
        RecurrenceSpec(5, 6, 1, 1),  # square discriminant, roots 2 and 3
        make_h_spec(5, 6, 1),
        RecurrenceSpec(2, 1, 1, 3),  # repeated root 1
        make_h_spec(1, Fraction(1, 4), 1),  # repeated root 1/2
        RecurrenceSpec(4, 4, 1, 2),  # start on the eigen-solution 2^n
        RecurrenceSpec(3, 2, -31, -30),  # a[5] = 0
        RecurrenceSpec(3, 2, -16, 0),  # a[1] = 0, the scan goes on past it
        # |beta| = 1, so every P3 comparison ties: roots 2 and 1, then
        # roots 2 and -1 with products of opposite sign
        make_h_spec(3, 2, 1),
        RecurrenceSpec(1, -2, 1, 3),
        # the same two scaled by 2**700: the ties fall on operands long
        # enough for the brackets, which overlap and defer to the exact test
        make_h_spec(3, 2, 2**700),
        RecurrenceSpec(1, -2, 2**700, 3 * 2**700),
        # near ties on long operands, violated at n = 0 by a relative
        # 2**-700 (P2: a[1] = a[0] - 1, roots 2 and 1) and 2**-80 (P3:
        # roots 2 and 1 + 2**-80); the brackets overlap for many indices
        # and only the exact test sees the violation
        RecurrenceSpec(3, 2, 2**700, 2**700 - 1),
        RecurrenceSpec(3 + Fraction(1, 2**80), 2 + Fraction(1, 2**79), 2**700, 2**700 + 1),
        # the same near ties and the start off 2^n at 2**100, on operands
        # of 100-250 bits, long enough for the brackets
        RecurrenceSpec(3, 2, 2**100, 2**100 - 1),
        RecurrenceSpec(3 + Fraction(1, 2**80), 2 + Fraction(1, 2**79), 2**100, 2**100 + 1),
        RecurrenceSpec(5, 6, 2**100, 2**101 + 1),
        # a[1] the integer nearest a[0]/phi on the Fibonacci recurrence, so
        # P2 at 0 is violated (first) or holds (second) by a relative
        # ~2**-66, within the error of the 64-bit top words that weigh
        # the brackets: only the + 1 on their upper side keeps the
        # brackets from deciding index 0 wrongly
        RecurrenceSpec(1, -1, 79362487277773912127, 49048714569395395024),
        RecurrenceSpec(1, -1, 77499692273815774608, 47897443942875771133),
        # starts on the eigen-solutions 2^n (R' = 0) and 3^n (R = 0), so
        # N = 0; then the same scaled by 2**700, where only the N != 0
        # test keeps the R = 0 start off the brackets, and a start 2**-700
        # off 2^n, whose R' cancels on the whole window
        RecurrenceSpec(5, 6, 1, 2),
        RecurrenceSpec(5, 6, 1, 3),
        RecurrenceSpec(5, 6, 2**700, 2**701),
        RecurrenceSpec(5, 6, 2**700, 3 * 2**700),
        RecurrenceSpec(5, 6, 2**700, 2**701 + 1),
        # repeated root 1/2 on long operands: d = 0, so R' = R = u
        make_h_spec(1, Fraction(1, 4), 2**700),
        # roots 0.87 and 0.23: the terms decay, so only P2 => P3 applies
        DECAYING,
    )

    def test_p2_matches_reference(self):
        _assert_matches_references((spec, self.WINDOW, 0) for spec in self.SPECS)

    def test_p3_matches_reference(self):
        # a second pass reaches carrier terms of ~2,000 bits on the two q = 13
        # DP specs, b < 0 and b > 0, and brackets on the decaying spec
        _assert_matches_references((spec, self.LONG_WINDOW, 0)
                                   for spec in (*self.SPECS[:2], self.DECAYING))

    def test_long_operands_rarely_reach_the_exact_test(self, monkeypatch):
        # exact steps at indices where bits(M[n]) >= 64, the threshold from
        # which the brackets run, at window 1000: on the three q = 13 DP
        # specs P3 leads and implies P2, and the walk stops after its first
        # certified block; on the decaying spec P2 leads.  The events show
        # 18 exact steps, all on the decaying spec and at its first 18
        # indices, where M has 7 to 60 bits (two surd signs for P2 at each,
        # on operands of at most 130 bits): the brackets built from the top
        # words of the terms decide every index where they run
        calls = []

        def counted(x, y, n):
            calls.append(max(x.bit_length(), y.bit_length()))
            return surd_sign(x, y, n)

        monkeypatch.setattr(oracle, "surd_sign", counted)
        for spec in (*self.SPECS[:3], self.DECAYING):
            calls.clear()
            w, exact = _block_events(spec, 1000, 0, ("exact",))
            assert w.p2.holds_on_window and w.p3.holds_on_window, spec
            assert [bits for _, bits in exact if bits >= 64] == [], spec
            assert all(bits < 640 for bits in calls), spec

    def test_growing_specs_run_no_exact_test(self, monkeypatch):
        # where both parts of P3's conjugate form are >= 0 and the terms
        # grow, their signs decide P3 and P2 at every index: the three
        # q = 13 DP specs, the repeated root 1, whose u part ties at every
        # index (|u[n+1]| = |u[n]|, u = -4 on 1, 3, 5, ... and u = 4 on
        # -1, -3, -5, ...), and FIB, whose M part ties at n = 0
        # (|M[1]| = |B|*|M[0]|), run no exact test at all
        calls = []

        def counted(x, y, n):
            calls.append((x, y, n))
            return surd_sign(x, y, n)

        monkeypatch.setattr(oracle, "surd_sign", counted)
        rising = (RecurrenceSpec(2, 1, 1, 3), RecurrenceSpec(2, 1, -1, -3), FIB)
        for spec in (*self.SPECS[:3], *rising):
            calls.clear()
            w = oracle.scan(spec, 1000, 0)
            assert w.p2.holds_on_window and w.p3.holds_on_window, spec
            assert len(calls) == 0, (spec, len(calls))

    def test_rational_roots_run_no_surd_test(self, monkeypatch):
        # with a square discriminant d = t**2 the residual X = u + gt*M
        # (R' where N != 0, else R) is an integer, so every exact test
        # compares weighted integers |X[n+1]| and |X[n]| and takes no surd
        # sign; P3 skips the brackets, so its ties at |beta| = 1 cost one
        # integer comparison per index, long operands or not
        calls = []

        def counted(x, y, n):
            calls.append((x, y, n))
            return surd_sign(x, y, n)

        monkeypatch.setattr(oracle, "surd_sign", counted)
        rational = [
            spec for spec in self.SPECS
            if (disc := spec.a * spec.a - 4 * spec.b) >= 0
            and isqrt(disc.numerator) ** 2 == disc.numerator
            and isqrt(disc.denominator) ** 2 == disc.denominator
        ]
        for spec in rational:
            oracle.scan(spec, self.WINDOW, 0)
        assert calls == []

    def test_carrier_terms_equal_iterated_terms(self):
        # terms_between starts the carrier at lo by fast doubling; up to
        # index 501 the reference is Fraction iteration.  The far ranges
        # 4095-4097 and 5000-5002 are checked against the plain carrier
        # walk in test_recurrence's TestCarrierJump, which walks this
        # corpus to 5002 anyway: iterating Fractions that far takes about
        # two minutes (CPython 3.11, 2 cores)
        for spec in build_corpus(777, 90):
            terms = iterate(spec, 501)
            for lo, hi in ((0, 8), (0, 2), (1, 3), (499, 501)):
                assert terms_between(spec, lo, hi) == terms[lo : hi + 1], (spec, lo)

    def test_carrier_terms_reject_bad_ranges(self):
        with pytest.raises(ValueError):
            terms_between(FIB, -1, 2)
        with pytest.raises(ValueError):
            terms_between(FIB, 3, 2)


class TestIndependentStops:
    """P2 and P3 share one walk of the carrier, but each stops at its own
    first violation: the walk goes on while either is still clean."""

    SPECS = (
        # P2 violated at 0, P3 clean on the whole window
        LUCAS,
        # P3 violated at 0, P2 clean on the whole window
        RecurrenceSpec(Fraction(-5, 3), -3, Fraction(-1, 2), 1),
        # P3 violated at 0, P2 at 1
        RecurrenceSpec(2, -6, 1, -4),
        # P3 violated at 0; P2 skips the zero terms a[2] and a[3]
        # afterwards and stays clean
        RecurrenceSpec(3, -5, Fraction(3, 2), Fraction(-5, 2)),
        # P3 violated at 0; P2 skips indices 1 and 2, then fails at 3
        RecurrenceSpec(Fraction(2, 3), -2, -1, 3),
        # P2 skips index 0 (a[0] = 0) and fails at 1, P3 clean
        RecurrenceSpec(Fraction(-1, 3), -1, 0, Fraction(1, 2)),
    )

    def test_each_scan_matches_its_reference(self):
        _assert_matches_references((spec, w, 0) for spec in self.SPECS
                                   for w in (0, 1, 2, 3, 5, 60))

    def test_the_two_scans_stop_at_different_indices(self):
        for spec in self.SPECS:
            w = oracle.scan(spec, 60, 0)
            assert w.p2.first_violation != w.p3.first_violation, spec


class TestScan:
    """scan decides every window of a report on one walk of the carrier:
    each field must equal its naive reference, with from-k windows that
    start before, across and past the end of the window, and the walk
    goes past the window only while the from-k window is still clean."""

    WINDOWS = (1, 2, 5, 60)

    def _specs(self):
        # FIB keeps every from-k window clean; the second spec first
        # descends at n = 36, past the window of 5 and before 3*60
        return [FIB, RecurrenceSpec(Fraction(7, 2), 3, 1000000, 1499990),
                *TestIndependentStops.SPECS, *build_corpus(2718, 30)]

    @staticmethod
    def _from_ks(w):
        return sorted({0, 1, 2, w - 1, w, w + 1, w + 2, 3 * w})

    def test_fields_match_references(self):
        _assert_matches_references((spec, w, k) for spec in self._specs()
                                   for w in self.WINDOWS for k in self._from_ks(w))

    def test_walk_goes_past_the_window_only_while_from_k_is_clean(self):
        # (spec, window, from_k, last index a window compares): the clean
        # from-k window [99, 120] of RISING is jumped to from 21 and
        # stepped up to index 120; the second stops at its violation at
        # 36, short of its end at 40; the third, 2**n + 2**(30 - n),
        # descends up to index 14, inside the window, so its from-k window
        # [9, 30] needs no index past 20; at window 100 TRANSIENT's one try
        # is refused, so it reads every index, and RISING steps its from-k
        # window [149, 250] after a jump; FALLING_UNIT's certified block at
        # 2 makes every later index a violation: the rest of the window,
        # and the first of a from-k window past it, 149
        for spec, w, k, last in (
            (RISING, 20, 100, 120),
            (RecurrenceSpec(Fraction(7, 2), 3, 1000000, 1499990), 10, 30, 36),
            (RecurrenceSpec(Fraction(5, 2), 1, 2**30 + 1, 2**29 + 2), 20, 10, 20),
            (TRANSIENT, 100, 0, 100),
            (RISING, 100, 150, 250),
            (FALLING_UNIT, 100, 50, 100),
            (FALLING_UNIT, 100, 150, 149),
        ):
            # the ranges each stretch decides P1 on, the jump skipping the
            # indices between the window and the from-k window
            _, decided = _block_events(spec, w, k, ("p1",))
            seen = [i for _, stretch in decided for i in stretch]
            case = (spec, w, k, seen)
            assert max(seen) == last, case
            assert sorted(i for i in seen if i <= w) == list(range(w + 1)), case
            assert [i for i in seen if i > w] == list(range(max(k - 1, w + 1), last + 1)), case

    def test_build_report_walks_the_carrier_once(self, monkeypatch):
        calls = []

        def counted_carrier(spec):
            calls.append(spec)
            return integer_carrier(spec)

        monkeypatch.setattr(oracle, "integer_carrier", counted_carrier)
        for spec, w, k in ((FIB, 300, 0), (LUCAS, 50, 500), (RecurrenceSpec(1, 1, 1, 2), 30, 3)):
            calls.clear()
            build_report(spec, w, k)
            assert len(calls) == 1, spec

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            oracle.scan(FIB, 10, -1)
        with pytest.raises(ValueError):
            oracle.scan(FIB, -1, 0)


def _near_beta_eigen(a, b, k):
    """The two starts (1, v1) with v1 a multiple of 2**-k next to beta,
    the non-dominant root: R' cancels on a long prefix of their walks."""
    beta = reference.roots(a, b).beta
    lo, hi = -(2 ** (k + 8)), 2 ** (k + 8)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (beta * 2**k - mid).sign() >= 0:
            lo = mid
        else:
            hi = mid
    return [RecurrenceSpec(a, b, 1, Fraction(x, 2**k)) for x in (lo, hi)]


class TestNearCornerExactStep:
    """Where the part signs and brackets leave an index open on an
    irrational d, scan compares |P*R'[n+1]| with |Q*R'[n]| as the product
    of the signs of P*R'[n+1] - Q*R'[n] and P*R'[n+1] + Q*R'[n].  Pinned
    against the naive scans at window 300 on report-corpus slot-0-shaped
    specs (a = 2 +- u/10**i, b = a - 1 - 10**-j, a start just below its
    successor) and on starts within 2**-k of an irrational beta
    eigen-solution."""

    WINDOW = 300
    CORNER = RecurrenceSpec(Fraction(101, 50), Fraction(1019999, 1000000), 1, Fraction(72, 73))

    @classmethod
    def corner_specs(cls):
        specs = [cls.CORNER]
        for side in (1, -1):
            for i, u, j, v0, m in ((1, 3, 4, Fraction(5, 3), 10), (2, 7, 6, 2, 200)):
                a = 2 + side * Fraction(u, 10**i)
                specs.append(RecurrenceSpec(a, a - 1 - Fraction(1, 10**j), v0, v0 * m / (m + 1)))
        return specs

    @staticmethod
    def near_eigen_specs():
        return [spec for a, b in ((1, -1), (3, 1), (Fraction(7, 3), Fraction(-5, 7)),
                                  (Fraction(-7, 3), Fraction(5, 7)))
                for k in (40, 120) for spec in _near_beta_eigen(a, b, k)]

    def test_p2_p3_match_references(self):
        _assert_matches_references((spec, self.WINDOW, 0) for spec
                                   in self.corner_specs() + self.near_eigen_specs())

    def test_the_product_step_runs(self, monkeypatch):
        # the step is the only caller of surd_sign, two calls each time;
        # on CORNER that is 10 calls, on operands of up to 941 bits
        calls = []

        def counted(x, y, n):
            calls.append((x, y, n))
            return surd_sign(x, y, n)

        monkeypatch.setattr(oracle, "surd_sign", counted)
        for spec in [self.CORNER] + self.near_eigen_specs():
            calls.clear()
            oracle.scan(spec, self.WINDOW, 0)
            assert calls and len(calls) % 2 == 0, spec


class TestNonCancellingResidual:
    """Two positive roots near 1 and a start that follows the smaller one
    for thousands of indices: u and s*M*sqrt(d) agree in sign, so R'
    cancels and the conjugate form fails, but R = u + s*M*sqrt(d) does
    not cancel, and top-word brackets of |R| decide every index where
    bits(M[n]) >= 64 (the terms shrink, so P2 leads and implies P3).
    Rational roots 1 +- 10**-5 and an irrational pair, pinned against
    the naive scans at window 300."""

    TRANSIENTS = (
        RecurrenceSpec(2, Fraction(9999999999, 10000000000), 1, Fraction(999999, 1000000)),
        RecurrenceSpec(2, Fraction(4999999999, 5000000000), 1, Fraction(999999, 1000000)),
    )

    def test_brackets_leave_two_exact_steps(self):
        # the two steps fall at indices 0 and 1, where M has under 64 bits
        for spec in self.TRANSIENTS:
            got, exact = _block_events(spec, 300, 0, ("exact",))
            assert got == reference_windows(spec, 300, 0), spec
            assert [bits < 64 for _, bits in exact] == [True, True], spec


def _split_part_signs(spec, window):
    """The signs of x3 >= 0 at the indices n <= window where P3's
    conjugate-form parts x3 = |u[n+1]| - |B|*|u[n]| and
    y3 = |M[n+1]| - |B|*|M[n]| differ in sign, computed from the carrier."""
    q, A, B, _, M = integer_carrier(spec)
    d = A * A - 4 * B * q
    s = 1 if A >= 0 else -1
    m = list(islice(M, window + 3))
    u = [A * m0 - 2 * m1 for m0, m1 in zip(m, m[1:])]
    if u[0] ** 2 == m[0] ** 2 * d:
        return set()
    # R' = u - s*M*sqrt(d) does not cancel: u and s*M differ in sign
    conj = [d == 0 or (u0 < 0) != (s * m0 < 0) or u0 == 0 or m0 == 0
            for u0, m0 in zip(u, m)]
    found = set()
    for n in range(window + 1):
        if conj[n] and conj[n + 1]:
            x3 = abs(u[n + 1]) - abs(B) * abs(u[n])
            y3 = abs(m[n + 1]) - abs(B) * abs(m[n])
            if (x3 >= 0) != (y3 >= 0):
                found.add(x3 >= 0)
    return found


coeffs_st = st.builds(lambda sign, p, q: Fraction(sign * p, q),
                      st.sampled_from((-1, 1)), st.integers(1, 12), st.integers(1, 6))
starts_st = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))

# B*q < 0, with indices where x3 >= 0 > y3 and where y3 >= 0 > x3
SPLIT_NEGATIVE_B = RecurrenceSpec(1, Fraction(-7, 4), 2, -3)
# B*q > 0, with indices where y3 >= 0 > x3
SPLIT_POSITIVE_B = RecurrenceSpec(-8, 8, 2, 0)
# first descends at n = 36, past a window of 10 and inside [29, 40]
LATE_DESCENT = RecurrenceSpec(Fraction(7, 2), 3, 1000000, 1499990)
# P3 fails at 0, where one of its parts is < 0 and the bit lengths of
# that part's terms meet bits(v[1]) = bits(v[0]) + bits(|B|), so they
# alone do not decide |v[1]| >= |B|*|v[0]|: the part on u, then on M
CERTIFICATE_EDGES = (RecurrenceSpec(-13, -15, Fraction(-1, 2), 9),
                     RecurrenceSpec(Fraction(-17, 3), 5, Fraction(7, 3), -9))


@st.composite
def scan_cases(draw):
    """(spec, window, from_k): either sign of b, starts scaled by 1 or
    2**700 (long enough for the brackets), from-k windows before, across
    and past the end of the window."""
    a, b = draw(coeffs_st), draw(coeffs_st)
    v0, v1 = draw(starts_st), draw(starts_st)
    assume(v0 or v1)
    scale = draw(st.sampled_from((1, 2**700)))
    window = draw(st.integers(0, 30))
    from_k = draw(st.integers(0, 3 * window + 10))
    return RecurrenceSpec(a, b, v0 * scale, v1 * scale), window, from_k


class TestPartSignsAndDifferenceWalk:
    """scan decides P3 on the signs of its two integer parts where both
    are >= 0, leaves split-sign indices to the brackets and the exact
    test, and walks P1 past the P2/P3 stretch on E[n] = M[n+1] - q*M[n];
    every field is held against the naive references."""

    @given(scan_cases())
    @example((SPLIT_NEGATIVE_B, 30, 0))
    @example((SPLIT_POSITIVE_B, 30, 45))
    @example((LATE_DESCENT, 10, 30))
    @example((FIB, 20, 100))
    @example((CERTIFICATE_EDGES[0], 7, 0))
    @example((CERTIFICATE_EDGES[1], 15, 0))
    @settings(max_examples=400, deadline=None)
    def test_scan_matches_references(self, case):
        assert oracle.scan(*case) == reference_windows(*case), case

    def test_examples_reach_what_they_pin(self):
        assert _split_part_signs(SPLIT_NEGATIVE_B, 30) == {True, False}
        assert _split_part_signs(SPLIT_POSITIVE_B, 30) == {False}
        assert oracle.scan(LATE_DESCENT, 10, 30).p1_from_k.first_violation == 36
        assert oracle.scan(FIB, 20, 100).p1_from_k.holds_on_window
        for spec, part in zip(CERTIFICATE_EDGES, (0, 1)):
            q, A, B, _, M = integer_carrier(spec)
            m0, m1, m2 = islice(M, 3)
            v0, v1 = ((A * m0 - 2 * m1, A * m1 - 2 * m2), (m0, m1))[part]
            assert v1.bit_length() == v0.bit_length() + abs(B).bit_length(), spec
            assert abs(v1) < abs(B) * abs(v0), spec
            assert oracle.scan(spec, 15, 0).p3.first_violation == 0, spec


# descends from index 36 on; starts scaled by 2**700 descend there too
LATE_DESCENT_LONG = RecurrenceSpec(LATE_DESCENT.a, LATE_DESCENT.b,
                                   LATE_DESCENT.v0 * 2**700, LATE_DESCENT.v1 * 2**700)
# a[n] = 1, 1, -2 with period 3: E[n] = 0 at n = 6, a zero the walk must
# read as a clean index; then the violation at 7
PERIOD_THREE = RecurrenceSpec(-1, 1, 1, 1)
# within 2**-80 of the beta = 1/2 eigen-solution (carrier roots 8 and 1):
# M[n] = c1*8**n + c2 with c1 = -2**620 and c2 = -2**700, so
# E[n] = 6*c1*8**n - c2 is clean up to 25 and descends from 26 on, where
# the alpha part overtakes
NEAR_BETA_EIGEN = RecurrenceSpec(Fraction(9, 2), 2, -2**620 - 2**700,
                                 Fraction(-8 * 2**620 - 2**700, 2))


# jumps of 0, 1 and 2 indices and of one more or less than a power of 2
jump_lengths_st = st.sampled_from((0, 1, 2)) | st.builds(
    lambda j, e: 2**j + e, st.integers(1, 7), st.sampled_from((-1, 1)))


@st.composite
def jump_cases(draw):
    """(spec, window, from_k) whose from-k window starts past the window,
    from_k - 1 = window + 1 + the length of the jump to it."""
    a, b = draw(coeffs_st), draw(coeffs_st)
    v0, v1 = draw(starts_st), draw(starts_st)
    assume(v0 or v1)
    scale = draw(st.sampled_from((1, 2**700)))
    window = draw(st.integers(0, 40))
    from_k = window + 2 + draw(jump_lengths_st)
    return RecurrenceSpec(a, b, v0 * scale, v1 * scale), window, from_k


class TestBlockWalk:
    """Past the window, the from-k P1 walk jumps the difference sequence
    E to the from-k window's first index and steps on E from there; every
    field is held against the naive references."""

    @given(jump_cases())
    # the violation at 36 on the first index stepped past the window, with
    # no jump (window 35, and window 34 at from-k 36), and after jumps of
    # 31 = 2**5 - 1, 27 and 14 indices on long starts
    @example((LATE_DESCENT, 35, 30))
    @example((LATE_DESCENT, 34, 36))
    @example((LATE_DESCENT_LONG, 3, 36))
    @example((LATE_DESCENT_LONG, 4, 33))
    @example((LATE_DESCENT_LONG, 10, 26))
    @example((PERIOD_THREE, 3, 6))
    @example((NEAR_BETA_EIGEN, 2, 24))
    @settings(max_examples=300, deadline=None)
    def test_from_k_matches_reference(self, case):
        assert oracle.scan(*case) == reference_windows(*case), case

    def test_examples_reach_what_they_pin(self):
        assert oracle.scan(LATE_DESCENT_LONG, 4, 33).p1_from_k.first_violation == 36
        assert oracle.scan(LATE_DESCENT_LONG, 10, 26).p1_from_k.first_violation == 36
        assert oracle.scan(PERIOD_THREE, 3, 6).p1_from_k.first_violation == 7
        assert oracle.scan(NEAR_BETA_EIGEN, 2, 24).p1_from_k.first_violation == 26

    def test_near_eigen_start_reaches_the_exact_sign(self):
        # the walk jumps from 3 to k1 = 23 and steps on E from there up to
        # the violation at 26
        _, events = _block_events(NEAR_BETA_EIGEN, 2, 24, ("jump", "p1"))
        assert events[-2:] == [("jump", 3, 23), ("p1", range(23, 27))]

    def test_block_steps_equal_the_stepped_difference_sequence(self, monkeypatch):
        # the pair (E[k1], E[k1+1]) the jump lands on, against
        # E[n] = M[n+1] - q*M[n] on the carrier's terms, to index 5000:
        # RISING, roots 4 and 3/2 over q = 2, a complex pair and a descent
        # at 36
        jumped = []

        def recorded(*args):
            jumped.append(jump(*args))
            return jumped[-1]

        jump = oracle._jump
        monkeypatch.setattr(oracle, "_jump", recorded)
        over_q = make_h_spec(Fraction(11, 2), 6, Fraction(3, 4))
        for spec, w, k in ((RISING, 0, 5000), (RISING, 33, 4000), (over_q, 300, 5000),
                           (RecurrenceSpec(1, 1, 1, 2), 7, 2000), (LATE_DESCENT_LONG, 3, 30)):
            jumped.clear()
            _, events = _block_events(spec, w, k, ("jump",))
            assert events == [("jump", w + 1, k - 1)], spec
            q, _, _, _, M = integer_carrier(spec)
            m = list(islice(M, k + 2))
            assert jumped == [(m[k] - q * m[k - 1], m[k + 1] - q * m[k])], spec


roots_st = st.builds(Fraction, st.integers(-12, 12).filter(bool), st.integers(1, 4))
# the dominant root -1.62 alternates the terms' signs: P3's parts decide
# every index, and the test on the mirror (-1)**n * M[n], growth by 1, is
# invariant, so the walk certifies the block at 2 and stops at 34
ALTERNATING = RecurrenceSpec(-1, -1, 1, -1)


def _mirrored(spec):
    """The spec of (-1)**n * a[n]: coefficients (-a, b), start (v0, -v1)."""
    return RecurrenceSpec(-spec.a, spec.b, spec.v0, -spec.v1)


# TRANSIENT's terms with alternating signs: its dominant root -199/200 keeps
# the test on the mirror from being invariant, so its one try is refused
TRANSIENT_MIRRORED = _mirrored(TRANSIENT)
# roots 2.61 and -0.28
TABLE = RecurrenceSpec(Fraction(7, 3), Fraction(-5, 7), Fraction(3, 4), Fraction(-2, 5))
# dominant root -2.61 and terms of alternating sign; the walk certifies
# the block at 3, where a[3] < 0
TABLE_NEGATED = RecurrenceSpec(-TABLE.a, TABLE.b, TABLE.v0, TABLE.v1)
# dominant root -2.26, a[n] = (-1)**n * DEEP's a[n], with a[2] > 0
DEEP_MIRRORED = _mirrored(DEEP)
# roots 3/4 and 1/2 and a start whose ratio 1/8 fails P2 at 0: the terms
# turn negative and |a| shrinks by about 3/4 per index, enough for P3's
# parts, which ask |a[n+1]| >= |b|*|a[n]| with |b| = 3/8, but not for
# |a[n+1]| >= |a[n]|, which the test on M asks, so its one try is refused
SHRINKING = RecurrenceSpec(Fraction(5, 4), Fraction(3, 8), 1, Fraction(1, 8))


def _ratio_tie(t, alpha=1 - Fraction(1, 2**70), beta=Fraction(1, 2)):
    """Roots alpha and beta, and a negative start whose ratio a[n+1]/a[n]
    meets 1 exactly at n = t, a[t+1] = a[t].  On the default roots the
    ratio falls toward the dominant root from above: |a| grows up to t
    and shrinks after it."""
    a, b = alpha + beta, alpha * beta
    rho = Fraction(1)
    for _ in range(t):
        rho = b / (a - rho)  # the ratio one index back
    return RecurrenceSpec(a, b, -rho.denominator, -rho.numerator)


# the tie a[4] = a[3] falls on the last index of the first try [2, 4),
# where every term is negative, and P1 holds at 3 (n0 = 3); the dominant
# root below 1 keeps the test on M from being invariant, so the invariance
# check refuses the try before the strict test counts: at (40, 4) the
# walk refuses 2, tries no more and steps on through the window
TIE_AT_BLOCK_END = _ratio_tie(3)
# roots 539/500 and -1/2: the tie a[5] = a[4] falls on the first index of
# the first try [4, 6), where every term is negative, and the test on M is
# invariant, so only its strict form refuses that block; the plain form
# would certify it and make 4 a violation
TIE_AT_BLOCK_START = _ratio_tie(4, Fraction(539, 500), Fraction(-1, 2))
# its twin with every term positive, where the plain test certifies the
# block at 4
TIE_AT_BLOCK_START_POSITIVE = RecurrenceSpec(
    TIE_AT_BLOCK_START.a, TIE_AT_BLOCK_START.b, -TIE_AT_BLOCK_START.v0, -TIE_AT_BLOCK_START.v1)
# roots 1.07 and -0.67 and a[1] = 0: |a| shrinks at every other index up to
# 6, then grows; the test on M is invariant, the try at 6 is refused, since
# |a[7]| < |a[6]|, and the one at 8, after the next two-index run, is
# certified
LATE_GROWTH = RecurrenceSpec(Fraction(2, 5), Fraction(-5, 7), Fraction(7, 3), 0)


# the indices of a certified block
BLOCK = 2


@st.composite
def deep_cases(draw):
    """(spec, window, from_k) with windows of 2*BLOCK to 200, long enough
    to hold a whole certified block of BLOCK indices, and from-k windows
    past it: coefficients of either sign (|B| > q and q > |B| alike), two
    rational roots (a square discriminant) or one repeated root (a zero
    one), starts of either sign, scaled by 1 or 2**700."""
    shape = draw(st.sampled_from(("coefficients", "rational roots", "repeated root")))
    if shape == "coefficients":
        a, b = draw(coeffs_st), draw(coeffs_st)
    else:
        r = draw(roots_st)
        t = r if shape == "repeated root" else draw(roots_st)
        a, b = r + t, r * t
        assume(a != 0)
    v0, v1 = draw(starts_st), draw(starts_st)
    assume(v0 or v1)
    scale = draw(st.sampled_from((1, 2**700)))
    window = draw(st.integers(2 * BLOCK, 200))
    from_k = draw(st.integers(window + 2, 2 * window + 2 * BLOCK))
    return RecurrenceSpec(a, b, v0 * scale, v1 * scale), window, from_k


class TestCertifiedBlocks:
    """Inside the window a real-root walk decides every index from a
    block of BLOCK indices on where one invariant growth test certifies
    that M grows; it tries a block after each two indices in a row that
    the part signs decided, and not again once the test is found not to
    be invariant.  Each pinned case reaches the path it names, and every
    field is held against the naive references."""

    @given(deep_cases())
    @example((DEEP, 100, 150))
    @example((DEEP_NEGATIVE, 100, 150))
    @example((TRANSIENT, 100, 150))
    @example((FALLING_UNIT, 100, 150))
    @example((ALTERNATING, 100, 150))
    # alternating terms: the from-k window's first index k1 past the window
    # fails P1 where a[k1] > 0 (even k1 on ALTERNATING, from 4 on
    # TABLE_NEGATED), else k1 + 1 does; and a certified block at the
    # window's last index, where a[2] > 0 and a[3] < 0 on ALTERNATING, and
    # a[3] < 0 on TABLE_NEGATED
    @example((ALTERNATING, 100, 151))
    @example((TABLE_NEGATED, 64, 66))
    @example((TABLE_NEGATED, 64, 67))
    @example((DEEP_MIRRORED, 64, 67))
    @example((ALTERNATING, 2, 4))
    @example((TABLE_NEGATED, 3, 5))
    @example((RecurrenceSpec(5, 6, 1, 2), 64, 66))  # on the eigen-solution 2^n
    @example((RecurrenceSpec(2, 1, -2**700, -3 * 2**700), 64, 66))  # repeated root 1
    @example((SHRINKING, 100, 102))
    @example((TIE_AT_BLOCK_END, 40, 4))
    @example((TIE_AT_BLOCK_START, 100, 5))
    @example((LATE_GROWTH, 100, 0))
    @settings(max_examples=150, deadline=None)
    def test_scan_matches_references(self, case):
        assert oracle.scan(*case) == reference_windows(*case), case

    def test_clean_blocks(self):
        # P1, P2 and P3 hold through the window and the terms grow by more
        # than 1 up to about index 130, but the test on M is not
        # invariant: the one try, at 2, is refused, and the walk, trying
        # no more, reads every index
        got, events = _block_events(TRANSIENT, 100, 150)
        assert events == [("refused", 2)]
        assert got.p2.holds_on_window and got.p3.holds_on_window
        assert got.n0_witness == 0 and got.p1_from_k.first_violation == 149
        assert got == reference_windows(TRANSIENT, 100, 150)
        # past the window the walk jumps to the from-k window [149, 250]
        # and steps through it
        got, events = _block_events(RISING, 100, 150, ("jump", "p1"))
        assert events[-2:] == [("jump", 101, 149), ("p1", range(149, 251))]
        assert got.p1_from_k.holds_on_window and got.n0_witness == 0
        assert got == reference_windows(RISING, 100, 150)
        # within 2**-40 of -beta**n on roots 2.62 and 0.38, E > 0 shrinks up
        # to index 14: P1 past the window is E >= 0, not growth, so the
        # from-k window [9, 12] is clean
        near = _near_beta_eigen(3, 1, 40)[0]
        case = (RecurrenceSpec(3, 1, -1, -near.v1), 2, 10)
        got, events = _block_events(*case, ("jump", "p1"))
        assert events[-2:] == [("jump", 3, 9), ("p1", range(9, 13))]
        assert got == reference_windows(*case)
        # repeated root 1, a[n] = 1 + 2*n: the u part ties at every index,
        # |u[n+1]| = |B|*|u[n]|, which the part signs take as holding, so
        # the walk reaches and certifies a block; its test (growth by 1) is
        # invariant, so that block decides the rest
        case = (RecurrenceSpec(2, 1, 1, 3), 100, 0)
        got, events = _block_events(*case)
        assert events == [("certified", 2), ("lasting", 4)]
        assert got == reference_windows(*case)

    def test_all_violation_blocks(self):
        # every term is negative and falls: the strict test, on the tie
        # P(1) = 0, is invariant, so the certified block at 2 ends the walk
        # and every index from 2 on is a violation of P1, the from-k
        # window's first at its first index
        got, events = _block_events(FALLING_UNIT, 100, 150)
        assert events == [("certified", 2), ("lasting", 4)]
        assert got.p2.holds_on_window and got.p3.holds_on_window
        assert got.n0_witness is None and got.p1_from_k.first_violation == 149
        assert got == reference_windows(FALLING_UNIT, 100, 150)

    def test_refused_blocks_fall_back(self):
        # inside the window: the first two indices decided on part signs
        # lead to a try at 2 that the test on the mirror, not invariant,
        # refuses, and the walk tries no more and steps on per index
        got, events = _block_events(TRANSIENT_MIRRORED, 100, 150)
        assert events == [("refused", 2)]
        assert got == reference_windows(TRANSIENT_MIRRORED, 100, 150)
        # past the window: E[5] > 0, and the walk jumps to k1 = 32 and
        # steps up to E's descent at 36
        got, events = _block_events(LATE_DESCENT_LONG, 4, 33, ("jump", "p1"))
        assert events[-2:] == [("jump", 5, 32), ("p1", range(32, 37))]
        assert _block_events(LATE_DESCENT_LONG, 4, 33)[1] == []
        assert got.p1_from_k.first_violation == 36

    def test_growth_by_q_decides_p1(self):
        # P3's parts hold where the terms shrink by less than |b| per
        # index, but P1 needs growth by q: the one try, at 4, is refused
        got, events = _block_events(SHRINKING, 100, 102)
        assert events == [("refused", 4)]
        assert got.p2.first_violation == 0 and got.p3.holds_on_window
        assert got == reference_windows(SHRINKING, 100, 102)
        # where the terms are negative a tie |M[n+1]| = q*|M[n]| is no
        # violation, so the test on M is strict there; the dominant root
        # below 1 keeps that test from being invariant too
        got, events = _block_events(TIE_AT_BLOCK_END, 40, 4)
        assert events == [("refused", 2)]
        assert got.n0_witness == 3
        assert got == reference_windows(TIE_AT_BLOCK_END, 40, 4)
        # on an invariant test, a tie at the try's first index: only the
        # strict test refuses the block at 4, and the one at 6, after the
        # next two-index run, decides the rest, so the from-k window's
        # first violation is 5, not 4
        got, events = _block_events(TIE_AT_BLOCK_START, 100, 5)
        assert events == [("refused", 4), ("certified", 6), ("lasting", 8)]
        assert got.p1_from_k.first_violation == 5
        assert got == reference_windows(TIE_AT_BLOCK_START, 100, 5)

    def test_tries_follow_two_part_decided_indices(self):
        # (case, events): DEEP tries at 2, after its first two indices,
        # decided on part signs, and certifies; LATE_GROWTH's try at 6 is
        # refused and the one at 8, after two more, certified, as on its
        # mirror; the test that is not invariant tries once in a window of
        # 300, on TRANSIENT and its mirror; the mirror certifies early on
        # ALTERNATING, DEEP_MIRRORED and TABLE_NEGATED, whose first two-index
        # run ends at 2, and so do the repeated root 1 and its mirror, -1
        for case, want in (
            ((DEEP, 100, 150), [("certified", 2), ("lasting", 4)]),
            ((LATE_GROWTH, 100, 0), [("refused", 6), ("certified", 8), ("lasting", 10)]),
            ((_mirrored(LATE_GROWTH), 100, 0),
             [("refused", 6), ("certified", 8), ("lasting", 10)]),
            ((TRANSIENT, 300, 0), [("refused", 2)]),
            ((TRANSIENT_MIRRORED, 300, 0), [("refused", 2)]),
            ((ALTERNATING, 100, 150), [("certified", 2), ("lasting", 4)]),
            ((DEEP_MIRRORED, 100, 150), [("certified", 2), ("lasting", 4)]),
            ((TABLE_NEGATED, 100, 150), [("certified", 3), ("lasting", 5)]),
            ((RecurrenceSpec(2, 1, 1, 3), 100, 0), [("certified", 2), ("lasting", 4)]),
            ((RecurrenceSpec(-2, 1, 1, -3), 100, 0), [("certified", 2), ("lasting", 4)]),
        ):
            got, events = _block_events(*case)
            assert events == want, case
            assert got == reference_windows(*case), case

    @given(deep_cases())
    # ties at the try's first step, a[5] = a[4]: the strict test refuses
    # the block at 4 where every term is negative, and on the twin with
    # positive terms the plain test certifies it
    @example((TIE_AT_BLOCK_START, 100, 5))
    @example((TIE_AT_BLOCK_START_POSITIVE, 100, 5))
    # the tie P(1) = 0 on the repeated root 1, strict where the terms fall
    # and plain where they rise
    @example((FALLING_UNIT, 100, 150))
    @example((RecurrenceSpec(2, 1, 1, 3), 100, 0))
    # s*A = c = 3: the second step is -P(3)*w[n] = 3*w[n] > 0 whatever the
    # ratio, and the first decides
    @example((RecurrenceSpec(3, -3, 1, 1), 60, 0))
    # a refused try and a certified one on an invariant test, one refused
    # try on a test that is not invariant, and the mirror
    @example((LATE_GROWTH, 100, 0))
    @example((TRANSIENT, 300, 0))
    @example((TRANSIENT_MIRRORED, 300, 0))
    @example((TABLE_NEGATED, 100, 150))
    @settings(max_examples=150, deadline=None)
    def test_tries_read_two_steps_of_the_walked_solution(self, case):
        # each try at n is certified exactly where the growth test is
        # invariant (the reference's image check) and the block's two
        # steps pass on the terms iterate walks: on the mirror
        # w[i] = (s*q)**i * a[i], a positive multiple of s**i * M[i], made
        # positive at n, w[i+1] - c*w[i] >= 0 at n and n + 1, > 0 where
        # the terms are negative and keep their sign; a test that is not
        # invariant is tried at most once
        spec, window, _ = case
        _, events = _block_events(*case, ("certified", "refused"))
        if not events:
            return
        q, A, B, _, _ = integer_carrier(spec)
        s, c = reference.roots(spec.a, spec.b).alpha.sign(), max(abs(B), q)
        invariant = reference.growth_invariant(s * A, B * q, c)
        assert invariant or len(events) == 1, case
        terms = iterate(spec, window + 3)
        for name, n in events:
            w = [(s * q) ** i * terms[i] for i in (n, n + 1, n + 2)]
            sign = 1 if w[0] > 0 else -1
            steps = [sign * (y - c * x) for x, y in zip(w, w[1:])]
            strict = terms[n] < 0 < s
            passes = all(e > 0 if strict else e >= 0 for e in steps)
            assert (name == "certified") == (invariant and passes), (case, n)


@st.composite
def growth_triples(draw):
    """(t, B*q, c) with c >= 1 and c*c >= |B*q| != 0, where the closed form
    claims the image check; one time in two c is a root of
    x**2 - t*x + B*q, the tie P(c) = 0, with the other root r, |r| <= c."""
    c = draw(st.integers(1, 60))
    if draw(st.booleans()):
        r = draw(st.integers(-c, c).filter(bool))
        return c + r, c * r, c
    return draw(st.integers(-130, 130)), draw(st.integers(-c * c, c * c).filter(bool)), c


class TestLastingCertificates:
    """Where the growth test is invariant, P(c) <= 0 in closed form, a
    block that passes the test decides every later index: the walk stops
    after its first certified block.  Pinned against the naive references
    around each exit, and by event traces."""

    CASES = (
        # the certificate at 2 decides [4, 300], far below the window's
        # end, and the from-k window [299, 600] with it
        (DEEP, 300, 0), (DEEP, 300, 300),
        # the certified block [2, 4) ends on the window's last index (3),
        # and longer windows, odd and even, end past it
        (DEEP, 3, 0), (DEEP, 3, 4), (DEEP_NEGATIVE, 3, 4), (DEEP_NEGATIVE, 3, 10),
        (DEEP, 33, 0), (DEEP, 33, 40), (DEEP_NEGATIVE, 33, 34), (DEEP_NEGATIVE, 33, 40),
        (DEEP, 63, 0), (DEEP, 63, 70), (DEEP_NEGATIVE, 63, 64), (DEEP_NEGATIVE, 63, 70),
        (DEEP, 77, 0), (DEEP, 95, 3), (DEEP_NEGATIVE, 95, 0),
        # M < 0: every index violates P1, those from the certified block on
        # read off it; the from-k window's first is its first index k - 1,
        # before, at and past the window's end
        (DEEP_NEGATIVE, 100, 0), (DEEP_NEGATIVE, 100, 50), (DEEP_NEGATIVE, 100, 70),
        (DEEP_NEGATIVE, 100, 101), (DEEP_NEGATIVE, 100, 102), (DEEP_NEGATIVE, 100, 150),
        # certified blocks [2, 4) that run past the window's end (2), with
        # the from-k window's first violation inside it and past it
        (DEEP, 2, 0), (DEEP_NEGATIVE, 2, 3), (DEEP_NEGATIVE, 2, 5),
        (DEEP, 10, 0), (DEEP_NEGATIVE, 10, 11), (DEEP_NEGATIVE, 10, 30),
        (DEEP, 40, 0), (DEEP_NEGATIVE, 40, 41), (DEEP_NEGATIVE, 40, 60),
        # the falling unit root, whose strict test is invariant: a wide
        # window and from-k windows past it, each decided by the block at 2
        (FALLING_UNIT, 3000, 0), (FALLING_UNIT, 100, 150), (FALLING_UNIT, 100, 5000),
        # far from-k windows, decided by the certified block
        (DEEP, 100, 2000), (DEEP_NEGATIVE, 100, 2000),
        # far from-k windows the walk jumps to
        (FIB, 20, 3000), (FIB, 0, 500), (FIB, 20, 100), (TABLE, 50, 600), (TABLE, 64, 1000),
        # tests that are not invariant: the one try is refused and the walk
        # reads each index, past the terms' growth at window 300
        (TRANSIENT, 200, 0), (TRANSIENT, 300, 0), (RISING, 100, 150),
    )
    # the dominant root negative: the test on the mirror (-1)**n * M[n]
    # certifies the block at 2 (3 on TABLE_NEGATED), and P1 fails at every
    # other index from there, where M > 0 (from 2 on ALTERNATING and
    # DEEP_MIRRORED, from 4 on TABLE_NEGATED); certified blocks inside the
    # window (10 to 100), ending on its last index (3, and 4 on
    # TABLE_NEGATED) and past its end (2, and 3 on TABLE_NEGATED), and
    # from-k windows before, at and past the window's end, the first index
    # past it of either parity, and far (TABLE_NEGATED's window of 2 ends
    # before its first try)
    ALTERNATING_CASES = tuple(
        (spec, w, k) for spec in (ALTERNATING, TABLE_NEGATED, DEEP_MIRRORED)
        for w in (2, 3, 4, 10, 33, 34, 63, 100) if (spec, w) != (TABLE_NEGATED, 2)
        for k in (w // 2, w, w + 1, w + 2, w + 3, 2000))

    def test_scan_matches_references(self):
        _assert_matches_references(self.CASES + self.ALTERNATING_CASES)

    def test_one_block_decides_the_rest(self):
        # DEEP: 2 indices on part signs, then one certified block, after
        # which the walk stops at 34; its from-k window [149, 250] is
        # clean with no walk past the window
        got, events = _block_events(DEEP, 100, 150)
        assert events == [("certified", 2), ("lasting", 4)]
        assert got.p2.holds_on_window and got.p3.holds_on_window
        assert got.p1_from_k.holds_on_window and got.n0_witness == 0
        assert got == reference_windows(DEEP, 100, 150)
        # the same at from-k 10**5: no walk past the window either
        far, events = _block_events(DEEP, 100, 10**5)
        assert events == [("certified", 2), ("lasting", 4)]
        assert far.p1_from_k == WindowReport(PropertyId.P1, (10**5 - 1, 10**5 + 100), True, None, ())
        # every term negative: the from-k window's first violation is its
        # first index, 149, with no walk past the window
        got, events = _block_events(DEEP_NEGATIVE, 100, 150)
        assert events == [("certified", 2), ("lasting", 4)]
        assert got.n0_witness is None and got.p1_from_k.first_violation == 149
        assert got == reference_windows(DEEP_NEGATIVE, 100, 150)
        # no certificate: TRANSIENT's one try is refused, so P1 jumps from
        # 21 to 99 and steps through [99, 120]
        got, events = _block_events(TRANSIENT, 20, 100, ("lasting", "jump", "p1"))
        assert events[-2:] == [("jump", 21, 99), ("p1", range(99, 121))]
        assert got == reference_windows(TRANSIENT, 20, 100)

    def test_one_block_decides_alternating_terms(self):
        for case in self.ALTERNATING_CASES:
            at = 3 if case[0] is TABLE_NEGATED else 2
            _, events = _block_events(*case)
            assert events == [("certified", at), ("lasting", at + BLOCK)], case
        # P1 read off the parity of the index, with no walk past the
        # window: a[101] < 0 < a[102] on ALTERNATING, so the from-k window
        # [101, 202] first fails at 102, and [100, 201] at 100
        got, events = _block_events(ALTERNATING, 100, 102, ("jump", "p1"))
        assert events == [("p1", range(2)), ("p1", range(2, 101)), ("p1", range(102, 103))]
        assert got.n0_witness is None
        assert got.p1_from_k.first_violation == 102
        assert oracle.scan(ALTERNATING, 100, 101).p1_from_k.first_violation == 100
        # a[3] < 0 on TABLE_NEGATED's certified block at 3, the window's
        # last index: the window holds P1 from 3 on (n0 = 3), and its
        # from-k window [3, 7] first fails one index past the window
        got = oracle.scan(TABLE_NEGATED, 3, 4)
        assert got.n0_witness == 3 and got.p1_from_k.first_violation == 4
        assert got == reference_windows(TABLE_NEGATED, 3, 4)

    def test_closed_form_decides_invariance(self):
        # P(c) = c*c - s*A*c + B*q at c = max(|B|, q), the sign scan reads
        # once per scan, against the reference's image check: DEEP is
        # invariant; FALLING_UNIT ties, P(1) = 0, c = 1 being the double
        # root of P, and is invariant; TRANSIENT is not, its dominant root
        # 199/200 being below the growth of 1
        def closed_form(spec):
            q, A, B, _, _ = integer_carrier(spec)
            s, c = (1 if A > 0 else -1), max(abs(B), q)
            return c * c - s * A * c + B * q, reference.growth_invariant(s * A, B * q, c)

        p, invariant = closed_form(DEEP)
        assert p < 0 and invariant
        assert closed_form(FALLING_UNIT) == (0, True)
        p, invariant = closed_form(TRANSIENT)
        assert p > 0 and not invariant

    @given(growth_triples())
    # P(c) = 0 on rational roots: (t, B*q) = (5, 6) at its root 3 (c*c >= 6),
    # the repeated root 1 of (2, 1), and (1, -6) at its root 3, B*q < 0
    @example((5, 6, 3))
    @example((2, 1, 1))
    @example((1, -6, 3))
    @settings(max_examples=300, deadline=None)
    def test_closed_form_equals_the_image_check(self, triple):
        # c*c - t*c + B*q <= 0 is the reference's image check wherever
        # c*c >= |B*q|, the condition scan's c = max(|B|, q) meets
        t, Bq, c = triple
        assert (c * c - t * c + Bq <= 0) == reference.growth_invariant(t, Bq, c), triple

    @given(coeffs_st, coeffs_st)
    @example(Fraction(28, 13), Fraction(-3, 13))  # DEEP
    @example(2, 1)  # repeated root 1
    @example(Fraction(5, 2), Fraction(3, 2))  # roots 3/2 and 1
    @example(Fraction(-5, 2), Fraction(3, 2))  # roots -3/2 and -1
    @example(Fraction(3, 2), Fraction(-1))  # roots 2 and -1/2
    @example(Fraction(1, 2), Fraction(-1, 2))  # roots 1 and -1/2
    @settings(max_examples=300, deadline=None)
    def test_closed_form_reads_the_roots(self, a, b):
        # on real roots, with s the dominant root's sign, the test is
        # invariant exactly where |beta| <= 1 <= |alpha|
        r = reference.roots(a, b)
        assume(r.discriminant_sign >= 0)
        q, A, B, _, _ = integer_carrier(RecurrenceSpec(a, b, 1, 0))
        s, c = r.alpha.sign(), max(abs(B), q)
        want = (abs(r.beta) - 1).sign() <= 0 <= (abs(r.alpha) - 1).sign()
        assert (c * c - s * A * c + B * q <= 0) == want, (a, b)


# the jump lengths every jump test covers: 0 to 64, and 2**j and 2**j +- 1
# up to 5000
JUMP_LENGTHS = sorted({*range(65), *(2**j + e for j in range(6, 13) for e in (-1, 0, 1))})


class TestDifferenceJump:
    """oracle._jump, the P1 walk's own square-and-multiply modulo the
    carrier's characteristic polynomial, held against the stepped
    difference sequence and against E built from the decisions' Lucas
    doubling (recurrence._carrier_jump); and far from-k windows, which
    the walk reaches by one jump, against the naive references."""

    SPECS = (
        RISING,  # real roots 3 and 2
        make_h_spec(Fraction(11, 2), 6, Fraction(3, 4)),  # roots 4 and 3/2 over q = 2
        make_h_spec(3, Fraction(9, 4), Fraction(-2, 3)),  # repeated root 3/2
        RecurrenceSpec(2, 1, 1, 3),  # repeated root 1
        RecurrenceSpec(1, 1, 1, 2),  # complex pair of modulus 1
        RecurrenceSpec(Fraction(1, 2), Fraction(1, 3), 1, 1),  # complex pair, shrinking
        ALTERNATING,  # dominant root -1.62
        TABLE_NEGATED,  # dominant root -2.61
    )

    def test_jump_equals_stepped_and_doubled_pairs(self):
        n = 5
        for spec in self.SPECS:
            q, A, B, _, M = integer_carrier(spec)
            m = list(islice(M, n + JUMP_LENGTHS[-1] + 3))
            e = [y - q * x for x, y in zip(m, m[1:])]
            for s in JUMP_LENGTHS:
                got = oracle._jump(A, B * q, e[n], e[n + 1], s)
                assert got == (e[n + s], e[n + s + 1]), (spec, s)
                m0, m1 = _carrier_jump(A, B * q, m[0], m[1], n + s)
                m2 = A * m1 - B * q * m0
                assert got == (m1 - q * m0, m2 - q * m1), (spec, s)

    # far from-k windows with no certificate before them, so the walk
    # jumps: the near-unit corner; the table spec negated and ALTERNATING,
    # whose from-k window's second or first index violates, at window 1,
    # where the walk reads two indices, too few for a try; and a clean
    # from-k window of 1001 indices on RISING
    FAR_CASES = (
        (TestNearCornerExactStep.CORNER, 20, 2000),
        (TABLE_NEGATED, 1, 2000),
        (ALTERNATING, 1, 3001),
        (RISING, 1000, 2000),
    )

    def test_far_from_k_windows_match_references(self):
        _assert_matches_references(self.FAR_CASES)
        for case in self.FAR_CASES:
            _, events = _block_events(*case, ("jump",))
            assert events == [("jump", case[1] + 1, case[2] - 1)], case


@st.composite
def p1_read_cases(draw):
    """(spec, lo, hi): a spec of coeffs_st (real, complex and
    negative-dominant roots among them), a repeated root, or a start on
    either eigen-solution of two rational roots, with its start scaled by
    1 or 2**700; and a range [lo, hi] drawn against a window of up to 40
    indices: from 0, one index, inside the window, straddling its end, or
    far past it."""
    kind = draw(st.sampled_from(("any", "repeated", "eigen")))
    v0, v1 = draw(starts_st), draw(starts_st)
    if kind == "any":
        a, b = draw(coeffs_st), draw(coeffs_st)
    else:
        r = draw(roots_st)
        t = r if kind == "repeated" else draw(roots_st)
        assume(r + t)
        a, b = r + t, r * t
        if kind == "eigen":
            v0 = v0 or 1
            v1 = v0 * draw(st.sampled_from((r, t)))
    assume(v0 or v1)
    scale = draw(st.sampled_from((1, 2**700)))
    window = draw(st.integers(0, 40))
    place = draw(st.sampled_from(("from_0", "one", "inside", "straddling", "far")))
    if place == "from_0":
        lo, hi = 0, draw(st.integers(0, window))
    elif place == "one":
        lo = hi = draw(st.integers(0, 2 * window + 10))
    elif place == "inside":
        lo = draw(st.integers(0, window))
        hi = draw(st.integers(lo, window))
    elif place == "straddling":
        lo = draw(st.integers(0, window))
        hi = draw(st.integers(window + 1, 2 * window + 2))
    else:
        lo = window + 2 + draw(jump_lengths_st)
        hi = lo + draw(st.integers(0, 20))
    return RecurrenceSpec(a, b, v0 * scale, v1 * scale), lo, hi


class TestFirstP1Violation:
    """oracle.first_p1_violation, P1 alone from index 0 with no window of
    its own: the first violation in [lo, hi], held against the naive
    reference and against scan's from-k window on the same range."""

    @given(p1_read_cases())
    @example((LATE_DESCENT_LONG, 30, 40))
    @example((PERIOD_THREE, 6, 7))
    @example((NEAR_BETA_EIGEN, 23, 30))
    @example((ALTERNATING, 3000, 3000))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, case):
        spec, lo, hi = case
        first = oracle.first_p1_violation(spec, lo, hi)
        assert first == reference.ref_p1(spec, lo + 1, hi)[1], case
        if hi > lo:
            # scan's from-k window at k = lo + 1 and window hi - lo - 1 is [lo, hi]
            assert first == oracle.scan(spec, hi - lo - 1, lo + 1).p1_from_k.first_violation, case

    def test_jumps_from_zero_and_steps_to_the_first_violation(self):
        # NEAR_BETA_EIGEN descends from 26 on, LATE_DESCENT_LONG from 36;
        # the empty in-window stretch of window -1 is left out
        for spec, lo, hi, first, events in (
            (NEAR_BETA_EIGEN, 23, 30, 26, [("jump", 0, 23), ("p1", range(23, 27))]),
            (LATE_DESCENT_LONG, 30, 33, None, [("jump", 0, 30), ("p1", range(30, 34))]),
            (LATE_DESCENT_LONG, 0, 40, 36, [("p1", range(37))]),
        ):
            with oracle_events() as seen:
                assert oracle.first_p1_violation(spec, lo, hi) == first
            assert [e for e in seen if e[0] != "p1" or e[1]] == events

    def test_rejects_bad_ranges(self):
        for lo, hi in ((-1, 3), (4, 3), (-2, -1)):
            with pytest.raises(ValueError):
                oracle.first_p1_violation(FIB, lo, hi)


def _broken_carrier(at):
    """integer_carrier with the recurrence broken once: M[at] is off by 1,
    at >= 2, and the terms go on from there."""

    def carrier(spec):
        q, A, B, D, M = integer_carrier(spec)

        def terms():
            m0, m1 = next(M), next(M)
            for n in count(2):
                yield m0
                m0, m1 = m1, A * m1 - B * q * m0 + (n == at)

        return q, A, B, D, terms()

    return carrier


# DEEP on starts of 700 bits and more, so that a term one off at the
# certified block leaves its growth test as it is
DEEP_LONG = make_h_spec(DEEP.a, DEEP.b, DEEP.v0 * 2**700)


class TestCasoratianNorm:
    """For real roots the walk computes the norm N[n] = u[n]**2 - M[n]**2*d
    directly at n = 0 only and carries it by N[n+1] = B*q*N[n]; for a
    complex pair it computes N[n] = |R[n]|**2 directly at every index."""

    def test_carried_norm_equals_direct_norm(self):
        # the identity the real-root walk relies on, checked on norms
        # computed directly from the carrier's terms
        specs = [FIB, LUCAS, *build_corpus(777, 90)]
        cases = set()
        for spec in specs:
            q, A, B, _, M = integer_carrier(spec)
            d = A * A - 4 * B * q
            if B * q < 0:
                cases.add("B*q < 0")
            if d == 0:
                cases.add("d = 0")
            if abs(B * q) == 1:
                cases.add("|B*q| = 1")
            terms = list(islice(M, 303))
            norms = [(A * m0 - 2 * m1) ** 2 - m0 * m0 * d
                     for m0, m1 in zip(terms, terms[1:])]
            for n in range(301):
                assert norms[n + 1] == B * q * norms[n], (spec, n)
        assert cases == {"B*q < 0", "d = 0", "|B*q| = 1"}

    def test_complex_p3_reads_the_carrier(self, monkeypatch):
        # b = 1: |beta| = 1 and every P3 comparison is a tie, until the
        # broken step makes M[12] one too large and N[11] exceed N[10]
        monkeypatch.setattr(oracle, "integer_carrier", _broken_carrier(12))
        assert oracle.scan(RecurrenceSpec(1, 1, 1, 2), 50, 0).p3.first_violation == 10

    def test_self_check_raises_on_a_broken_recurrence(self, monkeypatch):
        # FIB's walk reads M[0] to M[4] and certifies the block at 2 from
        # (M[2], M[3]); M[3] one too large puts that pair off the solution
        # the norm N[0] was read on
        monkeypatch.setattr(oracle, "integer_carrier", _broken_carrier(3))
        with pytest.raises(InternalInconsistency, match="self-check"):
            oracle.scan(FIB, 50, 0)

    def test_self_check_guards_the_block_advanced_pair(self, monkeypatch):
        # M[4] one too large, read by the try at 2 and advanced with M[3]
        # to (M[4], M[5]): on terms of hundreds of bits the block is still
        # certified, and the norm at the walk's end shows the pair off the
        # solution N[0] was read on
        assert _block_events(DEEP_LONG, 100, 0)[1] == [("certified", 2), ("lasting", 4)]
        monkeypatch.setattr(oracle, "integer_carrier", _broken_carrier(4))
        with oracle_events() as events, pytest.raises(InternalInconsistency, match="self-check"):
            oracle.scan(DEEP_LONG, 100, 0)
        assert ("certified", 2) in events

    def test_self_check_reaches_the_cli_as_exit_one(self, monkeypatch, capsys):
        monkeypatch.setattr(oracle, "integer_carrier", _broken_carrier(3))
        code = cli.main(["analyze", "--a", "1", "--b", "-1", "--h-init", "1",
                         "--window", "50"])
        out, err = capsys.readouterr()
        message, reproducer = err.splitlines()
        assert code == 1 and out == ""
        assert "self-check" in message
        assert reproducer == (
            "recmono analyze --a=1 --b=-1 --h-init=1 --window=50 --from-k=0"
        )
