"""Brute-force window scanner: pinned windows, reference equivalence,
the telescoping residual identity, and the Casoratian norm the residual
walk carries for real roots and computes for a complex pair.

The production scanner runs on a rescaled integer carrier; the
reference implementations here redo every comparison naively on
Fractions and field elements.  Equality of the two on a random corpus
is the main correctness argument for the rescaling.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, islice

import pytest

from recmono import cli, oracle
from recmono import (
    InternalInconsistency,
    PropertyId,
    RecurrenceSpec,
    iterate,
    make_h_spec,
    term_minus_one,
    terms_between,
)
from recmono.recurrence import integer_carrier
from recmono.report import build_report

from conftest import build_corpus

FIB = make_h_spec(1, -1, 1)
LUCAS = RecurrenceSpec(1, -1, 2, 1)
SPREAD_H = make_h_spec(1, -3, 1)


# ----------------------------------------------------------------------
# naive references: every comparison done directly on exact values
# ----------------------------------------------------------------------

def ref_p1(spec, k, n_max):
    """(holds, first_violation) for a[n] <= a[n+1] on n in [k-1, n_max]."""
    terms = iterate(spec, n_max + 1)
    pairs = []
    if k == 0:
        pairs.append((-1, term_minus_one(spec), terms[0]))
        lo = 0
    else:
        lo = k - 1
    pairs.extend((n, terms[n], terms[n + 1]) for n in range(lo, n_max + 1))
    for n, x, y in pairs:
        if x > y:
            return False, n
    return True, None


def ref_p2(spec, n_max):
    """(holds, first_violation, skipped) for the ratio-distance scan."""
    terms = iterate(spec, n_max + 2)
    alpha = spec.roots().alpha
    skipped = []
    for n in range(n_max + 1):
        if terms[n] == 0 or terms[n + 1] == 0:
            skipped.append(n)
            continue
        res_n = alpha * terms[n] - terms[n + 1]
        res_n1 = alpha * terms[n + 1] - terms[n + 2]
        lhs = res_n * res_n * (terms[n + 1] ** 2)
        rhs = res_n1 * res_n1 * (terms[n] ** 2)
        if (lhs - rhs).sign() < 0:
            return False, n, tuple(skipped)
    return True, None, tuple(skipped)


def ref_p3(spec, n_max):
    """(holds, first_violation) for the weighted-residual scan."""
    roots = spec.roots()
    if roots.discriminant_sign >= 0:
        terms = iterate(spec, n_max + 2)
        alpha = roots.alpha
        res = [alpha * terms[n] - terms[n + 1] for n in range(n_max + 2)]
        for n in range(n_max + 1):
            if (res[n] * res[n] - res[n + 1] * res[n + 1]).sign() < 0:
                return False, n
        return True, None
    m = spec.v1**2 - spec.a * spec.v0 * spec.v1 + spec.b * spec.v0**2
    values = [m * spec.b**n for n in range(n_max + 2)]
    for n in range(n_max + 1):
        if values[n] < values[n + 1]:
            return False, n
    return True, None


def ref_n0(spec, n_cap):
    terms = iterate(spec, n_cap + 1)
    n0 = 0
    for n in range(n_cap + 1):
        if terms[n] > terms[n + 1]:
            n0 = n + 1
    return n0 if n0 <= n_cap else None


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
            alpha, beta = spec.roots().alpha, spec.roots().beta
            terms = iterate(spec, 31)
            res = [alpha * terms[n] - terms[n + 1] for n in range(31)]
            for n in range(30):
                assert res[n + 1] == beta * res[n], (spec, n)


class TestReferenceEquivalence:
    """The rescaled integer scanner must equal the naive scanner exactly."""

    WINDOW = 40

    def _specs(self):
        edge = [
            FIB,
            LUCAS,
            SPREAD_H,
            make_h_spec(1, Fraction(1, 4), 1),
            RecurrenceSpec(Fraction(5, 2), 1, 1, 0),
            RecurrenceSpec(Fraction(1, 10), Fraction(-21, 5), 1, 3),
            RecurrenceSpec(3, 2, -31, -30),  # hits an exceptional zero
            RecurrenceSpec(-1, -6, 1, 1),  # negative dominant direction
            RecurrenceSpec(2, 1, 1, 1),  # repeated unit root
            RecurrenceSpec(4, 4, 1, 2),  # start on an eigen-solution
            RecurrenceSpec(1, 1, 1, 1),  # complex rotation through zero
        ]
        return edge + build_corpus(777, 90)

    def test_p1_matches_reference(self):
        for spec in self._specs():
            for k in (0, 2):
                rep = oracle.scan(spec, self.WINDOW - k, k).p1_from_k
                holds, first = ref_p1(spec, k, self.WINDOW)
                assert (rep.holds_on_window, rep.first_violation) == (
                    holds,
                    first,
                ), (spec, k)

    def test_p2_matches_reference(self):
        for spec in self._specs():
            if spec.roots().discriminant_sign < 0:
                continue
            rep = oracle.scan(spec, self.WINDOW, 0).p2
            holds, first, skipped = ref_p2(spec, self.WINDOW)
            assert (
                rep.holds_on_window,
                rep.first_violation,
                rep.skipped_indices,
            ) == (holds, first, skipped), spec

    def test_p3_matches_reference(self):
        for spec in self._specs():
            rep = oracle.scan(spec, self.WINDOW, 0).p3
            holds, first = ref_p3(spec, self.WINDOW)
            assert (rep.holds_on_window, rep.first_violation) == (
                holds,
                first,
            ), spec

    def test_n0_matches_reference(self):
        for spec in self._specs():
            assert oracle.scan(spec, 60, 0).n0_witness == ref_n0(spec, 60), spec


class TestDegreeReducedScans:
    """P2 and P3 compare |R[n]*M[n+1]| with |R[n+1]*M[n]| and q*|R[n]|
    with |R[n+1]|, deciding each index on 64-bit brackets of the moduli
    and falling back to the exact test when the brackets overlap; pinned
    here against the naive scans over a long window, on specs that run
    the whole window, reach both the equal-sign and the opposite-sign
    case, tie at every index, or carry operands of ~2,000 bits."""

    WINDOW = 150
    LONG_WINDOW = 400

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
    )

    def _cases(self):
        # a second pass on the two q = 13 DP specs with b < 0 and b > 0
        # reaches carrier terms of ~2,000 bits
        return [(spec, self.WINDOW) for spec in self.SPECS] + [
            (spec, self.LONG_WINDOW) for spec in self.SPECS[:2]
        ]

    def test_p2_matches_reference(self):
        for spec, window in self._cases():
            rep = oracle.scan(spec, window, 0).p2
            assert (
                rep.holds_on_window,
                rep.first_violation,
                rep.skipped_indices,
            ) == ref_p2(spec, window), (spec, window)

    def test_p3_matches_reference(self):
        for spec, window in self._cases():
            rep = oracle.scan(spec, window, 0).p3
            assert (rep.holds_on_window, rep.first_violation) == ref_p3(
                spec, window
            ), (spec, window)

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
        for spec in self.SPECS:
            for window in (0, 1, 2, 3, 5, 60):
                w = oracle.scan(spec, window, 0)
                p2, p3 = w.p2, w.p3
                assert p2.checked_range == p3.checked_range == (0, window)
                assert (
                    p2.holds_on_window,
                    p2.first_violation,
                    p2.skipped_indices,
                ) == ref_p2(spec, window), (spec, window)
                assert (p3.holds_on_window, p3.first_violation) == ref_p3(
                    spec, window
                ), (spec, window)

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
        for spec in self._specs():
            real = spec.roots().discriminant_sign >= 0
            for w in self.WINDOWS:
                immediate = ref_p1(spec, 0, w)
                p2 = ref_p2(spec, w) if real else None
                p3, n0 = ref_p3(spec, w), ref_n0(spec, w)
                for k in self._from_ks(w):
                    got = oracle.scan(spec, w, k)
                    case = (spec, w, k)
                    assert got.p1_immediate.checked_range == (-1, w), case
                    assert (got.p1_immediate.holds_on_window,
                            got.p1_immediate.first_violation) == immediate, case
                    assert got.p1_from_k.checked_range == (k - 1, k + w), case
                    assert (got.p1_from_k.holds_on_window,
                            got.p1_from_k.first_violation) == ref_p1(spec, k, k + w), case
                    if real:
                        assert (got.p2.holds_on_window, got.p2.first_violation,
                                got.p2.skipped_indices) == p2, case
                    else:
                        assert got.p2 is None, case
                    assert (got.p3.holds_on_window, got.p3.first_violation) == p3, case
                    assert got.n0_witness == n0, case

    def test_walk_goes_past_the_window_only_while_from_k_is_clean(self, monkeypatch):
        read = [0]

        def counted_carrier(spec):
            q, A, B, D, M = integer_carrier(spec)

            def terms():
                for m in M:
                    read[0] += 1
                    yield m

            return q, A, B, D, terms()

        monkeypatch.setattr(oracle, "integer_carrier", counted_carrier)
        # (spec, window, from_k, last term a window compares): the clean
        # from-k window [99, 120] of FIB compares up to M[121]; the
        # other stops at its violation at 36, comparing M[37]
        for spec, w, k, last in (
            (FIB, 20, 100, 121),
            (RecurrenceSpec(Fraction(7, 2), 3, 1000000, 1499990), 10, 30, 37),
        ):
            read[0] = 0
            oracle.scan(spec, w, k)
            assert last < read[0] <= last + 3, (spec, read[0])

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


def _broken_carrier(spec):
    """The spec's integer carrier with the recurrence broken once: the
    term after M[11] is off by 1, and the walk goes on from there."""
    q, A, B, D, M = integer_carrier(spec)

    def terms():
        m0, m1 = next(M), next(M)
        for n in count():
            yield m0
            m0, m1 = m1, A * m1 - B * q * m0 + (n == 10)

    return q, A, B, D, terms()


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
        monkeypatch.setattr(oracle, "integer_carrier", _broken_carrier)
        assert oracle.scan(RecurrenceSpec(1, 1, 1, 2), 50, 0).p3.first_violation == 10

    def test_self_check_raises_on_a_broken_recurrence(self, monkeypatch):
        monkeypatch.setattr(oracle, "integer_carrier", _broken_carrier)
        with pytest.raises(InternalInconsistency, match="self-check"):
            oracle.scan(FIB, 50, 0)

    def test_self_check_reaches_the_cli_as_exit_one(self, monkeypatch, capsys):
        monkeypatch.setattr(oracle, "integer_carrier", _broken_carrier)
        code = cli.main(["analyze", "--a", "1", "--b", "-1", "--h-init", "1",
                         "--window", "50"])
        out, err = capsys.readouterr()
        message, reproducer = err.splitlines()
        assert code == 1 and out == ""
        assert "self-check" in message
        assert reproducer == (
            "recmono analyze --a=1 --b=-1 --h-init=1 --window=50 --from-k=0"
        )
