"""Decision procedures: pinned verdicts on the worked families, then
randomized decision-vs-oracle agreement on seeded corpora.

The corpora exclude starting pairs that sit exactly on an
eigen-solution; see conftest for why.  TestGeometricStarts checks P1 and
P3 on such starts.  A failing verdict names the index by which its
clause forces a violation (violation_by); the pinned cases check it.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from recmono import decisions, report
from recmono import (
    Branch,
    RecurrenceSpec,
    eventually_nondecreasing,
    eventually_ratio_monotone,
    hartman_aurel_sufficient,
    iterate,
    make_h_spec,
    nondecreasing_from,
    positive_monotone_h,
    ratio_monotone_h,
    term_minus_one,
    weighted_monotone,
)

import reference
from conftest import (
    build_corpus,
    build_h_corpus,
    check_all_agreements,
)

FIB = make_h_spec(1, -1, 1)
LUCAS = RecurrenceSpec(1, -1, 2, 1)
HALVING = make_h_spec(1, Fraction(1, 4), 1)  # terms (n+1) * 2^-n
SPREAD = make_h_spec(1, -3, 1)  # wide real roots, expanding ratios


class TestEventuallyNondecreasing:
    def test_lucas_holds_by_growth(self):
        v = eventually_nondecreasing(LUCAS)
        assert v.holds and v.branch is Branch.COND_MONOTONIC_1
        assert v.violation_by is None

    def test_halving_fails_growth_product(self):
        v = eventually_nondecreasing(RecurrenceSpec(1, Fraction(1, 4), 1, 1))
        assert not v.holds and v.branch is Branch.FAIL_GROWTH_PRODUCT

    def test_unit_root_constant_holds(self):
        v = eventually_nondecreasing(RecurrenceSpec(2, 1, 1, 1))
        assert v.holds and v.branch is Branch.COND_ALPHA_ONE

    def test_unit_root_unordered_start_fails(self):
        v = eventually_nondecreasing(RecurrenceSpec(2, 1, 3, 1))
        assert not v.holds and v.branch is Branch.FAIL_INITIAL_TRIPLE
        assert v.violation_by is None  # no window reads the eventual triple

    def test_complex_fails(self):
        v = eventually_nondecreasing(RecurrenceSpec(1, 1, 1, 1))
        assert not v.holds and v.branch is Branch.DISCRIMINANT_NEGATIVE

    def test_negative_dominant_root_fails(self):
        # roots are -1 and -2: alpha_plus = -1 < 0
        v = eventually_nondecreasing(RecurrenceSpec(-3, 2, 1, 1))
        assert not v.holds and v.branch is Branch.FAIL_ALPHA_PLUS_NOT_POSITIVE

    def test_negative_coefficient_fails(self):
        # roots 2 and -3: alpha_plus > 0 but a < 0, oscillation dominates
        v = eventually_nondecreasing(RecurrenceSpec(-1, -6, 1, 1))
        assert not v.holds and v.branch is Branch.FAIL_A_NOT_POSITIVE


class TestNondecreasingFrom:
    def test_fibonacci_from_zero_holds(self):
        assert nondecreasing_from(FIB, 0).holds

    def test_lucas_from_zero_fails_triple(self):
        v = nondecreasing_from(LUCAS, 0)
        assert not v.holds and v.branch is Branch.FAIL_INITIAL_TRIPLE
        assert v.violation_by == 0

    def test_lucas_from_one_still_sees_descent(self):
        # the index-1 triple is (2, 1, 3), so the descent is still inside it
        v = nondecreasing_from(LUCAS, 1)
        assert not v.holds and v.branch is Branch.FAIL_INITIAL_TRIPLE
        assert v.violation_by == 1

    def test_lucas_from_two_holds(self):
        v = nondecreasing_from(LUCAS, 2)
        assert v.holds and v.violation_by is None

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            nondecreasing_from(FIB, -1)

    def test_far_triple_fails_exactly_when_unordered(self):
        # the from-k triple is compared on the integer carrier started at
        # k-1; the reference is the triple of iterated Fractions.  At k = 1
        # the Fibonacci triple is 1, 1, 2 and that of tie_right is 1, 2, 2:
        # ties the comparisons must admit
        ks = (1, 2, 63, 64, 65, 1000)
        tie_right = RecurrenceSpec(Fraction(15, 2), 13, 1, 2)
        assert nondecreasing_from(FIB, 1).holds
        for spec in (FIB, tie_right, *build_corpus(3141, 45)):
            if spec.roots().discriminant_sign < 0:
                continue
            terms = iterate(spec, max(ks) + 1)
            for k in ks:
                lo, mid, hi = terms[k - 1 : k + 2]
                failed = nondecreasing_from(spec, k).branch is Branch.FAIL_INITIAL_TRIPLE
                assert failed == (not lo <= mid <= hi), (spec, k)

    def test_holding_from_k_implies_eventual(self):
        for spec in build_corpus(2718, 60):
            for k in (0, 2):
                if nondecreasing_from(spec, k).holds:
                    assert eventually_nondecreasing(spec).holds, (spec, k)


small_st = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9))
wide_st = st.builds(Fraction, st.integers(-20, 20).filter(bool), st.integers(1, 20))
roots_st = st.builds(Fraction, st.integers(-40, 40).filter(bool), st.integers(1, 12))


@st.composite
def p1_specs(draw):
    """Real-root specs in the shapes P1's tail is decided on: the sweep's
    coefficients, the corpus's, the report-deep pool's (q = 13, h-type),
    the near-unit corner's, and two rational roots, possibly close or
    repeated, beta < 0 where b < 0; with starts drawn freely, h-type, on
    either eigen-solution or near the second root's (a dominant
    coefficient that is tiny against the other), scaled by 1 or 2**700."""
    shape = draw(st.sampled_from(("sweep", "corpus", "deep", "corner", "roots", "repeated")))
    roots = ()
    if shape == "sweep":
        a, b = draw(small_st), draw(small_st)
    elif shape == "corpus":
        a, b = draw(wide_st), draw(wide_st)
    elif shape == "deep":
        a = Fraction(draw(st.integers(27, 29)), 13)
        b = Fraction(draw(st.sampled_from((-1, 1))) * draw(st.integers(1, 6)), 13)
    elif shape == "corner":
        a = 2 + draw(st.sampled_from((-1, 1))) * Fraction(draw(st.integers(1, 9)), 10)
        b = a - 1 - Fraction(1, 10 ** draw(st.integers(2, 4)))
    else:
        r = draw(roots_st)
        t = r if shape == "repeated" else draw(roots_st)
        a, b, roots = r + t, r * t, (r, t)
    assume(a and a * a >= 4 * b)
    start = draw(st.sampled_from(("free", "h", "eigen", "near") if roots else ("free", "h")))
    v0 = draw(small_st)
    if start == "free":
        v1 = draw(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)))
    elif start == "h":
        v1 = a * v0
    else:
        root = draw(st.sampled_from(roots))
        v1 = v0 * root
        if start == "near":
            v1 += v0 * Fraction(draw(st.sampled_from((-1, 1))), 2 ** draw(st.integers(1, 60)))
    scale = draw(st.sampled_from((1, 2**700)))
    return RecurrenceSpec(a, b, v0 * scale, v1 * scale, h_type=start == "h")


@st.composite
def late_tail_specs(draw):
    """Specs whose terms fall before they rise for good: the near-unit
    corner of report-corpus, with a start just below its successor, and
    two rational roots r > |t|, r != 1, with a start near t's
    eigen-solution whose dominant coefficient has sign(r - 1), so the
    eventual verdict holds on COND_MONOTONIC_1."""
    if draw(st.booleans()):
        a = 2 + draw(st.sampled_from((-1, 1))) * Fraction(draw(st.integers(1, 9)), 10)
        b = a - 1 - Fraction(1, 10 ** draw(st.integers(2, 4)))
        v0, m = draw(small_st.filter(lambda v: v > 0)), draw(st.integers(10, 200))
        return RecurrenceSpec(a, b, v0, v0 * m / (m + 1))
    t = draw(roots_st)
    r = abs(t) + draw(st.builds(Fraction, st.integers(1, 40), st.integers(1, 12)))
    assume(r != 1)
    v0 = draw(small_st)
    up = (1 if r > 1 else -1) * (1 if v0 > 0 else -1)
    v1 = v0 * t + up * Fraction(abs(v0), 2 ** draw(st.integers(1, 60)))
    return RecurrenceSpec(r + t, r * t, v0, v1)


# (spec, n0): the far n0 cases of test_cli, each past its report's window
FAR_N0 = (
    (RecurrenceSpec(2, Fraction(999999, 1000000), 11, Fraction(10991, 1000)), 1152),
    (RecurrenceSpec(Fraction(199, 100), Fraction(98999, 100000), Fraction(3, 4),
                    Fraction(113, 152)), 336),
    (RecurrenceSpec(Fraction(1, 3), Fraction(-3, 4), 4, -2), 15),
    (RecurrenceSpec(2, Fraction(9999999999, 10000000000), 1, Fraction(999999, 1000000)), 10034),
)
# roots 1 +- 10**-7 and n0 near 10**6: the bound is 10000001
FAR_PAST_THE_LIMIT = RecurrenceSpec(2, 1 - Fraction(1, 10**14), 1, 1 - Fraction(1, 10**8))
# roots 10 and 1/2 and a start 2**-40 off the eigen-solution 2**-n: a
# dominant coefficient 2**40 times smaller than the other, so the terms
# fall up to n0 = 11, and rho = 20 is far from 1
NEAR_SECOND_ROOT = RecurrenceSpec(Fraction(21, 2), 5, 1, Fraction(1, 2) + Fraction(1, 2**40))


@contextmanager
def _triple_only():
    """A context in which nondecreasing_from reads every from-k triple."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decisions, "_dominance_index", lambda spec: None)
        yield


class TestDominanceIndex:
    """decisions._dominance_index: an index from which a[n] < a[n+1], proven
    where the dominant term overtakes the other, and the from-k triple it
    spares."""

    @given(p1_specs())
    @example(NEAR_SECOND_ROOT)
    @example(make_h_spec(1, -1, -1))  # C1 < 0: no bound
    @example(RecurrenceSpec(Fraction(-5, 2), 1, 1, 1))  # roots -2 and -1/2: rho < 1
    @settings(max_examples=300, deadline=None)
    def test_clean_from_the_bound_on_naive_terms(self, spec):
        # a[m] <= a[m+1] on [n, n + 64] on Fractions walked from a[0], a[1]
        n = decisions._dominance_index(spec)
        if n is None or n > 3000:
            return
        terms = iterate(spec, n + 65)
        assert all(x <= y for x, y in zip(terms[n:], terms[n + 1:])), (spec, n)

    def test_far_n0_bounds(self):
        assert decisions._dominance_index(FAR_PAST_THE_LIMIT) == 10000001
        assert decisions._dominance_index(NEAR_SECOND_ROOT) >= 11
        # C1 < 0, rho < 1 and complex roots prove nothing, nor does the
        # repeated root 1, where the differences' linear factor is constant
        for spec in (make_h_spec(1, -1, -1), RecurrenceSpec(Fraction(-5, 2), 1, 1, 1),
                     RecurrenceSpec(1, 1, 1, 1), RecurrenceSpec(2, 1, 1, 3)):
            assert decisions._dominance_index(spec) is None, spec
        # on the repeated roots 2 and 3/2 with a rising linear factor the
        # index is n0 itself
        for spec, n0 in ((RecurrenceSpec(4, 4, -1, Fraction(-19, 10)), 18),
                         (RecurrenceSpec(3, Fraction(9, 4), -1, Fraction(-13, 10)), 5)):
            assert decisions._dominance_index(spec) == reference.ref_n0(spec, 100) == n0, spec

    @given(p1_specs())
    @example(NEAR_SECOND_ROOT)
    @example(FAR_N0[2][0])
    @settings(max_examples=100, deadline=None)
    def test_from_k_equals_its_triple_only_verdict(self, spec):
        with_bound = [nondecreasing_from(spec, k) for k in range(201)]
        with _triple_only():
            assert [nondecreasing_from(spec, k) for k in range(201)] == with_bound

    def test_far_from_k_reads_no_triple(self, monkeypatch):
        # past the bound the verdict is the chain's, with no triple read:
        # at k = 10**7 + 2 a triple would be three terms of 10**8 digits
        monkeypatch.setattr(decisions, "_ordered_triple", None)
        for spec, k in ((FAR_PAST_THE_LIMIT, 10**7 + 2), (FAR_N0[0][0], 2504), (FIB, 1000)):
            assert nondecreasing_from(spec, k) == (True, Branch.COND_MONOTONIC_1, None)

    @pytest.mark.parametrize("spec, n0", FAR_N0)
    def test_n0_within_the_bound(self, spec, n0):
        with _triple_only():
            assert report._first_clean_start(spec, 1) - 1 == n0
        assert n0 <= decisions._dominance_index(spec)

    @given(late_tail_specs())
    @example(NEAR_SECOND_ROOT)
    @settings(max_examples=100, deadline=None)
    def test_n0_within_the_bound_on_holding_specs(self, spec):
        # holding on COND_MONOTONIC_1 with distinct roots, and n0 >= 1
        if (eventually_nondecreasing(spec).branch is not Branch.COND_MONOTONIC_1
                or nondecreasing_from(spec, 1).holds):
            return
        n = decisions._dominance_index(spec)
        assert n is not None, spec
        with _triple_only():
            assert report._first_clean_start(spec, 1) - 1 <= n, spec


# roots for the eigen-start grid: both signs, moduli below, at and above 1
GRID_ROOTS = tuple(sign * Fraction(m) for sign in (1, -1)
                   for m in (Fraction(1, 3), Fraction(1, 2), 1, 2, 3))


class TestGeometricStarts:
    """A start v1 = v0*r on a root r is the geometric sequence v0*r**n:
    P1's and P3's verdicts on it, for every root pair of GRID_ROOTS with
    a != 0, either eigen start and v0 = +-1, +-2/3, equal a naive term
    scan.  On the dominant root the weighted residual is identically zero."""

    TAIL = 40  # geometric differences keep one sign or alternate

    def test_every_eigen_start_matches_a_term_scan(self):
        checked, mismatches = 0, []
        for r1, r2, v0 in product(GRID_ROOTS, GRID_ROOTS,
                                  (1, -1, Fraction(2, 3), Fraction(-2, 3))):
            if r1 + r2 == 0:
                continue
            alpha = max(r1, r2, key=abs)  # r1 != -r2, so the moduli differ or r1 = r2
            for r in {r1, r2}:
                spec = RecurrenceSpec(r1 + r2, r1 * r2, v0, v0 * r)
                terms = [term_minus_one(spec), *iterate(spec, self.TAIL + 1)]
                # ordered[n + 1] is a[n] <= a[n+1], from n = -1
                ordered = [x <= y for x, y in zip(terms, terms[1:])]
                expected = {None: all(ordered[self.TAIL // 2:])}
                expected.update((k, all(ordered[k:])) for k in (0, 1, 2, 7))
                for k, want in expected.items():
                    v = (eventually_nondecreasing(spec) if k is None
                         else nondecreasing_from(spec, k))
                    checked += 1
                    if v.holds != want:
                        mismatches.append((spec, k, v.branch))
                residual = [abs(x * alpha - y) for x, y in zip(terms[1:], terms[2:])]
                want = all(x >= y for x, y in zip(residual, residual[1:]))
                v = weighted_monotone(spec)
                checked += 1
                if v.holds != want:
                    mismatches.append((spec, "P3", v.branch))
        assert checked == 4080
        assert mismatches == [], (len(mismatches), mismatches[:5])

    def test_the_examples_hold_on_the_geometric_clause(self):
        # terms 1, 2, 4, 8 on roots 2 and 3, on 2 and -3 and on the
        # repeated root 2, and 1, 1, 1 on roots 1 and 2
        for spec in (RecurrenceSpec(5, 6, 1, 2), RecurrenceSpec(-1, -6, 1, 2),
                     RecurrenceSpec(4, 4, 1, 2), RecurrenceSpec(3, 2, 1, 1)):
            for v in (eventually_nondecreasing(spec), nondecreasing_from(spec, 0),
                      nondecreasing_from(spec, 5)):
                assert v.holds and v.branch is Branch.COND_GEOMETRIC, (spec, v)
        # roots 3 and -2, start on -2: the terms alternate
        v = eventually_nondecreasing(RecurrenceSpec(1, -6, 1, -2))
        assert not v.holds and v.branch is Branch.FAIL_INITIAL_TRIPLE


class TestPositiveMonotoneH:
    def test_fibonacci_holds(self):
        v = positive_monotone_h(FIB)
        assert v.holds and v.branch is Branch.COND_H_MONOTONE

    def test_halving_fails_small_root(self):
        v = positive_monotone_h(HALVING)
        assert not v.holds and v.branch is Branch.FAIL_ALPHA_PLUS_BELOW_ONE

    def test_spread_holds(self):
        assert positive_monotone_h(SPREAD).holds

    def test_negative_start_fails(self):
        v = positive_monotone_h(make_h_spec(1, -1, -2))
        assert not v.holds and v.branch is Branch.FAIL_INITIAL_NOT_POSITIVE

    def test_small_coefficient_fails(self):
        v = positive_monotone_h(make_h_spec(Fraction(1, 2), Fraction(-1, 2), 1))
        assert not v.holds and v.branch is Branch.FAIL_COEFF_BELOW_ONE

    def test_non_h_spec_rejected(self):
        with pytest.raises(ValueError):
            positive_monotone_h(LUCAS)


class TestRatioMonotoneH:
    def test_fibonacci_holds(self):
        v = ratio_monotone_h(FIB)
        assert v.holds and v.branch is Branch.COND_RATIO_CONTRACTION
        assert v.violation_by is None

    def test_spread_fails_modulus(self):
        v = ratio_monotone_h(SPREAD)
        assert not v.holds and v.branch is Branch.COND2_FAIL_MODULUS
        assert v.violation_by == 0

    def test_halving_holds_at_boundary(self):
        assert ratio_monotone_h(HALVING).holds

    def test_non_h_spec_rejected(self):
        with pytest.raises(ValueError):
            ratio_monotone_h(LUCAS)


class TestWeightedMonotone:
    def test_lucas_holds(self):
        v = weighted_monotone(LUCAS)
        assert v.holds and v.branch is Branch.COND_MODULUS_AT_MOST_ONE
        assert v.violation_by is None

    def test_spread_fails(self):
        v = weighted_monotone(RecurrenceSpec(1, -3, 1, 1))
        assert not v.holds and v.branch is Branch.COND3_FAIL_MODULUS
        assert v.violation_by == 0

    def test_unit_modulus_boundary_holds(self):
        assert weighted_monotone(RecurrenceSpec(2, 1, 1, 1)).holds

    def test_complex_small_modulus_holds(self):
        v = weighted_monotone(RecurrenceSpec(1, 1, 1, 1))
        assert v.holds and v.branch is Branch.COMPLEX_MODULUS

    def test_complex_large_modulus_fails(self):
        v = weighted_monotone(RecurrenceSpec(1, 2, 1, 1))
        assert not v.holds and v.branch is Branch.COND3_FAIL_MODULUS


class TestEventuallyRatioMonotone:
    def test_real_discriminant_holds(self):
        assert eventually_ratio_monotone(RecurrenceSpec(1, -3, 1, 1)).holds
        assert eventually_ratio_monotone(RecurrenceSpec(2, 1, 1, 1)).holds

    def test_complex_fails(self):
        v = eventually_ratio_monotone(RecurrenceSpec(1, 1, 1, 1))
        assert not v.holds and v.branch is Branch.DISCRIMINANT_NEGATIVE

    def test_zero_start_rejected(self):
        with pytest.raises(ValueError):
            eventually_ratio_monotone(RecurrenceSpec(1, -1, 1, 0))


class TestHartmanAurelSufficient:
    def test_examples(self):
        assert hartman_aurel_sufficient(3, 1)
        assert not hartman_aurel_sufficient(1, -1)
        assert not hartman_aurel_sufficient(1, Fraction(1, 4))

    def test_zero_coefficients_rejected(self):
        with pytest.raises(ValueError):
            hartman_aurel_sufficient(0, 1)


class TestOracleAgreement:
    """Randomized cross-validation of every verdict against scan windows."""

    def test_general_corpus(self):
        for spec in build_corpus(90210, 120):
            check_all_agreements(spec)

    def test_h_corpus(self):
        for spec in build_h_corpus(31337, 60):
            check_all_agreements(spec)
