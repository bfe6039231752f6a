"""Decision procedures: pinned verdicts on the worked families, then
randomized decision-vs-oracle agreement on seeded corpora.

The corpora exclude starting pairs that sit exactly on an
eigen-solution; see conftest for why.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

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
    weighted_monotone,
)

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

    def test_halving_fails_growth_product(self):
        v = eventually_nondecreasing(RecurrenceSpec(1, Fraction(1, 4), 1, 1))
        assert not v.holds and v.branch is Branch.FAIL_GROWTH_PRODUCT

    def test_unit_root_constant_holds(self):
        v = eventually_nondecreasing(RecurrenceSpec(2, 1, 1, 1))
        assert v.holds and v.branch is Branch.COND_ALPHA_ONE

    def test_unit_root_unordered_start_fails(self):
        v = eventually_nondecreasing(RecurrenceSpec(2, 1, 3, 1))
        assert not v.holds and v.branch is Branch.FAIL_INITIAL_TRIPLE

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

    def test_lucas_from_one_still_sees_descent(self):
        # the index-1 triple is (2, 1, 3), so the descent is still inside it
        v = nondecreasing_from(LUCAS, 1)
        assert not v.holds and v.branch is Branch.FAIL_INITIAL_TRIPLE

    def test_lucas_from_two_holds(self):
        assert nondecreasing_from(LUCAS, 2).holds

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

    def test_spread_fails_modulus(self):
        v = ratio_monotone_h(SPREAD)
        assert not v.holds and v.branch is Branch.COND2_FAIL_MODULUS

    def test_halving_holds_at_boundary(self):
        assert ratio_monotone_h(HALVING).holds

    def test_non_h_spec_rejected(self):
        with pytest.raises(ValueError):
            ratio_monotone_h(LUCAS)


class TestWeightedMonotone:
    def test_lucas_holds(self):
        v = weighted_monotone(LUCAS)
        assert v.holds and v.branch is Branch.COND_MODULUS_AT_MOST_ONE

    def test_spread_fails(self):
        v = weighted_monotone(RecurrenceSpec(1, -3, 1, 1))
        assert not v.holds and v.branch is Branch.COND3_FAIL_MODULUS

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
