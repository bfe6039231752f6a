"""Term generation, closed forms, ratio limits, the exceptional zero.

Closed-form evaluation is cross-checked against plain iteration (two
independent routes to the same exact rational), the integer carrier
started at a far index by fast doubling against its walk from index 0,
and the h-type family identity reconstructs arbitrary starts from the
canonical one.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import islice
from math import isqrt

import pytest

from recmono import (
    LimitKind,
    QuadElem,
    RecurrenceSpec,
    decimal_str,
    iterate,
    make_h_spec,
    ratio_limit,
    term_minus_one,
    terms_between,
)
from recmono.recurrence import integer_carrier

from conftest import build_corpus, random_fraction


class TestSpecValidation:
    def test_zero_coefficients_rejected(self):
        with pytest.raises(ValueError):
            RecurrenceSpec(0, 1, 1, 1)
        with pytest.raises(ValueError):
            RecurrenceSpec(1, 0, 1, 1)

    def test_zero_start_pair_rejected(self):
        with pytest.raises(ValueError):
            RecurrenceSpec(1, -1, 0, 0)

    def test_h_flag_requires_h_shape(self):
        with pytest.raises(ValueError):
            RecurrenceSpec(2, 1, 1, 3, h_type=True)  # v1 != a*v0
        with pytest.raises(ValueError):
            RecurrenceSpec(2, 1, 0, 0, h_type=True)

    def test_make_h_spec(self):
        spec = make_h_spec(Fraction(1), Fraction(-1), Fraction(2))
        assert (spec.v0, spec.v1, spec.h_type) == (2, 2, True)
        with pytest.raises(ValueError):
            make_h_spec(1, -1, 0)
        with pytest.raises(ValueError):
            make_h_spec(0, -1, 1)

    def test_coercion_to_fractions(self):
        spec = RecurrenceSpec(1, "-1", 2.0 if False else 2, 1)
        assert isinstance(spec.a, Fraction) and isinstance(spec.b, Fraction)


class TestIterate:
    def test_fibonacci_h_terms(self):
        spec = make_h_spec(1, -1, 1)
        assert iterate(spec, 8) == (1, 1, 2, 3, 5, 8, 13, 21, 34)

    def test_lucas_terms(self):
        spec = RecurrenceSpec(1, -1, 2, 1)
        assert iterate(spec, 6) == (2, 1, 3, 4, 7, 11, 18)

    def test_halving_family_closed_form(self):
        # a = 1, b = 1/4 from the canonical start: terms (n+1) * 2^-n
        spec = make_h_spec(1, Fraction(1, 4), 1)
        terms = iterate(spec, 64)
        for n, t in enumerate(terms):
            assert t == Fraction(n + 1, 2**n)

    def test_recurrence_identity_holds(self):
        spec = RecurrenceSpec(Fraction(5, 3), Fraction(-7, 2), 1, Fraction(2, 5))
        t = iterate(spec, 30)
        for n in range(29):
            assert t[n + 2] == spec.a * t[n + 1] - spec.b * t[n]

    def test_window_shape(self):
        # terms run from index 0 through n_max inclusive
        assert iterate(RecurrenceSpec(1, -1, 2, 1), 0) == (2,)
        assert iterate(RecurrenceSpec(1, -1, 2, 1), 1) == (2, 1)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            iterate(RecurrenceSpec(1, -1, 2, 1), -1)


class TestBackwardExtension:
    def test_h_type_gives_zero(self):
        assert term_minus_one(make_h_spec(3, 2, 7)) == 0

    def test_lucas_gives_minus_one(self):
        assert term_minus_one(RecurrenceSpec(1, -1, 2, 1)) == -1

    def test_consistency_with_forward_recurrence(self):
        spec = RecurrenceSpec(Fraction(3, 2), Fraction(-5, 4), 2, 3)
        t_m1 = term_minus_one(spec)
        # a[1] = a*a[0] - b*a[-1]
        assert spec.v1 == spec.a * spec.v0 - spec.b * t_m1


class TestCarrierJump:
    """integer_carrier(spec, s) reaches M[s] by Lucas fast doubling; the
    plain walk from index 0 is the reference, for the jump and for the
    far terms terms_between reads through it (its near terms are checked
    against Fraction iteration in test_oracle)."""

    STARTS = (0, 1, 2, 3, 63, 64, 65, 499, 1000, 4096, 5000)
    FAR_TERMS = ((4095, 4097), (5000, 5002))
    EXPLICIT = {
        "|B*q| = 1": make_h_spec(1, -1, 1),  # Fibonacci
        "A < 0": RecurrenceSpec(Fraction(-7, 3), Fraction(5, 4), 2, -1),
        "square discriminant": RecurrenceSpec(5, 6, Fraction(3, 2), Fraction(-1, 3)),
        "repeated root": RecurrenceSpec(3, Fraction(9, 4), 1, Fraction(-2, 5)),
        "complex roots": RecurrenceSpec(Fraction(1, 2), Fraction(3, 2), -1, 2),
    }

    def test_jump_equals_walk(self):
        for spec in (*build_corpus(777, 90), *self.EXPLICIT.values()):
            q, _, _, D, M = integer_carrier(spec)
            walk = list(islice(M, max(self.STARTS) + 3))
            for s in self.STARTS:
                jump = integer_carrier(spec, s)[4]
                assert list(islice(jump, 3)) == walk[s : s + 3], (spec, s)
            for lo, hi in self.FAR_TERMS:
                # a[n] = M[n] / (q**n * D), compared cross-multiplied
                for n, t in enumerate(terms_between(spec, lo, hi), lo):
                    assert t.numerator * q**n * D == walk[n] * t.denominator, (spec, n)

    def test_explicit_cases_are_of_their_kind(self):
        for kind, spec in self.EXPLICIT.items():
            q, A, B, _, _ = integer_carrier(spec)
            d = A * A - 4 * B * q
            holds = {
                "|B*q| = 1": abs(B * q) == 1,
                "A < 0": A < 0,
                "square discriminant": d > 0 and isqrt(d) ** 2 == d,
                "repeated root": d == 0,
                "complex roots": d < 0,
            }
            assert holds[kind], (kind, spec)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            integer_carrier(make_h_spec(1, -1, 1), -1)


class TestClosedForm:
    def test_distinct_roots_match_iteration(self):
        rng = random.Random(5150)
        done = 0
        while done < 40:
            a = random_fraction(rng, nonzero=True, max_num=10, max_den=6)
            b = random_fraction(rng, nonzero=True, max_num=10, max_den=6)
            if a * a - 4 * b <= 0:
                continue
            v0 = random_fraction(rng, max_num=6, max_den=4)
            v1 = random_fraction(rng, max_num=6, max_den=4)
            if (v0, v1) == (0, 0):
                continue
            spec = RecurrenceSpec(a, b, v0, v1)
            terms = iterate(spec, 40)
            for n in range(41):
                assert terms_between(spec, n, n)[0] == terms[n], (spec, n)
            done += 1

    def test_square_discriminant_matches_iteration(self):
        # both roots rational, so r- is not the conjugate of r+:
        # a = -9/2, b = 5 has roots -2 and -5/2
        for a, b in ((Fraction(-9, 2), 5), (5, 6), (-3, 2), (Fraction(7, 3), Fraction(-2, 9))):
            spec = RecurrenceSpec(a, b, Fraction(3, 2), Fraction(-1, 3))
            terms = iterate(spec, 30)
            for n in range(31):
                assert terms_between(spec, n, n)[0] == terms[n], (spec, n)

    def test_repeated_root_matches_iteration(self):
        for a, b in ((2, 1), (-2, 1), (1, Fraction(1, 4)), (3, Fraction(9, 4))):
            spec = RecurrenceSpec(a, b, Fraction(3, 2), Fraction(-1, 3))
            terms = iterate(spec, 30)
            for n in range(31):
                assert terms_between(spec, n, n)[0] == terms[n], (spec, n)

    def test_h_family_reconstructs_any_start(self):
        # a[n] = v0*h[n] + (v1 - a*v0)*h[n-1] where h is the canonical
        # a[-1] = 0, a[0] = 1 solution of the same recurrence
        rng = random.Random(808)
        for _ in range(25):
            a = random_fraction(rng, nonzero=True, max_num=8, max_den=4)
            b = random_fraction(rng, nonzero=True, max_num=8, max_den=4)
            v0 = random_fraction(rng, max_num=6, max_den=3)
            v1 = random_fraction(rng, max_num=6, max_den=3)
            if (v0, v1) == (0, 0):
                continue
            spec = RecurrenceSpec(a, b, v0, v1)
            h = iterate(make_h_spec(a, b, 1), 25)
            t = iterate(spec, 25)
            # h[-1] = 0, so the n = 0 case is just v0*h[0]
            assert t[0] == v0 * h[0]
            for n in range(1, 26):
                assert t[n] == v0 * h[n] + (v1 - a * v0) * h[n - 1], (spec, n)


class TestRatioLimit:
    def test_fibonacci_golden_ratio(self):
        lim = ratio_limit(make_h_spec(1, -1, 1))
        assert lim.kind is LimitKind.CONVERGES
        assert lim.which_root == "alpha"
        assert lim.limit == QuadElem(1, 1, 5, 2)

    def test_degenerate_start_sits_at_beta(self):
        # roots 2 and 1; the start (1, 1) has no alpha component
        lim = ratio_limit(RecurrenceSpec(3, 2, 1, 1))
        assert lim.kind is LimitKind.CONVERGES
        assert lim.which_root == "beta"
        assert lim.limit == 1

    def test_complex_diverges(self):
        lim = ratio_limit(RecurrenceSpec(1, 1, 1, 1))
        assert lim.kind is LimitKind.DIVERGES
        assert lim.limit is None and lim.which_root is None

    def test_zero_start_rejected(self):
        with pytest.raises(ValueError):
            ratio_limit(RecurrenceSpec(1, -1, 1, 0))

    def test_float_ratio_approaches_limit(self):
        # distinct real roots with a clear modulus gap: by n = 60 the
        # float ratio must sit within 1e-9 of the exact limit
        for spec in (make_h_spec(1, -1, 1), RecurrenceSpec(1, -1, 2, 1),
                     make_h_spec(3, 1, 2)):
            lim = ratio_limit(spec)
            t = iterate(spec, 61)
            assert abs(float(t[60]) / float(t[59]) - float(decimal_str(lim.limit))) < 1e-9


class TestExceptionalZero:
    """Under v0*v1 != 0 and real roots at most one term vanishes; each
    worked example vanishes once, at the index it names, or never."""

    @staticmethod
    def _zeros(spec, n_max=200):
        return [n for n, t in enumerate(iterate(spec, n_max)) if t == 0]

    def test_distinct_roots_zero_found(self):
        # roots 2 and 1; start chosen so 2^n part cancels at n = 5
        assert self._zeros(RecurrenceSpec(3, 2, -31, -30)) == [5]

    def test_distinct_roots_no_zero(self):
        assert self._zeros(RecurrenceSpec(1, -1, 2, 1)) == []
        assert self._zeros(make_h_spec(1, -1, 1)) == []

    def test_repeated_root_zero_found(self):
        # root 1 twice: terms 5, 4, 3, 2, 1, 0, -1, ...
        assert self._zeros(RecurrenceSpec(2, 1, 5, 4)) == [5]

    def test_repeated_root_non_integer_candidate(self):
        # terms 5 - 2n never vanish on the integers
        assert self._zeros(RecurrenceSpec(2, 1, 5, 3)) == []

    def test_geometric_start_never_zero(self):
        # start on the eigen-solution: terms are exactly 2^n
        assert iterate(RecurrenceSpec(4, 4, 1, 2), 60) == tuple(2**n for n in range(61))

    def test_at_most_one_zero_on_corpus(self):
        # real-discriminant specs with nonzero start pair: at most one
        # vanishing term
        for spec in build_corpus(4242, 60):
            if spec.roots().discriminant_sign < 0 or spec.v0 * spec.v1 == 0:
                continue
            assert len(self._zeros(spec)) <= 1, spec
