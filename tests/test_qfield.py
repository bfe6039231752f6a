"""Quadratic-field arithmetic: normal form, ring laws, exact sign and
modulus comparison, root construction, decimal rendering.

High-precision Decimal evaluation serves as the independent oracle for
sign and comparison results; exact-zero cases are asserted directly
since no float can witness them.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recmono import (
    QuadElem,
    characteristic_roots,
    cmp_abs,
    decimal_str,
    order_by_modulus,
    rational_sqrt,
    to_decimal,
)
from recmono.qfield import dominant_root_sign, surd_sign

fractions_st = st.fractions(
    min_value=-50, max_value=50, max_denominator=30
)
nonneg_fractions_st = st.fractions(min_value=0, max_value=50, max_denominator=30)


def approx(x: QuadElem) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 80
        return Decimal(x.p.numerator) / x.p.denominator + (
            Decimal(x.q.numerator) / x.q.denominator
        ) * (Decimal(x.d.numerator) / x.d.denominator).sqrt()


class TestRationalSqrt:
    def test_perfect_squares(self):
        assert rational_sqrt(Fraction(4)) == 2
        assert rational_sqrt(Fraction(9, 16)) == Fraction(3, 4)
        assert rational_sqrt(Fraction(0)) == 0
        assert rational_sqrt(Fraction(1)) == 1

    def test_non_squares(self):
        assert rational_sqrt(Fraction(2)) is None
        assert rational_sqrt(Fraction(5)) is None
        assert rational_sqrt(Fraction(4, 7)) is None

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            rational_sqrt(Fraction(-4))


class TestNormalForm:
    def test_perfect_square_radicand_collapses(self):
        x = QuadElem(Fraction(1), Fraction(3), Fraction(4))
        assert (x.p, x.q, x.d) == (7, 0, 0)

    def test_zero_coefficient_clears_radicand(self):
        x = QuadElem(Fraction(5), Fraction(0), Fraction(7))
        assert (x.p, x.q, x.d) == (5, 0, 0)

    def test_irrational_radicand_kept_unreduced(self):
        x = QuadElem(Fraction(0), Fraction(1), Fraction(8))
        assert x.d == 8  # not normalized to 2*sqrt(2)

    def test_negative_radicand_rejected(self):
        with pytest.raises(ValueError):
            QuadElem(Fraction(0), Fraction(1), Fraction(-1))

    def test_q_nonzero_implies_irrational(self):
        x = QuadElem(Fraction(1, 2), Fraction(1, 2), Fraction(5))
        assert x.q != 0 and rational_sqrt(x.d) is None


class TestArithmetic:
    def test_golden_ratio_identity(self):
        phi = QuadElem(Fraction(1, 2), Fraction(1, 2), Fraction(5))
        assert phi * phi == phi + 1

    def test_conjugate_product_is_norm(self):
        x = QuadElem(Fraction(3), Fraction(2), Fraction(7))
        conj = QuadElem(Fraction(3), Fraction(-2), Fraction(7))
        assert x * conj == QuadElem(Fraction(9 - 4 * 7), Fraction(0), Fraction(0))

    def test_division_roundtrip(self):
        x = QuadElem(Fraction(3, 2), Fraction(-1, 3), Fraction(13))
        y = QuadElem(Fraction(-2), Fraction(5, 7), Fraction(13))
        assert (x / y) * y == x

    def test_division_by_zero(self):
        x = QuadElem(Fraction(1), Fraction(1), Fraction(5))
        with pytest.raises(ZeroDivisionError):
            x / QuadElem(Fraction(0), Fraction(0), Fraction(0))

    def test_mixed_radicands_rejected(self):
        x = QuadElem(Fraction(0), Fraction(1), Fraction(2))
        y = QuadElem(Fraction(0), Fraction(1), Fraction(3))
        with pytest.raises(ValueError):
            x + y

    def test_rational_coerces_into_any_radicand(self):
        x = QuadElem(Fraction(0), Fraction(1), Fraction(2))
        three = QuadElem(Fraction(3), Fraction(0), Fraction(0))
        assert (x + three).d == 2
        assert x + 3 == x + three
        assert 3 - x == -(x - 3)

    @given(
        p1=fractions_st, q1=fractions_st, p2=fractions_st, q2=fractions_st,
        d=st.sampled_from([2, 3, 5, 7, 13, Fraction(5, 4), Fraction(2, 9)]),
    )
    @settings(max_examples=200, deadline=None)
    def test_ring_laws_match_decimal(self, p1, q1, p2, q2, d):
        x = QuadElem(p1, q1, Fraction(d))
        y = QuadElem(p2, q2, Fraction(d))
        for op in (lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v):
            exact = approx(op(x, y))
            with localcontext() as ctx:
                ctx.prec = 80
                direct = op(approx(x), approx(y))
                gap = abs(exact - direct)
            assert gap < Decimal("1e-40")


class TestSignAndCompare:
    def test_exact_zero_sign(self):
        # 3 - sqrt(9) = 0 collapses in normal form
        assert QuadElem(Fraction(3), Fraction(-1), Fraction(9)).sign() == 0
        # sqrt(5) - sqrt(5) = 0 via subtraction
        r5 = QuadElem(Fraction(0), Fraction(1), Fraction(5))
        assert (r5 - r5).sign() == 0

    def test_mixed_sign_cases(self):
        # 3 - sqrt(5) > 0 but 2 - sqrt(5) < 0
        assert QuadElem(Fraction(3), Fraction(-1), Fraction(5)).sign() == 1
        assert QuadElem(Fraction(2), Fraction(-1), Fraction(5)).sign() == -1
        assert QuadElem(Fraction(-3), Fraction(1), Fraction(5)).sign() == -1
        assert QuadElem(Fraction(-2), Fraction(1), Fraction(5)).sign() == 1

    @given(
        p=fractions_st, q=fractions_st,
        d=st.sampled_from([2, 3, 5, 7, 11, 13, Fraction(5, 4)]),
    )
    @settings(max_examples=300, deadline=None)
    def test_sign_matches_decimal(self, p, q, d):
        x = QuadElem(p, q, Fraction(d))
        val = approx(x)
        if abs(val) > Decimal("1e-40"):
            assert x.sign() == (1 if val > 0 else -1)
        else:
            # numerically tiny: must be the exact zero p = -q*sqrt(d),
            # impossible for irrational sqrt(d) unless p = q = 0
            assert x.sign() == 0 and x.p == 0 and x.q == 0

    @given(
        p1=fractions_st, q1=fractions_st, p2=fractions_st, q2=fractions_st,
        d=st.sampled_from([2, 3, 5, 13]),
    )
    @settings(max_examples=300, deadline=None)
    def test_cmp_abs_matches_decimal(self, p1, q1, p2, q2, d):
        x = QuadElem(p1, q1, Fraction(d))
        y = QuadElem(p2, q2, Fraction(d))
        gap = abs(approx(x)) - abs(approx(y))
        if abs(gap) > Decimal("1e-40"):
            assert cmp_abs(x, y) == (1 if gap > 0 else -1)
        else:
            assert cmp_abs(x, y) == 0

    @given(
        x=st.integers(-10**6, 10**6), y=st.integers(-10**6, 10**6),
        n=st.integers(0, 10**6),
    )
    @settings(max_examples=400, deadline=None)
    def test_surd_sign_matches_decimal(self, x, y, n):
        m = math.isqrt(n)
        if m * m == n:
            # sqrt(n) is the integer m: an exact rational sign
            value = Fraction(x) + y * m
            assert surd_sign(x, y, n) == (value > 0) - (value < 0)
            return
        with localcontext() as ctx:
            ctx.prec = 80
            value = x + y * Decimal(n).sqrt()
        # sqrt(n) irrational: x + y*sqrt(n) is zero only for x = y = 0,
        # and otherwise at least 1/(|x| + |y|*sqrt(n)) away from it
        assert surd_sign(x, y, n) == (value > 0) - (value < 0)

    def test_surd_sign_ties_on_square_radicands(self):
        for m in (0, 1, 2, 3, 12, 10**9 + 7):
            for y in (-5, -1, 1, 7):
                assert surd_sign(-y * m, y, m * m) == 0
                assert surd_sign(-y * m + 1, y, m * m) == 1
                assert surd_sign(-y * m - 1, y, m * m) == -1
        assert surd_sign(0, 0, 0) == 0
        assert surd_sign(0, 3, 0) == 0  # y*sqrt(0) vanishes
        assert surd_sign(-4, 3, 0) == -1

    def test_dominant_root_sign_orders_roots(self):
        for a in (Fraction(-7, 3), -1, 0, Fraction(1, 9), 4):
            for b in (Fraction(-5, 2), -1, Fraction(1, 3)):
                roots = characteristic_roots(a, b) if a != 0 else None
                s = dominant_root_sign(a)
                # the same sign read off integer numerators over a positive L
                assert dominant_root_sign(Fraction(a).numerator) == s
                if roots is not None and roots.discriminant_sign > 0:
                    alpha, _ = order_by_modulus(roots)
                    assert alpha == (roots.alpha_plus if s > 0 else roots.alpha_minus)
        assert dominant_root_sign(0) == 1

    def test_total_ordering(self):
        r2 = QuadElem(Fraction(0), Fraction(1), Fraction(2))
        assert 1 < r2 < Fraction(3, 2)
        assert r2 <= r2
        phi = QuadElem(Fraction(1, 2), Fraction(1, 2), Fraction(5))
        assert 1 < phi < 2 and phi > Fraction(8, 5)

    def test_ordering_across_radicands_rejected(self):
        r2 = QuadElem(Fraction(0), Fraction(1), Fraction(2))
        phi = QuadElem(Fraction(1, 2), Fraction(1, 2), Fraction(5))
        with pytest.raises(ValueError):
            r2 < phi  # noqa: B015 -- the comparison itself must raise


class TestCharacteristicRoots:
    def test_fibonacci_roots(self):
        roots = characteristic_roots(Fraction(1), Fraction(-1))
        assert roots.discriminant == 5
        assert roots.discriminant_sign == 1
        assert roots.alpha_plus == QuadElem(Fraction(1, 2), Fraction(1, 2), Fraction(5))
        assert roots.alpha_plus + roots.alpha_minus == 1
        assert roots.alpha_plus * roots.alpha_minus == -1

    def test_repeated_root(self):
        roots = characteristic_roots(Fraction(2), Fraction(1))
        assert roots.discriminant_sign == 0
        assert roots.alpha_plus == roots.alpha_minus == 1

    def test_complex_pair(self):
        roots = characteristic_roots(Fraction(1), Fraction(1))
        assert roots.discriminant_sign == -1
        assert roots.alpha_plus is None and roots.alpha_minus is None
        assert roots.modulus_squared == 1

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValueError):
            characteristic_roots(Fraction(0), Fraction(1))
        with pytest.raises(ValueError):
            characteristic_roots(Fraction(1), Fraction(0))

    @given(
        a=st.fractions(min_value=-20, max_value=20, max_denominator=12),
        b=st.fractions(min_value=-20, max_value=20, max_denominator=12),
    )
    @settings(max_examples=300, deadline=None)
    def test_vieta_and_ordering(self, a, b):
        if a == 0 or b == 0:
            return
        roots = characteristic_roots(a, b)
        if roots.discriminant_sign < 0:
            assert roots.modulus_squared == b > 0
            return
        assert roots.alpha_plus + roots.alpha_minus == a
        assert roots.alpha_plus * roots.alpha_minus == b
        alpha, beta = order_by_modulus(roots)
        assert cmp_abs(alpha, beta) >= 0
        assert {alpha, beta} == {roots.alpha_plus, roots.alpha_minus}


class TestDecimalRendering:
    def test_twelve_digit_strings(self):
        phi = QuadElem(Fraction(1, 2), Fraction(1, 2), Fraction(5))
        assert decimal_str(phi) == "1.61803398875"
        assert decimal_str(QuadElem(Fraction(1, 2), Fraction(0), Fraction(0))) == "0.5"

    def test_rendering_within_one_ulp(self):
        x = QuadElem(Fraction(2, 3), Fraction(-1, 7), Fraction(13))
        rendered = Decimal(decimal_str(x))
        with localcontext() as ctx:
            ctx.prec = 60
            true = (
                Decimal(2) / 3 - (Decimal(13).sqrt()) / 7
            )
        assert abs(rendered - true) <= Decimal("1e-12")

    def test_to_decimal_matches_float(self):
        x = QuadElem(Fraction(1), Fraction(2), Fraction(3))
        assert math.isclose(float(to_decimal(x)), 1 + 2 * math.sqrt(3), rel_tol=1e-12)
        assert math.isclose(float(x), 1 + 2 * math.sqrt(3), rel_tol=1e-12)

    def test_str_format(self):
        assert str(QuadElem(Fraction(1, 2), Fraction(1, 2), Fraction(5))) == (
            "1/2 + 1/2*sqrt(5)"
        )
        assert str(QuadElem(Fraction(-11, 12), Fraction(-1, 2), Fraction(229, 36))) == (
            "-11/12 - 1/2*sqrt(229/36)"
        )
        assert str(QuadElem(Fraction(3), Fraction(0), Fraction(0))) == "3"
