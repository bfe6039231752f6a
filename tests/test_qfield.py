"""Numbers (x + y*sqrt(n))/den on the integer form: exact sign, root
signs on a spec's integer form, root construction, decimal rendering,
and the ring laws of the tests' own surd type.

`QuadElem` has no arithmetic; the tests compute in reference.Surd and
compare the package's roots with reference.roots(a, b), built from a
and b alone.  High-precision Decimal evaluation serves as the
independent oracle for sign, ring and rendering results; exact-zero
cases are asserted directly since no float can witness them.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from recmono import QuadElem, RecurrenceSpec, decimal_str, quadratic_roots, riccati_orbit
from recmono.qfield import dominant_root_sign, g6_str, surd_sign

import reference
from reference import Surd

numerators_st = st.integers(-1500, 1500)
denominators_st = st.integers(1, 30)
radicands_st = st.sampled_from([2, 3, 5, 7, 11, 13, 20, 45])


@st.composite
def gap_cases(draw):
    """(spec, t, X, Y) with real roots: two rational roots (a square N),
    with Y = X*r on the t root at times, or any (a, b) with a^2 >= 4*b."""
    ratios = st.fractions(min_value=-20, max_value=20, max_denominator=12).filter(bool)
    t, X, Y = draw(st.sampled_from((-1, 1))), draw(numerators_st), draw(numerators_st)
    if draw(st.booleans()):
        r1, r2 = draw(ratios), draw(ratios)
        assume(r1 != -r2)
        a, b = r1 + r2, r1 * r2
        if draw(st.booleans()):
            r = max(r1, r2) if t > 0 else min(r1, r2)
            X, Y = X * r.denominator, X * r.numerator
    else:
        a, b = draw(ratios), draw(ratios)
        assume(a * a >= 4 * b)
    return RecurrenceSpec(a, b, 1, 1), t, X, Y


def approx(v: QuadElem | Surd, prec: int = 80) -> Decimal:
    x, y, n, den = v.fields() if isinstance(v, Surd) else (v.x, v.y, v.n, v.den)
    with localcontext() as ctx:
        ctx.prec = prec
        return (Decimal(x) + Decimal(y) * Decimal(n).sqrt()) / Decimal(den)


def half_even(v: Fraction, digits: int) -> tuple[int, int]:
    """(c, k): |v| > 0 rounded half-even to c*10**k with `digits` digits in c."""
    v = abs(v)
    k = len(str(v.numerator)) - len(str(v.denominator)) - digits
    while v >= Fraction(10) ** (k + digits):
        k += 1
    while v < Fraction(10) ** (k + digits - 1):
        k -= 1
    c = round(v / Fraction(10) ** k)  # Fraction's round() is half-even
    return (c // 10, k + 1) if c == 10**digits else (c, k)


def decimal_reference(v: Fraction) -> str:
    """12 digits half-even in Decimal's layout; a terminating value that
    fits them keeps its short form, the Decimal quotient's."""
    if v == 0:
        return "0"
    c, k = half_even(v, 12)
    if c * Fraction(10) ** k == abs(v):
        with localcontext() as ctx:
            ctx.prec = 12
            return str(Decimal(v.numerator) / Decimal(v.denominator))
    return str(Decimal(f"{'-' if v < 0 else ''}{c}E{k}"))


def g6_reference(v: Fraction) -> str:
    """6 digits half-even in %g layout: a 6-digit decimal in a float's
    range is the float nearest it, which '.6g' prints as itself."""
    if v == 0:
        return "0"
    c, k = half_even(v, 6)
    return format(float((c if v > 0 else -c) * Fraction(10) ** k), ".6g")


class TestNormalForm:
    def test_perfect_square_radicand_collapses(self):
        # the one squareness decision is quadratic_roots': roots 2 and 1
        roots = quadratic_roots(3, 2)
        assert (str(roots.alpha), str(roots.beta)) == ("2", "1")
        assert roots.alpha.y == roots.beta.y == 0
        roots = quadratic_roots(Fraction(-5, 6), Fraction(1, 6))  # roots -1/2 and -1/3
        assert (str(roots.alpha), str(roots.beta)) == ("-1/2", "-1/3")

    def test_zero_coefficient_clears_radicand(self):
        # y = 0 is rational: it prints without a root, and read into the
        # reference it meets any radicand
        x = QuadElem(5, 0, 7)
        assert str(x) == "5" and decimal_str(x) == "5"
        assert (reference.from_elem(x) + Surd(0, 1, 2)).d == 2

    def test_irrational_radicand_kept_unreduced(self):
        x = QuadElem(0, 1, 8)
        assert x.n == 8  # not normalized to 2*sqrt(2)

    def test_negative_radicand_rejected(self):
        with pytest.raises(ValueError):
            QuadElem(0, 1, -1)
        with pytest.raises(ValueError):
            QuadElem(1, 1, 2, 0)

    def test_q_nonzero_implies_irrational(self):
        # a root keeps its sqrt(N) term only when N is not a square
        for a, b in ((1, -1), (Fraction(-7, 3), Fraction(-5, 7)), (3, 1), (0, -2)):
            for root in (quadratic_roots(a, b).alpha_plus, quadratic_roots(a, b).alpha_minus):
                assert root.y != 0 and math.isqrt(root.n) ** 2 != root.n, (a, b)


class TestArithmetic:
    """The reference's surd ring, which the tests compute in; the
    package's QuadElem has no arithmetic and compares by identity."""

    def test_golden_ratio_identity(self):
        phi = reference.from_elem(QuadElem(1, 1, 5, 2))
        assert phi * phi == phi + 1

    def test_conjugate_product_is_norm(self):
        x = Surd(3, 2, 7)
        conj = Surd(3, -2, 7)
        assert x * conj == 9 - 4 * 7

    def test_mixed_radicands_rejected(self):
        x = Surd(0, 1, 2)
        y = Surd(0, 1, 3)
        with pytest.raises(ValueError):
            x + y
        # == compares values, over any radicands: 2*sqrt(2) = sqrt(8)
        assert Surd(0, 2, 2) == Surd(0, 1, 8) and Surd(0, 1, 2) != Surd(0, 1, 3)

    def test_rational_coerces_into_any_radicand(self):
        x = Surd(0, 1, 2)
        three = Surd(3)
        assert (x + three).d == 2
        assert x + 3 == x + three
        assert 3 - x == -(x - 3)
        assert Fraction(1, 3) * x == reference.from_elem(QuadElem(0, 1, 2, 3))

    def test_inexact_values_are_refused(self):
        # QuadElem defines no operator, so each raises TypeError, and ==
        # is identity; the renderers refuse what is no int or Fraction, and
        # the reference's operators refuse a float
        x = QuadElem(1)
        for op in (lambda: x + 1.5, lambda: x - 1.5, lambda: 1.5 - x, lambda: x * 1.5,
                   lambda: x + 1, lambda: x * QuadElem(1),
                   lambda: decimal_str(1.5), lambda: g6_str(1.5), lambda: decimal_str("1/2"),
                   lambda: Surd(1) + 1.5, lambda: 1.5 - Surd(1), lambda: Surd(1) * 1.5):
            with pytest.raises(TypeError):
                op()
        assert (x == "x") is False
        assert (QuadElem(1) == QuadElem(1)) is False

    @given(
        x1=numerators_st, y1=numerators_st, d1=denominators_st,
        x2=numerators_st, y2=numerators_st, d2=denominators_st, n=radicands_st,
    )
    @settings(max_examples=200, deadline=None)
    def test_ring_laws_match_decimal(self, x1, y1, d1, x2, y2, d2, n):
        x = reference.from_elem(QuadElem(x1, y1, n, d1))
        y = reference.from_elem(QuadElem(x2, y2, n, d2))
        for op in (lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v):
            exact = approx(op(x, y))
            with localcontext() as ctx:
                ctx.prec = 80
                direct = op(approx(x), approx(y))
                gap = abs(exact - direct)
            assert gap < Decimal("1e-40")


class TestSignAndCompare:
    def test_exact_zero_sign(self):
        # 3 - sqrt(9) = 0 on a square radicand
        assert QuadElem(3, -1, 9).sign() == 0
        # sqrt(5) - sqrt(5) = 0 via the reference's subtraction
        r5 = Surd(0, 1, 5)
        assert (r5 - r5).sign() == 0

    def test_mixed_sign_cases(self):
        # 3 - sqrt(5) > 0 but 2 - sqrt(5) < 0
        assert QuadElem(3, -1, 5).sign() == 1
        assert QuadElem(2, -1, 5).sign() == -1
        assert QuadElem(-3, 1, 5).sign() == -1
        assert QuadElem(-2, 1, 5).sign() == 1

    @given(x=numerators_st, y=numerators_st, den=denominators_st, n=radicands_st)
    @settings(max_examples=300, deadline=None)
    def test_sign_matches_decimal(self, x, y, den, n):
        v = QuadElem(x, y, n, den)
        assert reference.from_elem(v).sign() == v.sign()
        val = approx(v)
        if abs(val) > Decimal("1e-40"):
            assert v.sign() == (1 if val > 0 else -1)
        else:
            # numerically tiny: must be the exact zero x = -y*sqrt(n),
            # impossible for irrational sqrt(n) unless x = y = 0
            assert v.sign() == 0 and v.x == 0 and v.y == 0

    @given(gap_cases())
    @settings(max_examples=300, deadline=None)
    def test_gap_sign_matches_decimal(self, case):
        # sign(Y - X*r) for r = (a + t*sqrt(a^2 - 4*b))/2, read off a and b
        # in Decimal, not off the spec's integer form
        spec, t, X, Y = case
        disc = spec.a**2 - 4 * spec.b
        with localcontext() as ctx:
            ctx.prec = 80
            root = (Decimal(spec.a.numerator) / spec.a.denominator
                    + t * (Decimal(disc.numerator) / disc.denominator).sqrt()) / 2
            gap = Y - X * root
        if abs(gap) > Decimal("1e-40"):
            assert spec._gap_sign(t, X, Y) == (1 if gap > 0 else -1)
        else:
            assert spec._gap_sign(t, X, Y) == 0

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
                roots = quadratic_roots(a, b)
                s = dominant_root_sign(a)
                # the same sign read off integer numerators over a positive L
                assert dominant_root_sign(Fraction(a).numerator) == s
                if roots.discriminant_sign > 0:
                    plus, minus = roots.alpha_plus, roots.alpha_minus
                    assert (roots.alpha, roots.beta) == ((plus, minus) if s > 0 else (minus, plus))
        assert dominant_root_sign(0) == 1


class TestCharacteristicRoots:
    def test_fibonacci_roots(self):
        roots = quadratic_roots(1, -1)
        assert roots.discriminant == 5
        assert roots.discriminant_sign == 1
        plus, minus = reference.from_elem(roots.alpha_plus), reference.from_elem(roots.alpha_minus)
        assert plus == Surd(Fraction(1, 2), Fraction(1, 2), 5)
        assert roots.alpha is roots.alpha_plus and roots.beta is roots.alpha_minus
        assert plus + minus == 1
        assert plus * minus == -1

    def test_repeated_root(self):
        roots = quadratic_roots(2, 1)
        assert roots.discriminant_sign == 0
        for root in (roots.alpha_plus, roots.alpha_minus, roots.alpha, roots.beta):
            assert reference.from_elem(root) == 1

    def test_complex_pair(self):
        roots = quadratic_roots(1, 1)
        assert roots.discriminant_sign == -1
        assert roots.alpha_plus is None and roots.alpha_minus is None
        assert roots.alpha is None and roots.beta is None
        assert roots.modulus_squared == 1

    def test_zero_coefficient_rejected(self):
        # refused where input enters, so the one root constructor needs no
        # flag: it admits the zero coefficients of coefficient-plane points
        for a, b in ((0, 1), (1, 0)):
            with pytest.raises(ValueError):
                RecurrenceSpec(a, b, 1, 1)
            with pytest.raises(ValueError):
                riccati_orbit(a, b, 1, 5)
        roots = quadratic_roots(0, Fraction(-1, 4))
        assert (str(roots.alpha), str(roots.beta)) == ("1/2", "-1/2")
        roots = quadratic_roots(-3, 0)
        assert (str(roots.alpha), str(roots.beta)) == ("-3", "0")

    @given(
        a=st.fractions(min_value=-20, max_value=20, max_denominator=12),
        b=st.fractions(min_value=-20, max_value=20, max_denominator=12),
    )
    @settings(max_examples=300, deadline=None)
    def test_vieta_and_ordering(self, a, b):
        # each root against the reference's, built from a and b alone, and
        # the reference's roots against Vieta and the modulus order
        roots, ref = quadratic_roots(a, b), reference.roots(a, b)
        assert roots.discriminant_sign == ref.discriminant_sign
        if roots.discriminant_sign < 0:
            assert roots.modulus_squared == b > 0
            assert roots.alpha_plus is roots.alpha_minus is roots.alpha is roots.beta is None
            return
        for name in ("alpha_plus", "alpha_minus", "alpha", "beta"):
            assert reference.from_elem(getattr(roots, name)) == getattr(ref, name), name
        plus, minus = ref.alpha_plus, ref.alpha_minus
        assert plus + minus == a
        assert plus * minus == b
        alpha, beta = ref.alpha, ref.beta
        assert ((alpha - beta) * (alpha + beta)).sign() >= 0
        assert (roots.alpha, roots.beta) in ((roots.alpha_plus, roots.alpha_minus),
                                             (roots.alpha_minus, roots.alpha_plus))


class TestDecimalRendering:
    def test_twelve_digit_strings(self):
        phi = QuadElem(1, 1, 5, 2)
        assert decimal_str(phi) == "1.61803398875"
        assert decimal_str(QuadElem(1, 0, 0, 2)) == "0.5"
        # exact ties, on a square radicand, round half to even
        assert decimal_str(QuadElem(10**12 + 3, 1, 4, 10**12)) == "1.00000000000"
        assert decimal_str(QuadElem(10**12 + 13, 1, 4, 10**12)) == "1.00000000002"

    def test_rational_rounds_once(self):
        # 10^-41 above a 12-digit tie: rounding 32 digits of a Decimal
        # division again to 12 would land on the tie and round down
        x = Fraction(12345678901250000000000000000000000000001, 10**41)
        assert decimal_str(x) == "0.123456789013"
        assert decimal_str(-x) == "-0.123456789013"

    def test_short_forms_of_exact_values(self):
        assert decimal_str(Fraction(1000)) == "1000"
        assert decimal_str(Fraction(-3, 8)) == "-0.375"
        assert decimal_str(10**15) == "1.00000000000E+15"
        assert decimal_str(Fraction(1, 10**7)) == "1E-7"
        assert decimal_str(0) == "0"
        assert g6_str(Fraction(357, 320)) == "1.11562"  # 1.115625, a tie
        assert g6_str(100000) == "100000" and g6_str(10**6) == "1e+06"
        assert g6_str(Fraction(-1, 10**4)) == "-0.0001" and g6_str(Fraction(1, 10**5)) == "1e-05"
        assert g6_str(0) == "0"

    @given(
        c=st.integers(10**11, 10**12 - 1), e=st.integers(-40, 40), negative=st.booleans(),
        kind=st.sampled_from(["tie", "near_tie", "terminating"]),
        j=st.integers(-1000, 1000), den=st.integers(1000, 10**6),
    )
    @settings(max_examples=400, deadline=None)
    def test_rounding_matches_fraction_half_even(self, c, e, negative, kind, j, den):
        # each layout gets a value on a tie between two of its decimals,
        # within 10^-30 units in the last place of one, or terminating
        for digits, render, reference in ((12, decimal_str, decimal_reference),
                                          (6, g6_str, g6_reference)):
            m = c // 10 ** (12 - digits)  # `digits` digits
            if kind == "tie":
                v = Fraction(2 * m + 1, 2)
            elif kind == "near_tie":
                v = Fraction(2 * m + 1, 2) + Fraction(j or 1, den * 10**30)
            else:
                v = Fraction(m, 2 ** (j % 40) * 5 ** (den % 40))
            v *= Fraction(-1 if negative else 1) * Fraction(10) ** e
            assert render(v) == reference(v), v

    def test_rendering_within_one_ulp(self):
        x = QuadElem(14, -3, 13, 21)  # 2/3 - sqrt(13)/7
        rendered = Decimal(decimal_str(x))
        with localcontext() as ctx:
            ctx.prec = 60
            true = (
                Decimal(2) / 3 - (Decimal(13).sqrt()) / 7
            )
        assert abs(rendered - true) <= Decimal("1e-12")

    @given(
        y=st.integers(1, 10**60), flip=st.booleans(), e=st.integers(-3, 3),
        den=st.integers(1, 10**20), n=radicands_st,
    )
    @settings(max_examples=300, deadline=None)
    def test_near_cancelling_matches_decimal(self, y, flip, e, den, n):
        # x = -y*sqrt(n) to within 4, so x + y*sqrt(n) cancels about as
        # many digits as y has; 3000 digits of Decimal leave ~2900 exact
        if flip:
            y = -y
        x = -math.isqrt(n * y * y) if y > 0 else math.isqrt(n * y * y)
        v = QuadElem(x + e, y, n, den)
        with localcontext() as ctx:
            ctx.prec = 12
            want = str(+approx(v, 3000))
        assert decimal_str(v) == want

    def test_operands_past_the_str_digit_limit(self):
        # ints over 4300 digits have no str() by default, so the
        # rendering must not count digits through it
        for v in (QuadElem(math.isqrt(2 * 10**10000), -(10**5000), 2),
                  QuadElem(-math.isqrt(3 * 7**12000), 7**6000, 3, 13**2000)):
            with localcontext() as ctx:
                ctx.prec = 12
                want = str(+approx(v, 25000))
            assert decimal_str(v) == want

    def test_str_format(self):
        assert str(QuadElem(1, 1, 5, 2)) == "1/2 + 1/2*sqrt(5)"
        assert str(QuadElem(-11, -1, 229, 12)) == "-11/12 - 1/2*sqrt(229/36)"
        assert str(QuadElem(3)) == "3"
        # a golden root: a = -7/3, b = -5/7 give A = -49, L = 21, N = 3661 = 7*523
        assert str(quadratic_roots(Fraction(-7, 3), Fraction(-5, 7)).alpha_plus) == (
            "-7/6 + 1/2*sqrt(523/63)"
        )
