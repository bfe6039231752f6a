"""Ratio dynamics of the first-order rational map induced by the
two-term recurrence.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from recmono import (
    RecurrenceSpec,
    iterate,
    quadratic_roots,
    riccati_orbit,
)


class TestOrbits:
    def test_golden_ratio_orbit(self):
        orbit = riccati_orbit(1, -1, Fraction(1, 2), 5)
        assert orbit.states == (
            Fraction(1, 2),
            Fraction(3),
            Fraction(4, 3),
            Fraction(7, 4),
            Fraction(11, 7),
            Fraction(18, 11),
        )
        assert orbit.terminated_early is None

    def test_fixed_point_stays_fixed(self):
        # x^2 - 3x + 2 has roots 2 and 1; both are fixed states
        for start in (2, 1):
            orbit = riccati_orbit(3, 2, start, 8)
            assert set(orbit.states) == {Fraction(start)}

    def test_zero_state_terminates_orbit(self):
        # 1 -> (1 - 1)/1 = 0: the map cannot continue
        orbit = riccati_orbit(1, 1, 1, 6)
        assert orbit.states == (Fraction(1), Fraction(0))
        assert orbit.terminated_early == 1

    def test_states_are_term_ratios(self):
        for spec in (
            RecurrenceSpec(1, -1, 2, 1),
            RecurrenceSpec(Fraction(1, 2), Fraction(-3, 4), 1, 5),
            RecurrenceSpec(3, 1, 2, 1),
        ):
            terms = iterate(spec, 13)
            orbit = riccati_orbit(spec.a, spec.b, spec.v1 / spec.v0, 12)
            assert orbit.terminated_early is None
            for n, state in enumerate(orbit.states):
                assert state == terms[n + 1] / terms[n], (spec, n)

    def test_orbit_through_term_zero_matches_truncation(self):
        # terms 1, 0 would make the second ratio undefined
        spec = RecurrenceSpec(Fraction(5, 2), 1, 1, 0)
        orbit = riccati_orbit(spec.a, spec.b, 1, 10)
        # start ratio chosen independently: 1 -> (5/2 - 1)/1 = 3/2 etc.
        assert orbit.states[0] == 1
        assert orbit.states[1] == Fraction(3, 2)

    def test_fixed_points_are_characteristic_roots(self):
        # s = (a*s - b)/s  <=>  s^2 - a*s + b = 0
        for a, b in ((1, -1), (3, 2), (2, -1), (Fraction(1, 2), Fraction(-3, 4))):
            roots = quadratic_roots(a, b)
            for root in (roots.alpha_plus, roots.alpha_minus):
                a_f, b_f = Fraction(a), Fraction(b)
                lhs = root * root
                rhs = root * a_f - b_f
                assert lhs == rhs, (a, b)


class TestValidation:
    def test_zero_start_rejected(self):
        with pytest.raises(ValueError):
            riccati_orbit(1, -1, 0, 5)

    def test_zero_coefficients_rejected(self):
        with pytest.raises(ValueError):
            riccati_orbit(0, -1, 1, 5)
        with pytest.raises(ValueError):
            riccati_orbit(1, 0, 1, 5)

    def test_short_horizon_rejected(self):
        with pytest.raises(ValueError):
            riccati_orbit(1, -1, 1, 0)
