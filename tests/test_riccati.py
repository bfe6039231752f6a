"""Ratio dynamics of the first-order rational map induced by the
two-term recurrence.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recmono import (
    RecurrenceSpec,
    iterate,
    quadratic_roots,
    riccati_orbit,
)

import reference


def _reference_orbit(a: Fraction, b: Fraction, b0: Fraction, n_max: int) -> list[Fraction]:
    """s -> (a*s - b)/s in Fractions, from b0 until n_max steps or a zero state."""
    states = [b0]
    while states[-1] != 0 and len(states) <= n_max:
        s = states[-1]
        states.append((a * s - b) / s)
    return states


_nonzero = st.builds(
    Fraction,
    st.integers(-60, 60).filter(bool) | st.integers(-(10**30), 10**30).filter(bool),
    st.integers(1, 60) | st.integers(1, 10**30),
)


@st.composite
def _orbit_inputs(draw):
    """(a, b, b0, n_max); b0 is often a preimage of 0 under the map (s = b/a,
    then b/(a - s) steps further back), so that orbits end early."""
    a, b = draw(_nonzero), draw(_nonzero)
    b0 = draw(_nonzero)
    if draw(st.booleans()):
        s = Fraction(0)
        for _ in range(draw(st.integers(1, 4))):
            if s == a:
                break
            s = b / (a - s)
        b0 = s
    return a, b, b0, draw(st.integers(1, 30))


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
            for root in map(reference.from_elem, (roots.alpha_plus, roots.alpha_minus)):
                assert root * root == root * Fraction(a) - Fraction(b), (a, b)


class TestAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(_orbit_inputs())
    # -1 -> (1*(-1) + 1)/(-1) = 0: a zero state through a negative denominator
    @example((Fraction(1), Fraction(-1), Fraction(-1), 5))
    @example((Fraction(-3, 2), Fraction(5, 7), Fraction(-10, 21), 3))
    @example((Fraction(7, 3), Fraction(-5, 7), Fraction(-8, 15), 30))
    def test_states_match_the_fraction_map(self, inputs):
        a, b, b0, n_max = inputs
        expected = _reference_orbit(a, b, b0, n_max)
        orbit = riccati_orbit(a, b, b0, n_max)
        assert (orbit.a, orbit.b) == (a, b)
        assert len(orbit.states) == len(expected)
        for n, (state, want) in enumerate(zip(orbit.states, expected)):
            assert type(state) is Fraction and state == want, n
        zero = len(expected) - 1 if expected[-1] == 0 else None
        assert orbit.terminated_early == zero


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
