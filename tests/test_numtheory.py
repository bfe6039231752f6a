"""Integer coefficient pairs: irreducibility against an independent
divisor-search oracle, quadratic Pisot classification, the region
enumeration, and the boundary characterization.
"""

from __future__ import annotations

import pytest

from recmono import (
    IntCoeffPair,
    RegionId,
    boundary_characterization,
    contains_coeff_plane,
    enumerate_generalized_fibonacci,
    is_irreducible,
)

from conftest import is_quadratic_pisot


def divisor_irreducible(a: int, b: int) -> bool:
    """No integer root of x^2 - a*x + b, found by search without isqrt.

    A monic quadratic over the integers factors exactly when it has an
    integer root r; then r*(a - r) = b, so r divides b, and r = 0 is a
    root when b = 0.
    """
    if b == 0:
        return False
    divisors = [d for d in range(1, abs(b) + 1) if b % d == 0]
    return all(r * r - a * r + b != 0 for d in divisors for r in (d, -d))


class TestIrreducibility:
    def test_matches_divisor_oracle_on_square_grid(self):
        for a in range(-12, 13):
            for b in range(-12, 13):
                pair = IntCoeffPair(a, b)
                assert is_irreducible(pair) == divisor_irreducible(a, b), pair

    def test_reducible_values_inside_region(self):
        # inside -a-1 <= b <= a-1 the reducible b are exactly -a-1, 0, a-1
        for a in range(1, 31):
            for b in range(-a - 1, a):
                expected = b not in (-a - 1, 0, a - 1)
                assert is_irreducible(IntCoeffPair(a, b)) == expected, (a, b)


class TestQuadraticPisot:
    def test_known_values(self):
        assert is_quadratic_pisot(IntCoeffPair(1, -1))  # golden ratio
        assert is_quadratic_pisot(IntCoeffPair(2, -1))  # silver ratio
        assert is_quadratic_pisot(IntCoeffPair(3, -1))
        assert not is_quadratic_pisot(IntCoeffPair(1, -3))  # conjugate too big
        assert not is_quadratic_pisot(IntCoeffPair(3, 2))  # reducible
        assert not is_quadratic_pisot(IntCoeffPair(1, 1))  # complex roots
        assert not is_quadratic_pisot(IntCoeffPair(2, 1))  # repeated root 1

    def test_pisot_root_values_against_floats(self):
        import math

        for a, b, value in (
            (1, -1, (1 + math.sqrt(5)) / 2),
            (2, -1, 1 + math.sqrt(2)),
            (3, -1, (3 + math.sqrt(13)) / 2),
        ):
            assert is_quadratic_pisot(IntCoeffPair(a, b))
            disc = a * a - 4 * b
            assert abs((a + math.sqrt(disc)) / 2 - value) < 1e-12

    def test_every_interior_enumerated_pair_is_pisot(self):
        pairs = enumerate_generalized_fibonacci(20)
        assert pairs, "enumeration should be nonempty"
        for pair in pairs:
            assert is_quadratic_pisot(pair), pair


class TestEnumeration:
    def test_a_max_three_exact_list(self):
        assert enumerate_generalized_fibonacci(3) == [
            IntCoeffPair(1, -1),
            IntCoeffPair(2, -2),
            IntCoeffPair(2, -1),
            IntCoeffPair(3, -3),
            IntCoeffPair(3, -2),
            IntCoeffPair(3, -1),
            IntCoeffPair(3, 1),
        ]

    def test_counts_grow_quadratically(self):
        # for each a the interior b range [-a, a-2] has 2a - 1 values and
        # loses the zero once a >= 2
        for a_max in (1, 2, 5, 10):
            pairs = enumerate_generalized_fibonacci(a_max)
            expected = sum(
                (2 * a - 1) - (1 if a >= 2 else 0) for a in range(1, a_max + 1)
            )
            assert len(pairs) == expected

    def test_all_pairs_strictly_inside_and_irreducible(self):
        for a, b in enumerate_generalized_fibonacci(12):
            assert 1 <= a <= 12
            assert -a - 1 < b < a - 1 and b != 0
            assert is_irreducible(IntCoeffPair(a, b))

    def test_ordering_is_lexicographic(self):
        pairs = enumerate_generalized_fibonacci(9)
        assert pairs == sorted(pairs)

    def test_equals_the_irreducible_pairs_of_dp(self):
        # DP's one closed form decides each pair, b scanned with a margin
        # of 3 beyond DP's column -a-1 <= b <= a-1
        want = [
            (a, b)
            for a in range(1, 41)
            for b in range(-a - 4, a + 3)
            if contains_coeff_plane(RegionId.DP, a, b) and is_irreducible(IntCoeffPair(a, b))
        ]
        assert enumerate_generalized_fibonacci(40) == want
        assert len(want) == 1561

    def test_validation(self):
        with pytest.raises(ValueError):
            enumerate_generalized_fibonacci(0)


class TestBoundaryCharacterization:
    def test_single_pair(self):
        assert boundary_characterization() == [IntCoeffPair(1, -1)]

    def test_ray_points_are_reducible(self):
        # on b = a - 1 the value 1 is a root; on b = -a - 1 it is -1
        for a in range(1, 50):
            assert not is_irreducible(IntCoeffPair(a, a - 1))
            assert not is_irreducible(IntCoeffPair(a, -a - 1))

    def test_irreducible_boundary_points_of_dp_in_a_box(self):
        # DP's slice 1 <= a <= 60, -a - 1 <= b <= a - 1, with a margin around
        # it, so a predicate that grows past DP's edges shows too; a point of
        # DP is on its boundary when a 4-neighbour lies outside DP
        def in_dp(a, b):
            return contains_coeff_plane(RegionId.DP, a, b)

        found = [
            (a, b)
            for a in range(-2, 61)
            for b in range(-63, 62)
            if in_dp(a, b)
            and is_irreducible(IntCoeffPair(a, b))
            and not all(in_dp(a + da, b + db)
                        for da, db in ((1, 0), (-1, 0), (0, 1), (0, -1)))
        ]
        assert found == [(1, -1)]
