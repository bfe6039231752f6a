"""Integer coefficient pairs: irreducibility, enumeration, the boundary.

For integer (a, b) the polynomial x^2 - a*x + b is reducible over the
integers exactly when its discriminant is a perfect square (a rational
root of a monic integer polynomial is an integer, and the parities of a
and isqrt(disc) agree automatically).  Inside the closed coefficient
region the reducible integer pairs are exactly b in {-a-1, 0, a-1}.
Both read DP's one closed form: the enumeration takes each row's
integer points off DP's row bounds (`regions._dp`), and the boundary
characterization reads membership off
`regions.contains_coeff_plane(RegionId.DP, a, b)`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .regions import RegionId, _dp, contains_coeff_plane

__all__ = [
    "IntCoeffPair",
    "is_irreducible",
    "enumerate_generalized_fibonacci",
    "boundary_characterization",
]


class IntCoeffPair(NamedTuple):
    a: int
    b: int


def is_irreducible(pair: IntCoeffPair) -> bool:
    """True iff x^2 - a*x + b has no integer root."""
    a, b = pair
    disc = a * a - 4 * b
    return disc < 0 or math.isqrt(disc) ** 2 != disc


def enumerate_generalized_fibonacci(a_max: int) -> list[IntCoeffPair]:
    """The irreducible integer pairs of the closed coefficient region
    DP = {a >= 1, -a-1 <= b <= a-1} with a <= a_max, ordered by a then b.

    Row b of DP holds the integers a >= hi read off DP's row bounds
    (regions._dp(b, 1)), read once per row; rows b < -a_max - 1 and
    b > a_max - 1 hold none up to a_max.  The pairs come column by
    column, a ascending and in each column b ascending over the rows
    whose bound is at most a, so they need no sort.  The pair (1, -1),
    DP's one irreducible pair at a = 1, lies on its edge.
    """
    if a_max < 1:
        raise ValueError("a_max must be at least 1")
    rows = [(b, _dp(b, 1)[1]) for b in range(-a_max - 1, a_max)]
    pairs = (IntCoeffPair(a, b) for a in range(1, a_max + 1) for b, hi in rows if hi <= a)
    return [p for p in pairs if is_irreducible(p)]


def boundary_characterization() -> list[IntCoeffPair]:
    """Irreducible integer pairs on the coefficient-region boundary.

    The boundary of DP is the segment a = 1, -2 <= b <= 0 plus the rays
    b = a - 1 and b = -a - 1 for a >= 1.  No ray point is irreducible:
    with p(x) = x^2 - a*x + b, p(1) = 1 - a + b = 0 on b = a - 1 and
    p(-1) = 1 + a + b = 0 on b = -a - 1.  So only DP's column at a = 1
    can contribute.  DP's predicate confirms each point of that column,
    and each lies on DP's boundary because DP lies in a >= 1.
    """
    column = (IntCoeffPair(1, b) for b in (-2, -1, 0))
    return [p for p in column if contains_coeff_plane(RegionId.DP, *p) and is_irreducible(p)]
