"""Integer coefficient pairs: irreducibility, enumeration, the boundary.

For integer (a, b) the polynomial x^2 - a*x + b is reducible over the
integers exactly when its discriminant is a perfect square (a rational
root of a monic integer polynomial is an integer, and the parities of a
and isqrt(disc) agree automatically).  Inside the closed coefficient
region the reducible integer pairs are exactly b in {-a-1, 0, a-1}.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .regions import RegionId, contains_coeff_plane

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
    """Integer pairs strictly inside the coefficient region, reducibles removed.

    For each a in [1, a_max] that is b in [-a, a-2] with b = 0 dropped
    (the values -a-1, 0, a-1 are exactly the reducible ones), ordered by
    a then b.
    """
    if a_max < 1:
        raise ValueError("a_max must be at least 1")
    pairs = []
    for a in range(1, a_max + 1):
        for b in range(-a, a - 1):
            if b != 0:
                pairs.append(IntCoeffPair(a, b))
    return pairs


def boundary_characterization(scan_bound: int = 1000) -> list[IntCoeffPair]:
    """Irreducible integer pairs on the coefficient-region boundary.

    The boundary of DP is the segment a = 1, -2 <= b <= 0 plus the rays
    b = a - 1 and b = -a - 1 for a >= 1.  No ray point is irreducible:
    with p(x) = x^2 - a*x + b, p(1) = 1 - a + b = 0 on b = a - 1 and
    p(-1) = 1 + a + b = 0 on b = -a - 1.  So only DP's column at a = 1
    can contribute, and it is decided directly; the answer is the same
    for every scan_bound >= 1, the range of a the claim covers.
    """
    if scan_bound < 1:
        raise ValueError("scan bound must be at least 1")
    column = (IntCoeffPair(1, b) for b in (-2, -1, 0))
    return [p for p in column
            if contains_coeff_plane(RegionId.DP_BOUNDARY, *p) and is_irreducible(p)]
