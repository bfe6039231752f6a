"""Integer coefficient pairs: irreducibility, Pisot roots, enumeration.

For integer (a, b) the polynomial x^2 - a*x + b is reducible over the
integers exactly when its discriminant is a perfect square (a rational
root of a monic integer polynomial is an integer, and the parities of a
and isqrt(disc) agree automatically).  Inside the closed coefficient
region the reducible integer pairs are exactly b in {-a-1, 0, a-1}, and
every remaining interior pair has a quadratic Pisot dominant root.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .qfield import cmp_abs, quadratic_roots

__all__ = [
    "IntCoeffPair",
    "is_irreducible",
    "is_quadratic_pisot",
    "enumerate_generalized_fibonacci",
    "boundary_characterization",
]


class IntCoeffPair(NamedTuple):
    a: int
    b: int


def _is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    root = math.isqrt(n)
    return root * root == n


def is_irreducible(pair: IntCoeffPair) -> bool:
    """True iff x^2 - a*x + b has no integer root."""
    a, b = pair
    return not _is_perfect_square(a * a - 4 * b)


def is_quadratic_pisot(pair: IntCoeffPair) -> bool:
    """True iff the dominant root is a quadratic Pisot number.

    Requires irreducibility over the integers, a dominant root > 1 and a
    conjugate of absolute value < 1; all comparisons exact.
    """
    if not is_irreducible(pair):
        return False
    roots = quadratic_roots(*pair)
    if roots.discriminant_sign < 0:
        return False
    return (roots.alpha - 1).sign() > 0 and cmp_abs(roots.beta, 1) < 0


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

    The boundary is the segment a = 1, -2 <= b <= 0 plus the rays
    b = a - 1 and b = -a - 1 for a >= 1.  Points on the rays are
    reducible by construction (1 respectively -1 is a root), so only the
    finite segment can contribute and the scan bound cannot change the
    outcome; it is exposed so that stability is checkable.  Candidates
    must both avoid the reducible b values and pass is_irreducible.
    """
    if scan_bound < 1:
        raise ValueError("scan bound must be at least 1")
    found = []
    for a in range(1, scan_bound + 1):
        candidates = [(a, a - 1), (a, -a - 1)]
        if a == 1:
            candidates.extend((1, b) for b in (-2, -1, 0))
        for ca, cb in candidates:
            if cb in (-ca - 1, 0, ca - 1):
                continue
            pair = IntCoeffPair(ca, cb)
            if is_irreducible(pair):
                found.append(pair)
    return sorted(found)
