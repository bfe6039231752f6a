"""First-order rational map carrying the ratio dynamics.

The substitution s[n] = a[n+1]/a[n] turns the linear recurrence into

    s[n+1] = (a*s[n] - b) / s[n],

whose fixed points are exactly the characteristic roots.  Orbits are
computed exactly and stop at a zero state, where the map is undefined.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .qfield import RationalLike

__all__ = ["RiccatiOrbit", "riccati_orbit"]


@dataclass(frozen=True)
class RiccatiOrbit:
    a: Fraction
    b: Fraction
    states: tuple[Fraction, ...]
    terminated_early: Optional[int]  # index of a zero state blocking the map


def riccati_orbit(
    a: RationalLike, b: RationalLike, b0: RationalLike, n_max: int
) -> RiccatiOrbit:
    """States b0 .. b[n_max] of the map, truncated at a zero state."""
    a, b, b0 = Fraction(a), Fraction(b), Fraction(b0)
    if a == 0 or b == 0:
        raise ValueError("both coefficients must be nonzero")
    if b0 == 0:
        raise ValueError("b0 = 0: the map is undefined immediately")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    states = [b0]
    while states[-1] and len(states) <= n_max:
        current = states[-1]
        states.append((a * current - b) / current)
    terminated = len(states) - 1 if states[-1] == 0 else None
    return RiccatiOrbit(a, b, tuple(states), terminated)
