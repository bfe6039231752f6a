"""Membership tests and rasters for the monotonicity regions.

Two planes appear.  Root-plane regions constrain a pair of real roots
(alpha, beta) directly; coefficient-plane regions (names carrying the
P suffix) constrain (a, b) through the roots of x^2 - a*x + b.  The
closed coefficient region DP = {a >= 1, -a - 1 <= b <= a - 1} equals the
intersection of the three primed regions; rasters make that visible and
the test suite checks it pointwise.  That closed form, as DP's row
bounds, is its one definition: `numtheory.boundary_characterization`
reads its boundary off it too.

Membership is decided exactly, on integers.  A point (x, y) is written
as integer numerators X, Y over one positive denominator L:
`contains_coeff_plane` puts its pair over their least common
denominator by `qfield.over_common_denominator`, and a raster puts
every cell centre of its bbox over one common L, built from the corner
denominators and 2*res, so its cells never touch a Fraction.  CSV
output prints each centre rounded half-even to 6 significant digits by
`qfield.g6_str`, exactly, at any magnitude.

Row bounds.  Each region is one function of its row, (Y, L) -> (lo, hi):
the point (X/L, Y/L) is a member iff X <= lo where X < 0, or X >= hi
where X >= 0, and a bound of None means that side of the row holds no
member.  So along a row (y = b or beta fixed) the members are a prefix
of the cells with x < 0 and a suffix of those with x >= 0, by
construction: `rasterize` finds both ends of a row by bisection on its
integer numerators, and `contains_coeff_plane` makes one comparison.
Write c(m) for the least X >= 0 with X^2 >= m, 0 for m <= 0 and
isqrt(m - 1) + 1 otherwise; each bound is read off the region's
definition as follows.

Root plane, (x, y) = (alpha, beta):

- D1 = {alpha + beta >= 1, alpha >= 1, |alpha| >= |beta|}: alpha >= 1
  leaves no member with x < 0, and hi = max(L - Y, L, |Y|).
- D2 = {|alpha + beta| >= |beta|, |alpha| >= |beta|}: for X >= 0 and
  Y >= 0 both read X >= Y; for Y < 0 they read X >= -Y and
  (X >= -2Y or X <= 0), so X >= -2Y.  The side x < 0 mirrors it:
  lo = Y for Y <= 0 and -2Y for Y > 0.
- D3 = {|beta| <= 1, |alpha| >= |beta|}: |X| >= |Y| where |Y| <= L.
- D = D1 & D2 & D3, whose closed form is {alpha + beta >= 1,
  alpha >= 1, |beta| <= 1}: hi = max(L - Y, L) where |Y| <= L.

Coefficient plane, (x, y) = (a, b): the roots of x^2 - a*x + b are
(X +- sqrt(N))/(2L) with N = X^2 - 4*Y*L, and alpha, the one of larger
modulus, is the plus root for X >= 0.  Each condition on a root squares
into one of degree at most 2 in X, Y and L:

- D1P = {a >= 1, real roots, alpha >= 1}: real roots are N >= 0, that
  is X >= c(4YL).  Given X >= L, alpha = (X + sqrt(N))/(2L) >= 1 holds
  outright for X >= 2L, and otherwise iff N >= (2L - X)^2, that is
  X >= L + Y: hi = max(L, min(2L, L + Y), c(4YL)).
- D2P = {|a| >= |beta|}, read |a| >= sqrt(b) for complex roots: for
  Y > 0 both read X^2 >= YL, since real roots then share a's sign and
  N >= 0 gives X^2 >= 4YL: hi = c(YL).  For Y = 0 the roots are a and
  0 and every point is a member.  For Y < 0 the real roots have
  opposite signs, |beta| = (sqrt(N) - |X|)/(2L), and |a| >= |beta| iff
  3|X| >= sqrt(N) iff 2X^2 >= -YL: hi = c(ceil(-YL/2)).
- D3P = {|beta| <= 1}, read b <= 1 for complex roots: for |Y| <= L
  every point is a member, as real roots have |beta|^2 <= |b|.  For
  Y > L complex roots have b > 1, and real roots share a's sign with a
  product above 1, so for X >= 0 one lies in [-1, 1] iff
  p(1) = (L - X + Y)/L <= 0: hi = Y + L, where N >= (Y - L)^2 holds.
  For Y < -L the roots have opposite signs and one lies in [-1, 1] iff
  p(1) >= 0 or p(-1) >= 0, for X >= 0 iff X >= -Y - L.
- DP: hi = max(L, L + Y, -L - Y), its closed form on the row.

D2P and D3P are symmetric under a -> -a, so their lo is -hi.  Only
`isqrt` touches a square, and its result is exact.  The decision
procedures reach the coefficient-plane regions through `QuadElem`
signs on a spec's own roots instead; the two routes share no code, and
the tests check them against each other.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import isqrt, lcm
from typing import Optional

from .qfield import RationalLike, g6_str, over_common_denominator

__all__ = [
    "RegionId",
    "RasterGrid",
    "COEFF_PLANE_REGIONS",
    "contains_coeff_plane",
    "rasterize",
    "write_pgm",
    "write_csv",
]


class RegionId(Enum):
    D1 = "D1"
    D2 = "D2"
    D3 = "D3"
    D = "D"
    D1P = "D1P"
    D2P = "D2P"
    D3P = "D3P"
    DP = "DP"


COEFF_PLANE_REGIONS = frozenset({RegionId.D1P, RegionId.D2P, RegionId.D3P, RegionId.DP})


_Bounds = tuple[Optional[int], Optional[int]]


def _ceil_sqrt(m: int) -> int:
    """c(m), the least X >= 0 with X*X >= m."""
    return isqrt(m - 1) + 1 if m > 0 else 0


# Each function gives row Y's bounds (lo, hi) over L > 0, as the module
# docstring derives them.  Root plane: the point is (alpha, beta).


def _d1(Y: int, L: int) -> _Bounds:
    return None, max(L - Y, L, abs(Y))


def _d2(Y: int, L: int) -> _Bounds:
    return (Y, -2 * Y) if Y <= 0 else (-2 * Y, Y)


def _d3(Y: int, L: int) -> _Bounds:
    return (-abs(Y), abs(Y)) if abs(Y) <= L else (None, None)


def _d(Y: int, L: int) -> _Bounds:
    return None, (max(L - Y, L) if abs(Y) <= L else None)


# Coefficient plane: the point is (a, b).


def _d1p(Y: int, L: int) -> _Bounds:
    return None, max(L, min(2 * L, L + Y), _ceil_sqrt(4 * Y * L))


def _d2p(Y: int, L: int) -> _Bounds:
    hi = _ceil_sqrt(Y * L if Y > 0 else -(Y * L // 2))
    return -hi, hi


def _d3p(Y: int, L: int) -> _Bounds:
    hi = Y + L if Y > L else max(0, -Y - L)
    return -hi, hi


def _dp(Y: int, L: int) -> _Bounds:
    return None, max(L, L + Y, -L - Y)


_BOUNDS = {
    RegionId.D1: _d1,
    RegionId.D2: _d2,
    RegionId.D3: _d3,
    RegionId.D: _d,
    RegionId.D1P: _d1p,
    RegionId.D2P: _d2p,
    RegionId.D3P: _d3p,
    RegionId.DP: _dp,
}


def _contains(region: RegionId, X: int, Y: int, L: int) -> bool:
    """Membership of the point (X/L, Y/L), L > 0, by its row's bounds."""
    lo, hi = _BOUNDS[region](Y, L)
    if X < 0:
        return lo is not None and X <= lo
    return hi is not None and X >= hi


def contains_coeff_plane(region: RegionId, a: RationalLike, b: RationalLike) -> bool:
    """Membership of the coefficient pair (a, b); rational inputs, exact."""
    if region not in COEFF_PLANE_REGIONS:
        raise ValueError(f"{region.value} is not a coefficient-plane region")
    return _contains(region, *over_common_denominator(a, b))


def _cell_numerators(
    bbox: tuple[Fraction, Fraction, Fraction, Fraction], resolution: int
) -> tuple[list[int], list[int], int]:
    """(Xs by column, Ys by row, L): cell centres as numerators over L.

    The centre x0 + (2*col + 1)*(x1 - x0)/(2*res) is an integer over
    L = 2*res*lcm of the corner denominators, and so is every y.
    """
    L = 2 * resolution * lcm(*(v.denominator for v in bbox))
    X0, X1, Y0, Y1 = (v.numerator * (L // v.denominator) for v in bbox)
    step_x = (X1 - X0) // (2 * resolution)
    step_y = (Y1 - Y0) // (2 * resolution)
    xs = [X0 + (2 * col + 1) * step_x for col in range(resolution)]
    ys = [Y1 - (2 * row + 1) * step_y for row in range(resolution)]
    return xs, ys, L


@dataclass(frozen=True)
class RasterGrid:
    """Membership sampled at cell centers, 1 for a member and 0 otherwise.

    cells[row][col] with row 0 along the top edge (largest y); each row
    is a bytes object, one byte per cell.  Cell centers sit at
    x0 + (col + 1/2)*dx and y1 - (row + 1/2)*dy.
    """

    region: RegionId
    bbox: tuple[Fraction, Fraction, Fraction, Fraction]  # x0, x1, y0, y1
    resolution: int
    cells: tuple[bytes, ...]


def rasterize(
    region: RegionId,
    bbox: tuple[RationalLike, RationalLike, RationalLike, RationalLike],
    resolution: int,
) -> RasterGrid:
    """Sample region membership on a resolution x resolution center grid;
    each row is cut at its two bounds."""
    x0, x1, y0, y1 = box = tuple(Fraction(v) for v in bbox)
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if x0 >= x1 or y0 >= y1:
        raise ValueError("bbox must have positive area")
    bounds = _BOUNDS[region]
    xs, ys, L = _cell_numerators(box, resolution)
    split = bisect_left(xs, 0)
    cells = tuple(_row(xs, split, *bounds(Y, L)) for Y in ys)
    return RasterGrid(region, box, resolution, cells)


def _row(xs: list[int], split: int, lo: Optional[int], hi: Optional[int]) -> bytes:
    """One row's cells: members are the X <= lo of xs[:split] (x < 0)
    and the X >= hi of xs[split:] (x >= 0)."""
    left = 0 if lo is None else bisect_right(xs, lo, 0, split)
    right = len(xs) if hi is None else bisect_left(xs, hi, split)
    return b"\x01" * left + b"\x00" * (right - left) + b"\x01" * (len(xs) - right)


_PGM_LEVELS = bytes.maketrans(b"\x01", b"\xff")  # member 1 -> 255, others 0 -> 0


def write_pgm(grid: RasterGrid, path: str) -> None:
    """Binary PGM (P5, maxval 255): member cells 255, others 0."""
    res = grid.resolution
    with open(path, "wb") as fh:
        fh.write(f"P5\n{res} {res}\n255\n".encode("ascii"))
        fh.write(b"".join(grid.cells).translate(_PGM_LEVELS))


def write_csv(grid: RasterGrid, path: str) -> None:
    """One `x,y` line per member cell center, row-major, 6 significant digits."""
    xs, ys, L = _cell_numerators(grid.bbox, grid.resolution)
    columns = [g6_str(Fraction(X, L)) for X in xs]
    with open(path, "w", encoding="ascii") as fh:
        for Y, row in zip(ys, grid.cells):
            y = g6_str(Fraction(Y, L))
            fh.writelines(f"{x},{y}\n" for x, cell in zip(columns, row) if cell)
