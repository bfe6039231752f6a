"""Membership tests and rasters for the monotonicity regions.

Two planes appear.  Root-plane regions constrain a pair of real roots
(alpha, beta) directly; coefficient-plane regions (names carrying the
P suffix) constrain (a, b) through the roots of x^2 - a*x + b.  The
closed coefficient region DP = {a >= 1, -a - 1 <= b <= a - 1} equals the
intersection of the three primed regions; rasters make that visible and
the test suite checks it pointwise.

Membership is decided exactly, on integers.  A point (x, y) is written
as integer numerators X, Y over one positive denominator L; a raster
puts every cell centre of its bbox over one common L, built from the
corner denominators and 2*res, so its cells never touch a Fraction.
Root-plane regions are then integer comparisons.  In the coefficient
plane the roots of x^2 - (X/L)*x + Y/L are (X +- sqrt(N))/(2L) with
N = X^2 - 4*Y*L, the form in which `qfield.quadratic_roots` builds a
spec's roots and the oracle walks its residual.  Each test is the sign
of an integer surd u + v*sqrt(N), decided by `qfield.surd_sign`; alpha
is the plus root iff `qfield.dominant_root_sign(X)` is +1.  No
squareness check is made: the integer sign is exact whether or not N is
a square.  `rasterize`, `contains_coeff_plane` and `contains_root_plane`
all call the same per-region predicates.  The only approximation
anywhere is the 6-significant-digit rendering in CSV output.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from sys import float_info

from .qfield import RationalLike, dominant_root_sign, surd_sign

__all__ = [
    "RegionId",
    "RasterGrid",
    "ROOT_PLANE_REGIONS",
    "COEFF_PLANE_REGIONS",
    "contains_coeff_plane",
    "rasterize",
    "write_pgm",
    "check_csv_range",
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
    DP_BOUNDARY = "DP_BOUNDARY"


ROOT_PLANE_REGIONS = frozenset({RegionId.D1, RegionId.D2, RegionId.D3, RegionId.D})
COEFF_PLANE_REGIONS = frozenset(
    {RegionId.D1P, RegionId.D2P, RegionId.D3P, RegionId.DP, RegionId.DP_BOUNDARY}
)


# Each predicate decides membership of the point (X/L, Y/L), L > 0.
# Root plane: the point is (alpha, beta).


def _d1(X: int, Y: int, L: int) -> bool:
    return X + Y >= L and X >= L and abs(X) >= abs(Y)


def _d2(X: int, Y: int, L: int) -> bool:
    return abs(X + Y) >= abs(Y) and abs(X) >= abs(Y)


def _d3(X: int, Y: int, L: int) -> bool:
    return abs(Y) <= L and abs(X) >= abs(Y)


def _d(X: int, Y: int, L: int) -> bool:
    # closed form of D1 cap D2 cap D3
    return X + Y >= L and X >= L and abs(Y) <= L


# Coefficient plane: the point is (a, b); with N = X^2 - 4*Y*L and
# s = dominant_root_sign(X), alpha = (X + s*sqrt(N))/(2L) and
# beta = (X - s*sqrt(N))/(2L).


def _d1p(X: int, Y: int, L: int) -> bool:
    N = X * X - 4 * Y * L
    if N < 0 or X < L:
        return False  # a real dominant root >= 1 is required
    # alpha - 1 = (X - 2L + s*sqrt(N))/(2L)
    return surd_sign(X - 2 * L, dominant_root_sign(X), N) >= 0


def _d2p(X: int, Y: int, L: int) -> bool:
    N = X * X - 4 * Y * L
    if N < 0:
        return X * X >= Y * L  # |a| against the conjugate modulus sqrt(b)
    # |a| >= |beta|: a - beta = (X + s*sqrt(N))/(2L), a + beta = (3X - s*sqrt(N))/(2L)
    s = dominant_root_sign(X)
    return surd_sign(X, s, N) * surd_sign(3 * X, -s, N) >= 0


def _d3p(X: int, Y: int, L: int) -> bool:
    N = X * X - 4 * Y * L
    if N < 0:
        return Y <= L  # the conjugate modulus sqrt(b) is at most 1
    # |beta| <= 1: beta -+ 1 = (X -+ 2L - s*sqrt(N))/(2L)
    s = dominant_root_sign(X)
    return surd_sign(X - 2 * L, -s, N) * surd_sign(X + 2 * L, -s, N) <= 0


def _dp(X: int, Y: int, L: int) -> bool:
    return X >= L and -X - L <= Y <= X - L


def _dp_boundary(X: int, Y: int, L: int) -> bool:
    if X < L:
        return False
    return (X == L and -2 * L <= Y <= 0) or Y == X - L or Y == -X - L


_MEMBER = {
    RegionId.D1: _d1,
    RegionId.D2: _d2,
    RegionId.D3: _d3,
    RegionId.D: _d,
    RegionId.D1P: _d1p,
    RegionId.D2P: _d2p,
    RegionId.D3P: _d3p,
    RegionId.DP: _dp,
    RegionId.DP_BOUNDARY: _dp_boundary,
}


def _over_common_denominator(x: RationalLike, y: RationalLike) -> tuple[int, int, int]:
    """(X, Y, L) with x = X/L, y = Y/L and L > 0."""
    x, y = Fraction(x), Fraction(y)
    L = lcm(x.denominator, y.denominator)
    return x.numerator * (L // x.denominator), y.numerator * (L // y.denominator), L


def contains_root_plane(region: RegionId, alpha: RationalLike, beta: RationalLike) -> bool:
    """Membership of the root pair (alpha, beta); rational inputs, exact."""
    if region not in ROOT_PLANE_REGIONS:
        raise ValueError(f"{region.value} is not a root-plane region")
    return _MEMBER[region](*_over_common_denominator(alpha, beta))


def contains_coeff_plane(region: RegionId, a: RationalLike, b: RationalLike) -> bool:
    """Membership of the coefficient pair (a, b); rational inputs, exact."""
    if region not in COEFF_PLANE_REGIONS:
        raise ValueError(f"{region.value} is not a coefficient-plane region")
    return _MEMBER[region](*_over_common_denominator(a, b))


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
    """Boolean membership sampled at cell centers.

    cells[row][col] with row 0 along the top edge (largest y); cell
    centers sit at x0 + (col + 1/2)*dx and y1 - (row + 1/2)*dy.
    """

    region: RegionId
    bbox: tuple[Fraction, Fraction, Fraction, Fraction]  # x0, x1, y0, y1
    resolution: int
    cells: tuple[tuple[bool, ...], ...]

    def centers(self):
        """Yield (row, col, x, y) for every cell, row-major."""
        xs, ys, L = _cell_numerators(self.bbox, self.resolution)
        xs = [Fraction(X, L) for X in xs]
        for row, Y in enumerate(ys):
            y = Fraction(Y, L)
            for col, x in enumerate(xs):
                yield row, col, x, y


def rasterize(
    region: RegionId,
    bbox: tuple[RationalLike, RationalLike, RationalLike, RationalLike],
    resolution: int,
) -> RasterGrid:
    """Sample region membership on a resolution x resolution center grid."""
    x0, x1, y0, y1 = box = tuple(Fraction(v) for v in bbox)
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if x0 >= x1 or y0 >= y1:
        raise ValueError("bbox must have positive area")
    member = _MEMBER[region]
    xs, ys, L = _cell_numerators(box, resolution)
    cells = tuple(tuple(member(X, Y, L) for X in xs) for Y in ys)
    return RasterGrid(region, box, resolution, cells)


def write_pgm(grid: RasterGrid, path: str) -> None:
    """Binary PGM (P5, maxval 255): member cells 255, others 0."""
    res = grid.resolution
    with open(path, "wb") as fh:
        fh.write(f"P5\n{res} {res}\n255\n".encode("ascii"))
        fh.write(bytes(255 if cell else 0 for row in grid.cells for cell in row))


def check_csv_range(
    bbox: tuple[Fraction, Fraction, Fraction, Fraction], resolution: int
) -> None:
    """Raise ValueError unless every cell centre prints as a normal float.

    `write_csv` prints centres through `float`.  Corners that fit a float
    bound every centre, which lies inside the bbox.  A nonzero centre X/L
    under the smallest normal float, 2^(min_exp - 1), would print as a
    signed zero or a subnormal of a few bits; |X| * 2^(1 - min_exp) < L
    decides that on integers.
    """
    try:
        for corner in bbox:
            float(corner)
    except OverflowError:
        raise ValueError("bbox corners too large for a float, which CSV output "
                         "prints; write a PGM instead") from None
    xs, ys, L = _cell_numerators(bbox, resolution)
    if any(V and abs(V) << (1 - float_info.min_exp) < L for V in (*xs, *ys)):
        raise ValueError("bbox cell centres too close to zero for a float, which "
                         "CSV output prints; write a PGM instead")


def _sig6(value: Fraction) -> str:
    return format(float(value), ".6g")


def write_csv(grid: RasterGrid, path: str) -> None:
    """One `x,y` line per member cell center, row-major, 6 significant digits."""
    with open(path, "w", encoding="ascii") as fh:
        for row, col, x, y in grid.centers():
            if grid.cells[row][col]:
                fh.write(f"{_sig6(x)},{_sig6(y)}\n")
