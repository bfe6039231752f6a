"""Membership tests and rasters for the monotonicity regions.

Two planes appear.  Root-plane regions constrain a pair of real roots
(alpha, beta) directly; coefficient-plane regions (names carrying the
P suffix) constrain (a, b) through the roots of x^2 - a*x + b.  The
closed coefficient region DP = {a >= 1, -a - 1 <= b <= a - 1} equals the
intersection of the three primed regions; rasters make that visible and
the test suite checks it pointwise.

Membership is evaluated at exact rational cell centers; the only
approximation anywhere is the 6-significant-digit rendering in CSV
output.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .qfield import QuadElem, RationalLike, cmp_abs, order_by_modulus, quadratic_roots

__all__ = [
    "RegionId",
    "RasterGrid",
    "ROOT_PLANE_REGIONS",
    "COEFF_PLANE_REGIONS",
    "contains_root_plane",
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
    DP_BOUNDARY = "DP_BOUNDARY"


ROOT_PLANE_REGIONS = frozenset({RegionId.D1, RegionId.D2, RegionId.D3, RegionId.D})
COEFF_PLANE_REGIONS = frozenset(
    {RegionId.D1P, RegionId.D2P, RegionId.D3P, RegionId.DP, RegionId.DP_BOUNDARY}
)


def contains_root_plane(region: RegionId, alpha: RationalLike, beta: RationalLike) -> bool:
    """Membership of the root pair (alpha, beta); rational inputs, exact."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    if region is RegionId.D1:
        return alpha + beta >= 1 and alpha >= 1 and abs(alpha) >= abs(beta)
    if region is RegionId.D2:
        return abs(alpha + beta) >= abs(beta) and abs(alpha) >= abs(beta)
    if region is RegionId.D3:
        return abs(beta) <= 1 and abs(alpha) >= abs(beta)
    if region is RegionId.D:
        # closed form of D1 cap D2 cap D3
        return alpha + beta >= 1 and alpha >= 1 and abs(beta) <= 1
    raise ValueError(f"{region.value} is not a root-plane region")


@lru_cache(maxsize=1 << 16)
def _ordered_roots(a: Fraction, b: Fraction) -> tuple[QuadElem, QuadElem]:
    """(alpha, beta) at a grid point with disc >= 0, a = 0 or b = 0 allowed.

    Cached so that the D1P, D2P and D3P rasters of one bbox build each
    point's roots once.
    """
    return order_by_modulus(quadratic_roots(a, b))


def contains_coeff_plane(region: RegionId, a: RationalLike, b: RationalLike) -> bool:
    """Membership of the coefficient pair (a, b); rational inputs, exact."""
    a, b = Fraction(a), Fraction(b)
    if region is RegionId.DP:
        return a >= 1 and -a - 1 <= b <= a - 1
    if region is RegionId.DP_BOUNDARY:
        if a < 1:
            return False
        return (a == 1 and -2 <= b <= 0) or b == a - 1 or b == -a - 1
    if region not in COEFF_PLANE_REGIONS:
        raise ValueError(f"{region.value} is not a coefficient-plane region")
    disc = a * a - 4 * b
    if region is RegionId.D1P:
        if disc < 0 or a < 1:
            return False  # a real dominant root >= 1 is required
        alpha, _ = _ordered_roots(a, b)
        return (alpha - 1).sign() >= 0
    if region is RegionId.D2P:
        if disc < 0:
            return a * a >= b  # |a| against the conjugate modulus sqrt(b)
        _, beta = _ordered_roots(a, b)
        return cmp_abs(a, beta) >= 0
    # D3P
    if disc < 0:
        return b <= 1
    _, beta = _ordered_roots(a, b)
    return cmp_abs(beta, 1) <= 0


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

    def member_count(self) -> int:
        return sum(sum(row) for row in self.cells)

    def centers(self):
        """Yield (row, col, x, y) for every cell, row-major."""
        x0, x1, y0, y1 = self.bbox
        dx = (x1 - x0) / self.resolution
        dy = (y1 - y0) / self.resolution
        for row in range(self.resolution):
            y = y1 - (2 * row + 1) * dy / 2
            for col in range(self.resolution):
                yield row, col, x0 + (2 * col + 1) * dx / 2, y


def rasterize(
    region: RegionId,
    bbox: tuple[RationalLike, RationalLike, RationalLike, RationalLike],
    resolution: int,
) -> RasterGrid:
    """Sample region membership on a resolution x resolution center grid."""
    x0, x1, y0, y1 = (Fraction(v) for v in bbox)
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if x0 >= x1 or y0 >= y1:
        raise ValueError("bbox must have positive area")
    member = (
        contains_root_plane if region in ROOT_PLANE_REGIONS else contains_coeff_plane
    )
    dx = (x1 - x0) / resolution
    dy = (y1 - y0) / resolution
    xs = [x0 + (2 * col + 1) * dx / 2 for col in range(resolution)]
    rows = []
    for row in range(resolution):
        y = y1 - (2 * row + 1) * dy / 2
        rows.append(tuple(member(region, x, y) for x in xs))
    return RasterGrid(region, (x0, x1, y0, y1), resolution, tuple(rows))


def write_pgm(grid: RasterGrid, path: str) -> None:
    """Binary PGM (P5, maxval 255): member cells 255, others 0."""
    res = grid.resolution
    with open(path, "wb") as fh:
        fh.write(f"P5\n{res} {res}\n255\n".encode("ascii"))
        fh.write(bytes(255 if cell else 0 for row in grid.cells for cell in row))


def _sig6(value: Fraction) -> str:
    return format(float(value), ".6g")


def write_csv(grid: RasterGrid, path: str) -> None:
    """One `x,y` line per member cell center, row-major, 6 significant digits."""
    with open(path, "w", encoding="ascii") as fh:
        for row, col, x, y in grid.centers():
            if grid.cells[row][col]:
                fh.write(f"{_sig6(x)},{_sig6(y)}\n")
