"""Membership tests and rasters for the monotonicity regions.

Two planes appear.  Root-plane regions constrain a pair of real roots
(alpha, beta) directly; coefficient-plane regions (names carrying the
P suffix) constrain (a, b) through the roots of x^2 - a*x + b.  The
closed coefficient region DP = {a >= 1, -a - 1 <= b <= a - 1} equals the
intersection of the three primed regions; rasters make that visible and
the test suite checks it pointwise.  That closed form is DP's one
predicate: `numtheory.boundary_characterization` reads its boundary off
it too.

Membership is decided exactly, on integers.  A point (x, y) is written
as integer numerators X, Y over one positive denominator L:
`contains_coeff_plane` puts its pair over their least common
denominator by `qfield.over_common_denominator`, and a raster puts
every cell centre of its bbox over one common L, built from the corner
denominators and 2*res, so its cells never touch a Fraction.  Root-plane regions are
then integer comparisons.  In the coefficient plane the roots of
x^2 - (X/L)*x + Y/L are (X +- sqrt(N))/(2L) with N = X^2 - 4*Y*L, the
form in which `qfield.quadratic_roots` builds a spec's roots and the
oracle walks its residual.  Each test is the sign of an integer surd
u + v*sqrt(N), decided by `qfield.surd_sign`; alpha is the plus root
iff `qfield.dominant_root_sign(X)` is +1.  No squareness check is made:
the integer sign is exact whether or not N is a square.  `rasterize`
and `contains_coeff_plane` call the same per-region predicates.  CSV
output prints each centre rounded half-even to 6 significant digits by
`qfield.g6_str`, exactly, at any magnitude.

The row lemma.  Along a row (y = b or beta fixed), membership in each
region is non-increasing in x for x < 0 and non-decreasing for
x >= 0, where x is a or alpha:

- DP, D, D1 and D1P are suffixes of the row; for D1P, once a >= 1 both
  a and sqrt(a^2 - 4b) grow with a, and so does alpha;
- D2 and D3 are conditions |x| >= c, with c fixed by y and the sign of x;
- D2P is |a| >= sqrt(b) for b > 0; for b < 0 it is |alpha| >= 2|beta|,
  and |alpha|/|beta| grows with |a|; for b = 0 it holds everywhere;
- D3P: |beta| shrinks as |a| grows, and the region is symmetric under
  a -> -a.

So `rasterize` splits the columns once at x = 0 and bisects each half
with the exact predicate, at most 2*res.bit_length() calls per row: it
decides O(res*log(res)) cells exactly and the lemma gives the rest.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm

from .qfield import RationalLike, dominant_root_sign, g6_str, over_common_denominator, surd_sign

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


_MEMBER = {
    RegionId.D1: _d1,
    RegionId.D2: _d2,
    RegionId.D3: _d3,
    RegionId.D: _d,
    RegionId.D1P: _d1p,
    RegionId.D2P: _d2p,
    RegionId.D3P: _d3p,
    RegionId.DP: _dp,
}


def contains_coeff_plane(region: RegionId, a: RationalLike, b: RationalLike) -> bool:
    """Membership of the coefficient pair (a, b); rational inputs, exact."""
    if region not in COEFF_PLANE_REGIONS:
        raise ValueError(f"{region.value} is not a coefficient-plane region")
    return _MEMBER[region](*over_common_denominator(a, b))


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
    every row is bisected by the row lemma."""
    x0, x1, y0, y1 = box = tuple(Fraction(v) for v in bbox)
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if x0 >= x1 or y0 >= y1:
        raise ValueError("bbox must have positive area")
    member = _MEMBER[region]
    xs, ys, L = _cell_numerators(box, resolution)
    split = bisect_left(xs, 0)
    cells = tuple(_bisected_row(member, xs, split, Y, L) for Y in ys)
    return RasterGrid(region, box, resolution, cells)


def _bisected_row(member, xs: list[int], split: int, Y: int, L: int) -> bytes:
    """Row Y of a region that obeys the row lemma: members are a prefix
    of xs[:split] (x < 0) and a suffix of xs[split:] (x >= 0)."""
    left = bisect_left(xs, True, 0, split, key=lambda X: not member(X, Y, L))
    right = bisect_left(xs, True, split, len(xs), key=lambda X: member(X, Y, L))
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
