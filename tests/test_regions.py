"""Region membership, the intersection identities, raster output
formats, and agreement between region membership and the per-spec
decision procedures.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import repeat
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recmono.regions as regions
from recmono import (
    COEFF_PLANE_REGIONS,
    RegionId,
    RecurrenceSpec,
    contains_coeff_plane,
    make_h_spec,
    positive_monotone_h,
    rasterize,
    ratio_monotone_h,
    weighted_monotone,
    write_csv,
    write_pgm,
)
from recmono.qfield import dominant_root_sign, over_common_denominator, surd_sign
from recmono.regions import _cell_numerators

ROOT_BBOX = (-3, 3, -3, 3)
COEFF_BBOX = (-1, 5, -7, 5)
ROOT_PLANE_REGIONS = frozenset(RegionId) - COEFF_PLANE_REGIONS


def contains_root_plane(region, alpha, beta):
    """Membership of the root pair (alpha, beta) through the row bounds
    that `rasterize` reads; rational inputs, exact."""
    if region not in ROOT_PLANE_REGIONS:
        raise ValueError(f"{region.value} is not a root-plane region")
    return regions._contains(region, *over_common_denominator(alpha, beta))


# The reference: each region's membership of the point (X/L, Y/L), L > 0,
# decided cell by cell from its definition, with the roots of
# x^2 - (X/L)*x + Y/L in the coefficient plane written as surds
# (X +- sqrt(N))/(2L), N = X^2 - 4*Y*L, and alpha the plus root iff
# dominant_root_sign(X) is +1.  The package's row bounds must agree with
# it at every point.


def _ref_d1(X, Y, L):
    return X + Y >= L and X >= L and abs(X) >= abs(Y)


def _ref_d2(X, Y, L):
    return abs(X + Y) >= abs(Y) and abs(X) >= abs(Y)


def _ref_d3(X, Y, L):
    return abs(Y) <= L and abs(X) >= abs(Y)


def _ref_d(X, Y, L):
    return X + Y >= L and X >= L and abs(Y) <= L


def _ref_d1p(X, Y, L):
    N = X * X - 4 * Y * L
    if N < 0 or X < L:
        return False  # a real dominant root >= 1 is required
    # alpha - 1 = (X - 2L + s*sqrt(N))/(2L)
    return surd_sign(X - 2 * L, dominant_root_sign(X), N) >= 0


def _ref_d2p(X, Y, L):
    N = X * X - 4 * Y * L
    if N < 0:
        return X * X >= Y * L  # |a| against the conjugate modulus sqrt(b)
    # |a| >= |beta|: a - beta = (X + s*sqrt(N))/(2L), a + beta = (3X - s*sqrt(N))/(2L)
    s = dominant_root_sign(X)
    return surd_sign(X, s, N) * surd_sign(3 * X, -s, N) >= 0


def _ref_d3p(X, Y, L):
    N = X * X - 4 * Y * L
    if N < 0:
        return Y <= L  # the conjugate modulus sqrt(b) is at most 1
    # |beta| <= 1: beta -+ 1 = (X -+ 2L - s*sqrt(N))/(2L)
    s = dominant_root_sign(X)
    return surd_sign(X - 2 * L, -s, N) * surd_sign(X + 2 * L, -s, N) <= 0


def _ref_dp(X, Y, L):
    return X >= L and -X - L <= Y <= X - L


REFERENCE = {
    RegionId.D1: _ref_d1,
    RegionId.D2: _ref_d2,
    RegionId.D3: _ref_d3,
    RegionId.D: _ref_d,
    RegionId.D1P: _ref_d1p,
    RegionId.D2P: _ref_d2p,
    RegionId.D3P: _ref_d3p,
    RegionId.DP: _ref_dp,
}


def reference(region, x, y):
    """The reference membership of the rational point (x, y)."""
    return REFERENCE[region](*over_common_denominator(x, y))


def centers(grid):
    """(row, col, x, y) for every cell, row-major, by the formula
    x0 + (2*col + 1)*(x1 - x0)/(2*res) in Fractions, y counted down from y1."""
    x0, x1, y0, y1 = grid.bbox
    res = grid.resolution
    xs = [x0 + (2 * col + 1) * (x1 - x0) / (2 * res) for col in range(res)]
    for row in range(res):
        y = y1 - (2 * row + 1) * (y1 - y0) / (2 * res)
        for col, x in enumerate(xs):
            yield row, col, x, y


class TestRootPlaneMembership:
    def test_d1(self):
        assert contains_root_plane(RegionId.D1, 2, Fraction(1, 2))
        assert contains_root_plane(RegionId.D1, 1, 1)
        assert not contains_root_plane(RegionId.D1, Fraction(1, 2), 0)
        assert not contains_root_plane(RegionId.D1, 3, -3)
        assert not contains_root_plane(RegionId.D1, 1, 2)  # |beta| wins

    def test_d2(self):
        assert contains_root_plane(RegionId.D2, 2, 1)
        assert contains_root_plane(RegionId.D2, -2, 1)
        assert not contains_root_plane(RegionId.D2, 1, -1)
        assert not contains_root_plane(RegionId.D2, Fraction(1, 2), Fraction(-1, 2))

    def test_d3(self):
        assert contains_root_plane(RegionId.D3, 5, 1)
        assert not contains_root_plane(RegionId.D3, 5, 2)
        assert not contains_root_plane(RegionId.D3, Fraction(1, 2), 1)

    def test_d(self):
        assert contains_root_plane(RegionId.D, 2, Fraction(1, 2))
        assert contains_root_plane(RegionId.D, 1, 1)
        assert not contains_root_plane(RegionId.D, 1, -1)

    def test_plane_mixups_rejected(self):
        with pytest.raises(ValueError):
            contains_root_plane(RegionId.DP, 1, 1)
        with pytest.raises(ValueError):
            contains_coeff_plane(RegionId.D1, 1, 1)


class TestCoeffPlaneMembership:
    def test_dp(self):
        assert contains_coeff_plane(RegionId.DP, 1, -1)
        assert contains_coeff_plane(RegionId.DP, 1, 0)
        assert contains_coeff_plane(RegionId.DP, 3, 2)
        assert not contains_coeff_plane(RegionId.DP, 1, 1)
        assert not contains_coeff_plane(RegionId.DP, 3, 3)
        assert not contains_coeff_plane(RegionId.DP, Fraction(1, 2), 0)

    def test_d1p(self):
        assert contains_coeff_plane(RegionId.D1P, 1, -1)
        assert contains_coeff_plane(RegionId.D1P, 3, 1)
        assert not contains_coeff_plane(RegionId.D1P, 1, Fraction(1, 4))
        assert not contains_coeff_plane(RegionId.D1P, Fraction(1, 2), Fraction(-1, 2))
        assert not contains_coeff_plane(RegionId.D1P, 1, 1)  # complex
        assert contains_coeff_plane(RegionId.D1P, 1, 0)  # roots 1 and 0

    def test_d2p(self):
        assert contains_coeff_plane(RegionId.D2P, 1, -1)
        assert not contains_coeff_plane(RegionId.D2P, 1, -3)
        assert contains_coeff_plane(RegionId.D2P, 1, 1)  # complex, a*a >= b
        assert not contains_coeff_plane(RegionId.D2P, 1, 2)
        # grid points on the axes, which RecurrenceSpec refuses
        assert not contains_coeff_plane(RegionId.D2P, 0, Fraction(-1, 4))  # roots +-1/2
        assert contains_coeff_plane(RegionId.D2P, 3, 0)  # roots 3 and 0
        assert contains_coeff_plane(RegionId.D2P, -3, 0)  # roots -3 and 0

    def test_d3p(self):
        assert contains_coeff_plane(RegionId.D3P, 1, -1)
        assert contains_coeff_plane(RegionId.D3P, 2, 1)
        assert contains_coeff_plane(RegionId.D3P, 3, 2)  # roots 2 and 1
        assert not contains_coeff_plane(RegionId.D3P, 1, -3)
        assert contains_coeff_plane(RegionId.D3P, 1, 1)  # complex, b <= 1
        assert not contains_coeff_plane(RegionId.D3P, 2, 2)
        # grid points on the axes, which RecurrenceSpec refuses
        assert not contains_coeff_plane(RegionId.D3P, 0, -4)  # roots +-2
        assert contains_coeff_plane(RegionId.D3P, 0, -1)  # roots +-1
        assert contains_coeff_plane(RegionId.D3P, -3, 0)  # beta = 0, alpha = -3

    def test_region_sets(self):
        assert ROOT_PLANE_REGIONS == {RegionId.D1, RegionId.D2, RegionId.D3, RegionId.D}
        assert RegionId.DP in COEFF_PLANE_REGIONS


class TestIntersectionIdentities:
    RES = 41

    def test_root_plane_identity(self):
        grids = {
            r: rasterize(r, ROOT_BBOX, self.RES)
            for r in (RegionId.D1, RegionId.D2, RegionId.D3, RegionId.D)
        }
        for row in range(self.RES):
            for col in range(self.RES):
                want = (
                    grids[RegionId.D1].cells[row][col]
                    and grids[RegionId.D2].cells[row][col]
                    and grids[RegionId.D3].cells[row][col]
                )
                assert grids[RegionId.D].cells[row][col] == want, (row, col)

    def test_coeff_plane_identity(self):
        grids = {
            r: rasterize(r, COEFF_BBOX, self.RES)
            for r in (RegionId.D1P, RegionId.D2P, RegionId.D3P, RegionId.DP)
        }
        for row in range(self.RES):
            for col in range(self.RES):
                want = (
                    grids[RegionId.D1P].cells[row][col]
                    and grids[RegionId.D2P].cells[row][col]
                    and grids[RegionId.D3P].cells[row][col]
                )
                assert grids[RegionId.DP].cells[row][col] == want, (row, col)


class TestDecisionConsistency:
    """Coefficient-plane membership must agree with the per-spec
    decisions evaluated at the same rational point (unit seed)."""

    def _centers(self):
        grid = rasterize(RegionId.DP, COEFF_BBOX, 25)
        for _, _, a, b in centers(grid):
            if a != 0 and b != 0:
                yield a, b

    def test_d1p_matches_positive_monotone(self):
        for a, b in self._centers():
            want = contains_coeff_plane(RegionId.D1P, a, b)
            got = positive_monotone_h(make_h_spec(a, b, 1)).holds
            assert got == want, (a, b)

    def test_d2p_matches_ratio_monotone_on_real_points(self):
        for a, b in self._centers():
            if a * a - 4 * b < 0:
                continue
            want = contains_coeff_plane(RegionId.D2P, a, b)
            got = ratio_monotone_h(make_h_spec(a, b, 1)).holds
            assert got == want, (a, b)

    def test_d3p_matches_weighted(self):
        for a, b in self._centers():
            want = contains_coeff_plane(RegionId.D3P, a, b)
            got = weighted_monotone(RecurrenceSpec(a, b, 1, a)).holds
            assert got == want, (a, b)

    @staticmethod
    def _boundary_points():
        """Points on the curves where membership flips.

        b = a - 1 (a root at 1), b = -a - 1 (a root at -1), b = a^2/4 (a
        repeated root), square discriminants (rational roots) and a near
        0, where the dominant root changes sides.
        """
        near_zero = [Fraction(s, n) for s in (-1, 1) for n in (97, 1000, 10**6)]
        a_values = [Fraction(n, d) for d in (1, 2, 3, 5, 7) for n in range(-4 * d, 4 * d + 1)]
        for a in a_values + near_zero:
            if a == 0:
                continue
            curves = [a - 1, -a - 1, a * a / 4]
            curves += [(a * a - r * r) / 4 for r in (Fraction(1, 2), 1, Fraction(2, 3), 3)]
            for b in curves:
                if b != 0:
                    yield a, b

    def test_boundary_points_match_decisions(self):
        # two routes that share no code but over_common_denominator: the
        # decisions take one surd_sign per root clause on the spec's
        # integer form, the regions compare X with their row's
        # closed-form integer bounds over L
        checked = 0
        for a, b in self._boundary_points():
            assert contains_coeff_plane(RegionId.D1P, a, b) == (
                positive_monotone_h(make_h_spec(a, b, 1)).holds), (a, b)
            assert contains_coeff_plane(RegionId.D3P, a, b) == (
                weighted_monotone(RecurrenceSpec(a, b, 1, a)).holds), (a, b)
            if a * a - 4 * b >= 0:
                assert contains_coeff_plane(RegionId.D2P, a, b) == (
                    ratio_monotone_h(make_h_spec(a, b, 1)).holds), (a, b)
            checked += 1
        assert checked > 1000


class TestRasterGrid:
    # unlike corner denominators 3, 5 and 7, so the cells' common
    # denominator is none of the corners'; the third bbox is symmetric,
    # so at odd resolution its centre row and column sit on the axes;
    # the last two lie wholly left and wholly right of x = 0, so each
    # row is one monotone half
    BBOXES = (
        (Fraction(-7, 3), Fraction(11, 5), Fraction(-13, 7), Fraction(9, 7)),
        (Fraction(-1, 5), Fraction(17, 3), Fraction(-22, 3), Fraction(26, 5)),
        (Fraction(-9, 7), Fraction(9, 7), Fraction(-12, 5), Fraction(12, 5)),
        (Fraction(-23, 5), Fraction(-1, 3), Fraction(-17, 7), Fraction(13, 3)),
        (Fraction(1, 7), Fraction(21, 5), Fraction(-19, 3), Fraction(11, 7)),
    )

    def test_cells_match_pointwise_membership(self):
        for region in RegionId:
            for bbox in self.BBOXES:
                for res in (8, 11):
                    grid = rasterize(region, bbox, res)
                    for row, col, x, y in centers(grid):
                        assert grid.cells[row][col] == reference(region, x, y), (
                            region, bbox, res, row, col)

    def test_centers_are_exact_rationals(self):
        # the raster's integer numerators over L are the formula's centres
        xs, ys, L = _cell_numerators(ROOT_BBOX, 8)
        assert Fraction(xs[0], L) == Fraction(-3) + Fraction(6, 8) / 2
        assert Fraction(ys[0], L) == Fraction(3) - Fraction(6, 8) / 2
        for bbox in self.BBOXES:
            for res in (8, 11):
                grid = rasterize(RegionId.D, bbox, res)
                xs, ys, L = _cell_numerators(grid.bbox, res)
                assert all(isinstance(V, int) for V in (*xs, *ys, L))
                assert [(Fraction(Y, L), Fraction(X, L)) for Y in ys for X in xs] == [
                    (y, x) for _, _, x, y in centers(grid)], (bbox, res)

    def test_determinism(self):
        one = rasterize(RegionId.DP, COEFF_BBOX, 16)
        two = rasterize(RegionId.DP, COEFF_BBOX, 16)
        assert one == two

    def test_validation(self):
        with pytest.raises(ValueError):
            rasterize(RegionId.DP, COEFF_BBOX, 1)
        with pytest.raises(ValueError):
            rasterize(RegionId.DP, (0, 0, -1, 1), 8)

    @pytest.mark.parametrize("bbox", [(0, 0, -1, 1), (-1, 1, 2, 2), (1, -1, -1, 1),
                                      (-1, 1, 1, -1)])
    def test_empty_bbox_is_refused_by_its_own_message(self, bbox):
        # the area is read on the corners' integer numerators, before any
        # centre is built
        with pytest.raises(ValueError, match="bbox must have positive area"):
            rasterize(RegionId.D, bbox, 8)


@st.composite
def raster_boxes(draw):
    """(bbox, res) with rational corners wholly left of x = 0, wholly
    right of it, across it, or with a column centre exactly on it; half
    of them put a row centre exactly on y = 0, 1 or -1."""
    res = draw(st.integers(2, 12))
    offset = st.fractions(0, 6, max_denominator=9)
    size = st.fractions(Fraction(1, 9), 8, max_denominator=9)
    w, h = draw(size), draw(size)
    side = draw(st.sampled_from(["left", "right", "across", "on axis"]))
    if side == "left":
        x0 = -draw(offset) - w
    elif side == "right":
        x0 = draw(offset)
    elif side == "across":
        x0 = -draw(size)
        w += -x0
    else:
        x0 = -(2 * draw(st.integers(0, res - 1)) + 1) * w / (2 * res)
    if draw(st.booleans()):
        row = draw(st.integers(0, res - 1))
        y1 = draw(st.sampled_from([0, 1, -1])) + (2 * row + 1) * h / (2 * res)
    else:
        y1 = draw(st.fractions(-6, 8, max_denominator=9))
    return (x0, x0 + w, y1 - h, y1), res


class TestRowLemma:
    """Along a row, members form a prefix of the cells with x < 0 and a
    suffix of those with x >= 0, cut where the row's bounds fall."""

    @given(case=raster_boxes())
    @settings(max_examples=150, deadline=None)
    def test_bisected_rows_match_pointwise_membership(self, case):
        bbox, res = case
        for region in RegionId:
            grid = rasterize(region, bbox, res)
            for row, col, x, y in centers(grid):
                assert grid.cells[row][col] == reference(region, x, y), (region, row, col)

    @pytest.mark.parametrize("res", [33, 64, 201])
    def test_each_row_evaluates_its_bounds_once(self, monkeypatch, res):
        for region in RegionId:
            bounds = regions._BOUNDS[region]
            calls = Counter()

            def counted(Y, L, bounds=bounds, calls=calls):
                calls[Y] += 1
                return bounds(Y, L)

            monkeypatch.setitem(regions._BOUNDS, region, counted)
            bbox = ROOT_BBOX if region in ROOT_PLANE_REGIONS else COEFF_BBOX
            rasterize(region, bbox, res)
            assert len(calls) == res
            assert set(calls.values()) == {1}, region


@st.composite
def points_near_a_bound(draw):
    """(X, Y, L) with X within 2 of a curve where some region's membership
    flips on the row Y, or anywhere; Y and L up to 10^30."""
    big = 10**30
    Y, L = draw(st.integers(-big, big)), draw(st.integers(1, big))
    m = abs(Y * L)
    curves = [0, L, 2 * L, L - Y, L + Y, -L - Y, Y, 2 * Y, isqrt(4 * m), isqrt(m), isqrt(m // 2),
              draw(st.integers(-big, big))]
    X = draw(st.sampled_from(curves)) + draw(st.integers(-2, 2))
    return X * draw(st.sampled_from([1, -1])), Y, L


class TestBoundsAgainstReference:
    """Every region's row bounds agree with the reference's cell-by-cell
    surd test at every point tried."""

    @pytest.mark.parametrize("L", [1, 2, 3, 6, 7, 12, 66])
    def test_every_point_of_a_square(self, L):
        # the square |X|, |Y| <= 9L crosses every curve where membership
        # flips, and holds the axes and the lines |x|, |y| = 1 and x = 2
        # with margin on both sides; each row is cut from its bounds, the
        # X <= lo with X < 0 and the X >= hi with X >= 0
        R = 9 * L
        xs = list(range(-R, R + 1))
        for region in RegionId:
            bounds, member = regions._BOUNDS[region], REFERENCE[region]
            for Y in range(-R, R + 1):
                lo, hi = bounds(Y, L)
                row = bytes(lo is not None and X <= lo if X < 0 else hi is not None and X >= hi
                            for X in xs)
                want = bytes(map(member, xs, repeat(Y), repeat(L)))
                assert row == want, (region, Y, L)

    @given(point=points_near_a_bound())
    @settings(max_examples=400, deadline=None)
    def test_large_points(self, point):
        for region in RegionId:
            assert regions._contains(region, *point) == REFERENCE[region](*point), region


class TestOutputFormats:
    def test_pgm_layout(self, tmp_path):
        grid = rasterize(RegionId.DP, COEFF_BBOX, 8)
        path = tmp_path / "dp.pgm"
        write_pgm(grid, str(path))
        blob = path.read_bytes()
        header = b"P5\n8 8\n255\n"
        assert blob.startswith(header)
        payload = blob[len(header):]
        assert len(payload) == 64
        flat = [cell for row in grid.cells for cell in row]
        assert all(
            byte == (255 if cell else 0) for byte, cell in zip(payload, flat)
        )

    def test_pgm_deterministic(self, tmp_path):
        grid = rasterize(RegionId.D, ROOT_BBOX, 12)
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_pgm(grid, str(p1))
        write_pgm(grid, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_lists_member_centers(self, tmp_path):
        grid = rasterize(RegionId.DP, COEFF_BBOX, 8)
        path = tmp_path / "dp.csv"
        write_csv(grid, str(path))
        lines = path.read_text(encoding="ascii").splitlines()
        assert len(lines) == sum(map(sum, grid.cells))
        members = [(x, y) for row, col, x, y in centers(grid) if grid.cells[row][col]]
        for line, (x, y) in zip(lines, members):
            sx, sy = line.split(",")
            assert abs(float(sx) - float(x)) < 1e-9
            assert abs(float(sy) - float(y)) < 1e-9

    def test_csv_rounds_a_tie_half_even(self, tmp_path):
        # the middle row's centre is 357/320 = 1.115625, a 6-digit tie,
        # which rounds to the even 1.11562
        mid = Fraction(357, 320)
        grid = rasterize(RegionId.D2, (1, 3, mid - 1, mid + 1), 3)
        path = tmp_path / "d2.csv"
        write_csv(grid, str(path))
        lines = path.read_text(encoding="ascii").splitlines()
        assert [line for line in lines if ",1.1156" in line] == [
            "1.33333,1.11562", "2,1.11562", "2.66667,1.11562"]
