"""Region membership, the intersection identities, raster output
formats, and agreement between region membership and the per-spec
decision procedures.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from recmono import (
    COEFF_PLANE_REGIONS,
    RegionId,
    RecurrenceSpec,
    ROOT_PLANE_REGIONS,
    contains_coeff_plane,
    make_h_spec,
    positive_monotone_h,
    rasterize,
    ratio_monotone_h,
    weighted_monotone,
    write_csv,
    write_pgm,
)
from recmono.regions import contains_root_plane

ROOT_BBOX = (-3, 3, -3, 3)
COEFF_BBOX = (-1, 5, -7, 5)


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

    def test_dp_boundary(self):
        assert contains_coeff_plane(RegionId.DP_BOUNDARY, 1, -1)
        assert contains_coeff_plane(RegionId.DP_BOUNDARY, 2, 1)
        assert contains_coeff_plane(RegionId.DP_BOUNDARY, 2, -3)
        assert not contains_coeff_plane(RegionId.DP_BOUNDARY, 2, 0)
        assert not contains_coeff_plane(RegionId.DP_BOUNDARY, Fraction(1, 2), 0)

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
        assert RegionId.D in ROOT_PLANE_REGIONS
        assert RegionId.DP in COEFF_PLANE_REGIONS
        assert RegionId.DP_BOUNDARY in COEFF_PLANE_REGIONS


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
        for _, _, a, b in grid.centers():
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
        # both sides sign through qfield.surd_sign, but each forms its
        # surds its own way: the decisions by QuadElem arithmetic on the
        # spec's roots, the regions by integer coefficients over L
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
    # denominator is none of the corners'; the last bbox is symmetric,
    # so at odd resolution its centre row and column sit on the axes
    BBOXES = (
        (Fraction(-7, 3), Fraction(11, 5), Fraction(-13, 7), Fraction(9, 7)),
        (Fraction(-1, 5), Fraction(17, 3), Fraction(-22, 3), Fraction(26, 5)),
        (Fraction(-9, 7), Fraction(9, 7), Fraction(-12, 5), Fraction(12, 5)),
    )

    def test_cells_match_pointwise_membership(self):
        for region in RegionId:
            member = (contains_root_plane if region in ROOT_PLANE_REGIONS
                      else contains_coeff_plane)
            for bbox in self.BBOXES:
                for res in (8, 11):
                    grid = rasterize(region, bbox, res)
                    for row, col, x, y in grid.centers():
                        assert grid.cells[row][col] == member(region, x, y), (
                            region, bbox, res, row, col)

    def test_centers_are_exact_rationals(self):
        grid = rasterize(RegionId.D, ROOT_BBOX, 8)
        _, _, x, y = next(iter(grid.centers()))
        assert isinstance(x, Fraction) and isinstance(y, Fraction)
        assert x == Fraction(-3) + Fraction(6, 8) / 2
        assert y == Fraction(3) - Fraction(6, 8) / 2

    def test_determinism(self):
        one = rasterize(RegionId.DP, COEFF_BBOX, 16)
        two = rasterize(RegionId.DP, COEFF_BBOX, 16)
        assert one == two

    def test_validation(self):
        with pytest.raises(ValueError):
            rasterize(RegionId.DP, COEFF_BBOX, 1)
        with pytest.raises(ValueError):
            rasterize(RegionId.DP, (0, 0, -1, 1), 8)


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
        members = [
            (x, y) for row, col, x, y in grid.centers() if grid.cells[row][col]
        ]
        for line, (x, y) in zip(lines, members):
            sx, sy = line.split(",")
            assert abs(float(sx) - float(x)) < 1e-9
            assert abs(float(sy) - float(y)) < 1e-9
