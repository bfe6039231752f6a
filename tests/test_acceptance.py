"""End-to-end acceptance checks.

Twelve workflow-level checks pin the worked families (Fibonacci, Lucas,
the two expository h-type examples, the mixed-denominator
counterexample), the integer enumeration and boundary characterization,
the raster intersection identities, and the randomized
decision-versus-oracle corpora.  Everything is exact except where a
decimal rendering is itself the thing under test.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

from recmono import (
    IntCoeffPair,
    RecurrenceSpec,
    RegionId,
    boundary_characterization,
    build_report,
    enumerate_generalized_fibonacci,
    iterate,
    make_h_spec,
    rasterize,
    terms_between,
)
from recmono.cli import main

import reference
from conftest import build_corpus, build_h_corpus, check_all_agreements
from reference import is_quadratic_pisot

FIB = make_h_spec(1, -1, 1)
LUCAS = RecurrenceSpec(1, -1, 2, 1)


def test_criterion_01_fibonacci_all_properties_hold(tmp_path):
    out = tmp_path / "fib.json"
    t0 = time.perf_counter()
    code = main(
        ["analyze", "--a", "1", "--b", "-1", "--h-init", "1",
         "--out", str(out)]
    )
    elapsed = time.perf_counter() - t0
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    verdicts = report["verdicts"]
    for key in (
        "p1_immediate",
        "p1_eventual",
        "p1_h_monotone",
        "p2_h_ratio_monotone",
        "p2_eventual_ratio_monotone",
        "p3_weighted",
    ):
        assert verdicts[key]["holds"] is True, key
    windows = report["oracle_windows"]
    assert report["window"] == 300
    for key in ("p1_immediate", "p2", "p3"):
        assert windows[key]["holds_on_window"] is True, key
        assert windows[key]["first_violation"] is None, key
    assert elapsed < 1.0, f"analyze took {elapsed:.3f}s"
    print("PASS 1: Fibonacci holds everywhere, clean 300-term windows, "
          f"{elapsed * 1000:.0f} ms")


def test_criterion_02_lucas_pattern():
    report = build_report(LUCAS)
    assert report["oracle_windows"]["p1_immediate"]["first_violation"] == 0
    assert report["verdicts"]["p1_eventual"]["holds"] is True
    assert report["oracle_windows"]["n0_witness"] == 1
    assert report["verdicts"]["p3_weighted"]["holds"] is True
    assert report["oracle_windows"]["p3"]["holds_on_window"] is True
    detail = report["oracle_windows"]["p2"]["violation_detail"]
    assert detail["index"] == 0
    assert detail["lhs_decimal"].startswith("1.11")
    assert detail["rhs_decimal"].startswith("1.38")
    assert float(detail["lhs_decimal"]) < float(detail["rhs_decimal"])
    print("PASS 2: Lucas descends once at n=0, recovers at n0=1, and its "
          "first ratio distance 1.11... is beaten by 1.38...")


def test_criterion_03_halving_example():
    spec = make_h_spec(1, Fraction(1, 4), 1)
    report = build_report(spec)
    assert report["verdicts"]["p1_immediate"]["holds"] is False
    assert report["verdicts"]["p1_eventual"]["holds"] is False
    assert report["verdicts"]["p2_h_ratio_monotone"]["holds"] is True
    assert report["verdicts"]["p3_weighted"]["holds"] is True
    assert report["oracle_windows"]["p2"]["holds_on_window"] is True
    assert report["oracle_windows"]["p3"]["holds_on_window"] is True
    terms = iterate(spec, 64)
    for n in range(65):
        assert terms[n] == Fraction(n + 1, 2**n), n
    print("PASS 3: (n+1)/2^n example: never nondecreasing, both ratio "
          "properties hold, 65 exact terms verified")


def test_criterion_04_spread_example_decimals():
    spec = make_h_spec(1, -3, 1)
    report = build_report(spec)
    assert report["verdicts"]["p1_immediate"]["holds"] is True
    assert report["verdicts"]["p2_h_ratio_monotone"]["holds"] is False
    assert report["verdicts"]["p3_weighted"]["holds"] is False
    assert report["oracle_windows"]["p2"]["first_violation"] == 0
    assert report["oracle_windows"]["p3"]["first_violation"] == 0
    prefix = report["oracle_windows"]["p3"]["residual_decimal_prefix"]
    assert prefix[0].startswith("1.30")
    assert prefix[1].startswith("1.69")
    assert prefix[2].startswith("2.21")
    print("PASS 4: wide-root example fails both ratio properties with "
          "residuals 1.30, 1.69, 2.21")


def test_criterion_05_growing_distance_counterexample():
    spec = RecurrenceSpec(Fraction(1, 10), Fraction(-21, 5), 1, 3)
    terms = iterate(spec, 2)
    assert terms[2] == Fraction(9, 2)
    scaled = reference.from_elem(spec.roots().beta) * (terms[1] / terms[2])
    assert scaled == Fraction(-4, 3)
    report = build_report(spec, window=40)
    assert report["oracle_windows"]["p2"]["first_violation"] == 1
    print("PASS 5: counterexample has a2 = 9/2, |beta*a1/a2| = 4/3, and "
          "its ratio distances first grow at n=1")


def test_criterion_06_enumeration_list(capsys):
    assert enumerate_generalized_fibonacci(3) == [
        IntCoeffPair(1, -1),
        IntCoeffPair(2, -2),
        IntCoeffPair(2, -1),
        IntCoeffPair(3, -3),
        IntCoeffPair(3, -2),
        IntCoeffPair(3, -1),
        IntCoeffPair(3, 1),
    ]
    code = main(["enumerate", "--a-max", "3", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert [line.split(",")[:2] for line in out.splitlines()] == [
        ["1", "-1"], ["2", "-2"], ["2", "-1"],
        ["3", "-3"], ["3", "-2"], ["3", "-1"], ["3", "1"],
    ]
    print("PASS 6: enumeration up to a=3 yields exactly the seven "
          "expected integer pairs")


def test_criterion_07_boundary_characterization(capsys):
    assert boundary_characterization() == [IntCoeffPair(1, -1)]
    for bound in (10, 100, 1000):
        assert main(["characterize", "--scan-bound", str(bound)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pairs"] == [[1, -1]] and payload["scan_bound"] == bound
    code = main(["characterize"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["pairs"] == [[1, -1]]
    assert payload["scan_bound"] == 1000
    print("PASS 7: boundary characterization is exactly {(1, -1)} at scan "
          "bounds 10, 100, 1000")


def test_criterion_08_intersection_identities_on_fine_grids():
    t0 = time.perf_counter()
    res = 201
    root_bbox, coeff_bbox = (-3, 3, -3, 3), (-1, 5, -7, 5)
    root = {
        r: rasterize(r, root_bbox, res)
        for r in (RegionId.D1, RegionId.D2, RegionId.D3, RegionId.D)
    }
    for row in range(res):
        for col in range(res):
            want = (
                root[RegionId.D1].cells[row][col]
                and root[RegionId.D2].cells[row][col]
                and root[RegionId.D3].cells[row][col]
            )
            assert root[RegionId.D].cells[row][col] == want, (row, col)
    coeff = {
        r: rasterize(r, coeff_bbox, res)
        for r in (RegionId.D1P, RegionId.D2P, RegionId.D3P, RegionId.DP)
    }
    for row in range(res):
        for col in range(res):
            want = (
                coeff[RegionId.D1P].cells[row][col]
                and coeff[RegionId.D2P].cells[row][col]
                and coeff[RegionId.D3P].cells[row][col]
            )
            assert coeff[RegionId.DP].cells[row][col] == want, (row, col)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"grids took {elapsed:.1f}s"
    print(f"PASS 8: both intersection identities hold at all 2x40401 "
          f"rational grid points in {elapsed:.1f}s")


def test_criterion_09_randomized_decision_oracle_agreement():
    general = build_corpus(20260822, 350)
    h_only = build_h_corpus(20260823, 150)
    specs = general + h_only
    assert len(specs) == 500
    disc_signs = [s.roots().discriminant_sign for s in specs]
    assert any(sign >= 0 for sign in disc_signs)
    assert any(sign < 0 for sign in disc_signs), "corpus needs complex roots"
    for spec in specs:
        check_all_agreements(spec)
    print("PASS 9: 500 randomized specs (both discriminant signs) agree "
          "with their oracle windows on every decision")


def test_criterion_10_closed_form_matches_iteration():
    specs = []
    for spec in build_corpus(987654, 500):
        if spec.roots().discriminant_sign >= 0:
            specs.append(spec)
        if len(specs) == 200:
            break
    assert len(specs) == 200
    for spec in specs:
        terms = iterate(spec, 200)
        for n in range(201):
            assert terms_between(spec, n, n)[0] == terms[n], (spec, n)
    print("PASS 10: closed form reproduces iteration exactly for 200 "
          "specs through n = 200")


def test_criterion_11_pisot_classification():
    assert is_quadratic_pisot(IntCoeffPair(1, -1))
    assert is_quadratic_pisot(IntCoeffPair(2, -1))
    assert is_quadratic_pisot(IntCoeffPair(3, -1))
    assert not is_quadratic_pisot(IntCoeffPair(1, -3))
    assert not is_quadratic_pisot(IntCoeffPair(3, 2))
    pairs = enumerate_generalized_fibonacci(20)
    for pair in pairs:
        assert is_quadratic_pisot(pair), pair
    print(f"PASS 11: Pisot verdicts match on the named pairs and all "
          f"{len(pairs)} interior pairs up to a = 20")


def test_criterion_12_ratio_limit_decimal():
    terms = iterate(FIB, 61)
    ratio = terms[61] / terms[60]
    assert abs(float(ratio) - 1.618033988749) < 1e-9
    report = build_report(FIB)
    rendered = report["ratio_limit"]["limit"]["decimal"]
    assert rendered.startswith("1.61803398")
    assert abs(float(ratio) - float(rendered)) < 1e-9
    print("PASS 12: the term ratio at n = 60 is within 1e-9 of "
          "1.618033988749..., the rendered exact limit")
