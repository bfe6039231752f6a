"""Command-line behavior: strict rational parsing, exit codes,
deterministic JSON, format goldens, and file output.
"""

from __future__ import annotations

import argparse
import contextlib
import enum
import io
import json
import shutil
import subprocess
import sys
from collections import OrderedDict
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recmono.cli as cli
from recmono import report
from recmono.cli import main, parse_rational
from recmono.recurrence import RecurrenceSpec, terms_between

import smokes
from smokes import SMOKES, check, run_row
from sweep import sweep_argvs


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseRational:
    def test_accepted_forms(self):
        assert parse_rational("3") == 3
        assert parse_rational("-7") == -7
        assert parse_rational("+4/6") == Fraction(2, 3)
        assert parse_rational("1/2") == Fraction(1, 2)
        assert parse_rational("-21/5") == Fraction(-21, 5)

    @pytest.mark.parametrize(
        "bad",
        ["0.5", "1e3", "1/0", "1/2/3", "", "abc", " 1", "1 ", "--3", "1/-2"],
    )
    def test_rejected_forms(self, bad):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_rational(bad)


class TestAnalyze:
    def test_fibonacci_report(self, capsys):
        code, out, err = run_cli(
            capsys, "analyze", "--a", "1", "--b", "-1", "--h-init", "1"
        )
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["spec"] == {
            "a": "1",
            "b": "-1",
            "v0": "1",
            "v1": "1",
            "h_type": True,
        }
        for key in (
            "p1_immediate",
            "p1_eventual",
            "p1_h_monotone",
            "p2_h_ratio_monotone",
            "p2_eventual_ratio_monotone",
            "p3_weighted",
        ):
            assert payload["verdicts"][key]["holds"] is True, key

    def test_json_is_sorted_and_stable(self, capsys):
        # every command that prints JSON lays it out as json.dumps does
        for argv in (
            ("analyze", "--a", "1", "--b", "-1", "--v0", "2", "--v1", "1"),
            ("sequence", "--a=7/3", "--b=-5/7", "--v0=3/4", "--v1=-2/5", "--n", "12"),
            ("enumerate", "--a-max", "4"),
            ("riccati", "--a", "1", "--b", "1", "--b0", "2", "--n", "6"),
            ("riccati", "--a=7/3", "--b=-5/7", "--b0=-8/15", "--n", "9"),
            ("characterize", "--scan-bound", "50"),
        ):
            code1, out1, _ = run_cli(capsys, *argv)
            code2, out2, _ = run_cli(capsys, *argv)
            assert code1 == code2 == 0, argv
            assert out1 == out2, argv
            assert out1 == json.dumps(json.loads(out1), sort_keys=True, indent=2) + "\n", argv

    def test_out_writes_file_and_keeps_stdout_quiet(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, err = run_cli(
            capsys,
            "analyze", "--a", "1", "--b", "-1", "--h-init", "1",
            "--out", str(path),
        )
        assert code == 0 and out == "" and err == ""
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["schema"] == 1

    def test_out_to_a_missing_directory_exits_two(self, capsys, tmp_path):
        # an OSError from writing the report is an input error, not a crash
        path = tmp_path / "missing" / "r.json"
        code, out, err = run_cli(
            capsys,
            "analyze", "--a", "1", "--b", "-1", "--h-init", "1",
            "--out", str(path),
        )
        assert code == 2 and out == ""
        assert err.startswith("error:"), err
        assert not path.parent.exists()

    def test_start_pair_flags_are_mutually_exclusive(self, capsys):
        code, _, err = run_cli(
            capsys,
            "analyze", "--a", "1", "--b", "-1",
            "--h-init", "1", "--v0", "1",
        )
        assert code == 2 and "mutually exclusive" in err

    def test_start_pair_must_be_complete(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--a", "1", "--b", "-1")
        assert code == 2 and "--h-init" in err
        code, _, err = run_cli(
            capsys, "analyze", "--a", "1", "--b", "-1", "--v0", "1"
        )
        assert code == 2

    def test_decimal_input_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--a", "0.5", "--b", "-1", "--h-init", "1"])
        assert exc.value.code == 2

    def test_root_decimal_rounds_once(self, capsys):
        # beta lies 10^-41 above a 12-digit tie, so it rounds up; a
        # 32-digit division rounded again to 12 digits lands on the tie
        # and rounds down to ...012
        x = Fraction(12345678901250000000000000000000000000001, 10**41)
        code, out, err = run_cli(
            capsys, "analyze", f"--a={1 + x}", f"--b={x}", "--h-init=1", "--window=5"
        )
        assert code == 0 and err == ""
        assert json.loads(out)["roots"]["beta"] == {"exact": str(x), "decimal": "0.123456789013"}

    def test_zero_coefficient_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "analyze", "--a", "0", "--b", "-1", "--h-init", "1"
        )
        assert code == 2 and err != ""

    def test_internal_inconsistency_maps_to_exit_one(self, capsys, monkeypatch):
        from recmono import InternalInconsistency

        def boom(spec, window=300, from_k=0):
            raise InternalInconsistency("decision and window disagree")

        monkeypatch.setattr(cli, "build_report", boom)
        code, _, err = run_cli(
            capsys, "analyze", "--a", "1", "--b", "-1", "--h-init", "1"
        )
        assert code == 1 and "inconsistency" in err

    @pytest.mark.parametrize(
        "argv, line",
        [
            (
                ["--a", "1", "--b", "-1", "--h-init", "1"],
                "recmono analyze --a=1 --b=-1 --h-init=1 --window=300 --from-k=0",
            ),
            (
                ["--a=7/3", "--b=-5/7", "--v0=3/4", "--v1=-2/5", "--window", "40",
                 "--from-k", "3"],
                "recmono analyze --a=7/3 --b=-5/7 --v0=3/4 --v1=-2/5 --window=40 "
                "--from-k=3",
            ),
        ],
    )
    def test_internal_inconsistency_prints_reproducer(
        self, capsys, monkeypatch, argv, line
    ):
        from recmono import InternalInconsistency

        def boom(spec, window=300, from_k=0):
            raise InternalInconsistency("decision and window disagree")

        monkeypatch.setattr(cli, "build_report", boom)
        code, out, err = run_cli(capsys, "analyze", *argv)
        assert code == 1 and out == ""
        message, reproducer = err.splitlines()
        assert "inconsistency" in message and reproducer == line
        monkeypatch.undo()
        # the printed line runs as given and describes the same call
        code, rerun, _ = run_cli(capsys, *line.split()[1:])
        code_direct, direct, _ = run_cli(capsys, "analyze", *argv)
        assert code == code_direct == 0 and rerun == direct

    @pytest.mark.parametrize("argv, n0", [
        (["--a", "2", "--b", "999999/1000000", "--v0", "11", "--v1", "10991/1000"], 1152),
        # report-corpus seed 3, op 680
        (["--a=199/100", "--b=98999/100000", "--v0=3/4", "--v1=113/152"], 336),
        (["--a=1/3", "--b=-3/4", "--v0=4", "--v1=-2", "--window=2"], 15),
        # past the --window cap, so no window can see it
        (["--a=2", "--b=9999999999/10000000000", "--v0=1", "--v1=999999/1000000"], 10034),
    ])
    def test_n0_past_the_window_exits_zero(self, capsys, argv, n0):
        # the eventual verdict holds and the window's last pair violates:
        # n0 = k* - 1 is certified past the window, and n0_witness stays null
        code, out, err = run_cli(capsys, "analyze", *argv)
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["verdicts"]["p1_eventual"]["holds"]
        assert payload["oracle_windows"]["n0_witness"] is None
        args = cli._read("analyze", argv)
        k = report._first_clean_start(cli._spec_from_args(args), args.window + 1)
        assert k - 1 == n0

    def test_n0_past_the_search_limit_exits_zero_or_two(self, capsys):
        # valid input whose n0, near 10**6, lies past N0_SEARCH_LIMIT = 32768:
        # the report may certify n0 (exit 0) or refuse the input (exit 2), but
        # exit 1 says that the theorem and the oracle disagree; a refusal
        # names the limit and the dominance bound, 10000001
        code, _, err = run_cli(capsys, "analyze", "--a", "2",
                               "--b", "99999999999999/100000000000000",
                               "--v0", "1", "--v1", "99999999/100000000")
        assert code in (0, 2)
        assert code == 0 or "up to 32768" in err and "n0 <= 10000001" in err

    def test_repeated_root_refusal_names_n0(self, capsys):
        # the repeated root 2, a start 10**-30 above its eigen-solution -2**n:
        # the dominance index of a repeated root is n0 itself, so the
        # refusal names it as exact, not as a bound
        n0 = 2 * 10**30 - 2
        code, _, err = run_cli(capsys, "analyze", "--a=4", "--b=4", "--v0=-1",
                               f"--v1={-2 + Fraction(1, 10**30)}")
        assert code == 2
        assert "n0 lies past the search limit" in err and f"proves n0 = {n0}\n" in err

    def test_sweep_slice_exits_zero(self, capsys):
        # the sweep's first 410 lines hold three whose n0 lies past the window
        # (lines 235, 404 and 409); tests/sweep.py runs all 19,964
        for argv in islice(sweep_argvs(), 410):
            assert main(argv) == 0, " ".join(argv)
            capsys.readouterr()


def _both_readings(command, argv):
    """argv read by the command's argparse parser, then by the reader."""
    return cli._parser(command).parse_args(argv), cli._read(command, argv)


class TestIntegerArguments:
    @pytest.mark.parametrize(
        "argv, text",
        [
            (["analyze", "--a", "1", "--b", "-1", "--h-init", "1", "--window", "0"],
             "argument --window: must be at least 1"),
            (["analyze", "--a", "1", "--b", "-1", "--h-init", "1", "--from-k=-1"],
             "argument --from-k: must be non-negative"),
            (["regions", "--region", "D", "--bbox=-1,1,-1,1", "--res", "x", "--out", "x.pgm"],
             "argument --res: not an integer: 'x'"),
            (["regions", "--region", "D", "--bbox=-1,1,-1,1", "--res", "1", "--out", "x.pgm"],
             "argument --res: must be at least 2"),
            (["regions", "--region", "D", "--bbox=-1,1,-1,1", "--res", str(cli.MAX_RES + 1),
              "--out", "x.pgm"],
             f"argument --res: must be at most {cli.MAX_RES}"),
            (["sequence", "--a", "1", "--b", "-1", "--h-init", "1", "--n", str(cli.MAX_N + 1)],
             "argument --n: must be at most 5000"),
            (["riccati", "--a", "1", "--b", "-1", "--b0", "1/2", "--n", str(cli.MAX_N + 1)],
             "argument --n: must be at most 5000"),
            (["analyze", "--a", "1", "--b", "-1", "--h-init", "1",
              "--window", str(cli.MAX_WINDOW + 1)],
             "argument --window: must be at most 10000"),
            (["analyze", "--a", "1", "--b", "-1", "--h-init", "1",
              f"--from-k={cli.MAX_FROM_K + 1}"],
             "argument --from-k: must be at most 50000"),
            (["enumerate", "--a-max", str(cli.MAX_A_MAX + 1)],
             "argument --a-max: must be at most 300"),
        ],
    )
    def test_out_of_range_or_malformed_exits_two(self, capsys, argv, text):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert text in capsys.readouterr().err

    def test_res_bounds_are_inclusive(self):
        # the parsers alone: a raster at the cap is not run
        for res in (2, cli.MAX_RES):
            for args in _both_readings(
                    "regions", ["--region", "D", "--bbox=-1,1,-1,1", "--res", str(res),
                                "--out", "x.pgm"]):
                assert args.res == res

    def test_n_cap_is_inclusive(self):
        # the parsers alone: terms and orbit states at the cap are not made
        for argv in (["sequence", "--a", "1", "--b=-1", "--h-init", "1"],
                     ["riccati", "--a", "1", "--b=-1", "--b0", "1/2"]):
            for args in _both_readings(argv[0], [*argv[1:], "--n", "5000"]):
                assert args.n == cli.MAX_N == 5000

    def test_window_and_from_k_caps_are_inclusive(self):
        # the parsers alone: no report is built at the caps
        for args in _both_readings(
                "analyze", ["--a", "1", "--b=-1", "--h-init", "1", "--window", "10000",
                            "--from-k", "50000"]):
            assert (args.window, args.from_k) == (cli.MAX_WINDOW, cli.MAX_FROM_K) == (10000, 50000)

    def test_a_max_cap_is_inclusive(self):
        # the parsers alone: the pairs at the cap are not listed
        for args in _both_readings("enumerate", ["--a-max", "300"]):
            assert args.a_max == cli.MAX_A_MAX == 300

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["analyze", "--a", "1" * 4301, "--b", "1", "--h-init", "1"], "--a"),
            (["analyze", "--a", "1", "--b", "1", "--h-init", "1", "--window", "1" * 4301],
             "--window"),
        ],
    )
    def test_long_argument_names_the_limit(self, capsys, argv, flag):
        # the message names the interpreter's limit and echoes a cut value
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        limit = sys.get_int_max_str_digits()
        assert f"argument {flag}: more than the interpreter's limit of {limit} digits" in err
        assert "(4301 characters)" in err and "not an integer" not in err
        assert len(err.encode()) < 300

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["analyze", "--a", "1." + "5" * 5000, "--b", "1", "--h-init", "1"],
             "argument --a: not a rational: '1.555555555555555555'... (5002 characters)"),
            (["analyze", "--a", "1", "--b", "1/" + "0" * 3000, "--h-init", "1"],
             "argument --b: zero denominator: '1/000000000000000000'... (3002 characters)"),
            (["analyze", "--a", "1", "--b", "1", "--h-init", "1", "--window", "x" * 5000],
             "argument --window: not an integer: 'xxxxxxxxxxxxxxxxxxxx'... (5000 characters)"),
            # 20 characters are echoed whole, 21 are cut
            (["analyze", "--a", "1", "--b", "1", "--h-init", "1", "--window", "x" * 20],
             "argument --window: not an integer: 'xxxxxxxxxxxxxxxxxxxx'\n"),
            (["analyze", "--a", "1", "--b", "1", "--h-init", "1", "--window", "x" * 21],
             "argument --window: not an integer: 'xxxxxxxxxxxxxxxxxxxx'... (21 characters)"),
        ],
    )
    def test_malformed_argument_echo_is_cut(self, capsys, argv, text):
        # a long malformed value is echoed by its start and its length,
        # so the message, usage lines included, stays short whatever the
        # value's length (the whole value made it 5,253 bytes for --a)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert text in err
        assert len(err.encode()) < 400

    def test_inputs_keep_the_digit_limit(self, capsys):
        # outputs are rendered without the limit, inputs are parsed under it
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--a", "1" * 4301, "--b", "1", "--h-init", "1"])
        assert exc.value.code == 2
        assert "argument --a" in capsys.readouterr().err


class TestLongOutputs:
    """Outputs past the interpreter's 4300-digit int-to-str limit render;
    the limit in force before the call is in force after it."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["riccati", "--a", "10", "--b", "1", "--b0", "1/3", "--n", "5000"],
            ["analyze", "--a", str(10**700), "--b", "1", "--h-init", "1", "--window", "5"],
        ],
    )
    def test_exit_zero(self, capsys, argv):
        limit = sys.get_int_max_str_digits()
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == "" and json.loads(out)["schema"] == 1
        assert sys.get_int_max_str_digits() == limit

    def test_sequence_last_term_matches_terms_between(self, capsys):
        # integer terms past the limit, and fractional coefficients, whose
        # terms are reduced fractions of about 2,600 over 1,800 digits;
        # sequence prints iterate's terms, and the reference reaches index
        # n on the integer carrier by fast doubling instead
        for (a, b, v0, v1), n in (
            (("10", "1", "1", "10"), 5000),
            (("7/3", "-5/7", "3/4", "-2/5"), 2000),
        ):
            limit = sys.get_int_max_str_digits()
            code, out, err = run_cli(
                capsys, "sequence", f"--a={a}", f"--b={b}", f"--v0={v0}", f"--v1={v1}",
                "--n", str(n),
            )
            assert code == 0 and err == ""
            assert sys.get_int_max_str_digits() == limit
            last = terms_between(RecurrenceSpec(*map(Fraction, (a, b, v0, v1))), n, n)[0]
            sys.set_int_max_str_digits(0)
            try:
                assert json.loads(out)["terms"][-1] == str(last), (a, b, v0, v1)
            finally:
                sys.set_int_max_str_digits(limit)


class TestSequence:
    def test_fibonacci_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sequence", "--a", "1", "--b", "-1", "--h-init", "1", "--n", "8",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["terms"] == ["1", "1", "2", "3", "5", "8", "13", "21", "34"]
        assert payload["start_index"] == 0

    def test_csv_lines(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sequence", "--a", "1", "--b", "1/4", "--h-init", "1",
            "--n", "4", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines() == ["0,1", "1,1", "2,3/4", "3,1/2", "4,5/16"]

    def test_exact_rationals_survive_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sequence", "--a", "1/10", "--b=-21/5",
            "--v0", "1", "--v1", "3", "--n", "2",
        )
        assert code == 0
        assert json.loads(out)["terms"] == ["1", "3", "9/2"]


class TestEnumerate:
    def test_csv_golden(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--a-max", "3", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines() == [
            "1,-1,1",
            "2,-2,2",
            "2,-1,1",
            "3,-3,3",
            "3,-2,2",
            "3,-1,1",
            "3,1,-1",
        ]

    def test_json_forms(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--a-max", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 1
        entry = payload["pairs"][0]
        assert entry["a"] == 1 and entry["b"] == -1 and entry["c"] == 1
        assert entry["homogeneous_form"] == "a[n+2] - (1)*a[n+1] + (-1)*a[n] = 0"
        assert entry["additive_form"] == "a[n+2] = (1)*a[n+1] + (1)*a[n]"


class TestRegions:
    def test_pgm_output(self, capsys, tmp_path):
        path = tmp_path / "dp.pgm"
        code, out, _ = run_cli(
            capsys,
            "regions", "--region", "DP", "--bbox=-1,5,-7,5",
            "--res", "16", "--out", str(path),
        )
        assert code == 0 and out == ""
        assert path.read_bytes().startswith(b"P5\n16 16\n255\n")

    def test_csv_output(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        code, _, _ = run_cli(
            capsys,
            "regions", "--region", "D", "--bbox=-3,3,-3,3",
            "--res", "8", "--out", str(path),
        )
        assert code == 0
        for line in path.read_text(encoding="ascii").splitlines():
            x, y = map(float, line.split(","))
            assert -3 < x < 3 and -3 < y < 3

    def test_unknown_extension_rejected(self, capsys, tmp_path, monkeypatch):
        def no_raster(*args):
            raise AssertionError("rasterized before checking --out")

        monkeypatch.setattr(cli, "rasterize", no_raster)
        code, _, err = run_cli(
            capsys,
            "regions", "--region", "DP", "--bbox=-1,5,-7,5",
            "--res", "8", "--out", str(tmp_path / "grid.png"),
        )
        assert code == 2 and ".pgm or .csv" in err

    def test_csv_bbox_past_float_range(self, capsys, tmp_path):
        # centres are rounded on integers, so no magnitude overflows
        big = 10**400
        path = tmp_path / "d.csv"
        code, out, err = run_cli(
            capsys,
            "regions", "--region", "D", f"--bbox=-{big},{big},-{big},{big}",
            "--res", "3", "--out", str(path),
        )
        assert code == 0 and out == "" and err == ""
        assert path.read_text(encoding="ascii") == "6.66667e+399,0\n"

    def test_csv_bbox_below_float_range(self, capsys, tmp_path):
        # nor underflows: no centre prints as a zero, signed or not
        tiny = f"1/{10**400}"
        path = tmp_path / "x.csv"
        code, out, err = run_cli(
            capsys,
            "regions", "--region", "D3P", f"--bbox=-{tiny},{tiny},-{tiny},{tiny}",
            "--res", "4", "--out", str(path),
        )
        assert code == 0 and out == "" and err == ""
        lines = path.read_text(encoding="ascii").splitlines()
        assert lines[0] == "-7.5e-401,7.5e-401"
        assert len(lines) == 16 and len(set(lines)) == 16
        values = {v for line in lines for v in line.split(",")}
        assert values == {"-7.5e-401", "-2.5e-401", "2.5e-401", "7.5e-401"}

    def test_malformed_bbox_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["regions", "--region", "DP", "--bbox", "1,2,3",
                  "--res", "8", "--out", "x.pgm"])
        assert exc.value.code == 2

    def test_boundary_region_not_exposed(self):
        with pytest.raises(SystemExit) as exc:
            main(["regions", "--region", "DP_BOUNDARY", "--bbox=-1,5,-7,5",
                  "--res", "8", "--out", "x.pgm"])
        assert exc.value.code == 2


class TestRiccati:
    def test_golden_ratio_orbit(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "riccati", "--a", "1", "--b", "-1", "--b0", "1/2", "--n", "5",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["states"] == ["1/2", "3", "4/3", "7/4", "11/7", "18/11"]
        assert payload["terminated_early"] is None
        assert payload["fixed_points"] == [
            "1/2 + 1/2*sqrt(5)",
            "1/2 - 1/2*sqrt(5)",
        ]

    def test_complex_pair_has_no_fixed_points(self, capsys):
        code, out, _ = run_cli(
            capsys, "riccati", "--a", "1", "--b", "1", "--b0", "1", "--n", "6"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["fixed_points"] is None
        assert payload["terminated_early"] == 1
        assert payload["states"] == ["1", "0"]

    def test_zero_start_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, "riccati", "--a", "1", "--b", "-1", "--b0", "0", "--n", "5"
        )
        assert code == 2 and err != ""


class TestCharacterize:
    def test_boundary_pairs(self, capsys):
        # the segment a = 1 is decided directly, so a huge bound costs nothing
        for bound in (50, 10**12):
            code, out, _ = run_cli(capsys, "characterize", "--scan-bound", str(bound))
            assert code == 0
            payload = json.loads(out)
            assert payload == {"pairs": [[1, -1]], "scan_bound": bound, "schema": 1}

    def test_zero_scan_bound_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["characterize", "--scan-bound", "0"])
        assert exc.value.code == 2
        assert "argument --scan-bound: must be at least 1" in capsys.readouterr().err


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = -7


class _Name(str):
    pass


def _json_values():
    """Nested dicts with str keys, lists and tuples of what JSON writes:
    str (non-ASCII, control characters, quotes, backslashes, lone
    surrogates), int (past the 4300-digit int-to-str limit too), bool,
    None and IntEnum members, with empty containers at every depth."""
    text = st.text(st.characters(exclude_categories=()), max_size=12) | st.sampled_from(
        ["", '"', "\\", "\x00\x1f\x7f", "\u2028", "\ud800", "\u00e9", "\U0001f600", 'a"b\\c'])
    big = st.integers(4300, 4400).flatmap(
        lambda d: st.sampled_from([10**d, -(10**d) + 1, 7 * 10**d + 3]))
    leaves = text | st.integers() | big | st.booleans() | st.none() | st.sampled_from(_Level)
    return st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(text, inner, max_size=4),
        max_leaves=24,
    )


class TestJsonWriter:
    """_emit_json writes what json.dumps(x, sort_keys=True, indent=2) writes."""

    @staticmethod
    def _emitted(payload) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._emit_json(payload, None)
        return out.getvalue()

    @settings(max_examples=200, deadline=None)
    @given(_json_values().filter(lambda v: isinstance(v, (dict, list, tuple))))
    def test_matches_json_dumps(self, payload):
        # main renders without the int-to-str digit limit, as here
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            expected = json.dumps(payload, sort_keys=True, indent=2) + "\n"
            assert self._emitted(payload) == expected
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("payload", [
        {"level": _Level.HIGH, "flags": (True, False, None, (_Level.LOW, True))},
        [_Level.LOW, {"b": (False,), "n": _Name("x\u00e9")}, (_Name("\""), True)],
        OrderedDict([("z", [True, (False, _Level.HIGH)]), ("a", OrderedDict())]),
        ((), {}, (1, (True,)), [[None]]),
    ])
    def test_subclass_leaves_and_containers(self, payload):
        # a leaf whose exact type the writer's table misses (an IntEnum
        # member, a str subclass) is written as its base type, as json does
        assert self._emitted(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("bad", [{1, 2}, b"x", Fraction(1, 2)])
    def test_other_values_raise_type_error(self, bad):
        for payload in ([bad], {"k": bad}, {"k": [1, {"j": bad}]}):
            with pytest.raises(TypeError):
                self._emitted(payload)

    @pytest.mark.parametrize("key", [1, None, True, (1, 2)])
    def test_non_str_key_raises_type_error(self, key):
        for payload in ({key: 1}, [{key: "v"}]):
            with pytest.raises(TypeError):
                self._emitted(payload)


class TestParserReuse:
    def test_parser_built_once_across_calls(self, capsys, tmp_path):
        cli._parser.cache_clear()
        code, out, _ = run_cli(capsys, "characterize", "--scan-bound", "5")
        assert code == 0 and json.loads(out)["scan_bound"] == 5
        code, out, _ = run_cli(capsys, "enumerate", "--a-max", "1", "--format", "csv")
        assert code == 0 and out == "1,-1,1\n"
        # well-formed lines are read without building a parser
        assert cli._parser.cache_info().currsize == 0
        # a rejected line builds its command's parser once, and exits 2
        # through it; the next rejected line reuses it
        for argv in (["enumerate", "--a-max", "0"], ["enumerate", "--a-max=x"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        assert cli._parser.cache_info()[:2] == (1, 1)  # hits, misses
        # a command builds its own parser and no other
        cli._parser.cache_clear()
        out_path = tmp_path / "d.pgm"
        code, _, _ = run_cli(capsys, "regions", "--region", "D", "--bbox=-1,1,-1,1",
                             "--res", "4", "--out", str(out_path))
        assert code == 0 and out_path.exists()
        assert cli._parser.cache_info().currsize == 0
        with pytest.raises(SystemExit):
            main(["regions", "--region", "D", "--bbox=-1,1,-1,1", "--res", "1",
                  "--out", str(out_path)])
        assert cli._parser.cache_info().currsize == 1
        cli._parser("regions")
        assert cli._parser.cache_info().misses == 1


# values for any flag: good ones, negative ones that argparse does and
# does not take after a space, malformed and empty ones, past the caps,
# bboxes and choices right and wrong, and '-'-led words
_VALUES = ["1", "-1", "3/4", "-5/7", "+2", "0", "2", "300", "5000", "10000", "50001", "0.5",
           "1/0", "x", "", "-", "--a", "-3,3,-3,3", "0,1,0,1", "1,2,3", "D", "DP", "d",
           "json", "xml", "x.pgm", "-x.pgm"]


def _read_both(command, argv):
    """The reader's namespace, or None, and argparse's namespace, or the
    code argparse exits with."""
    read = cli._read(command, argv)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            parsed = cli._parser(command).parse_args(argv)
        except SystemExit as exc:
            parsed = exc.code
    return read, parsed


def _good_values(option):
    """The values in _VALUES, and the choices, that option's type and
    choices take."""
    good = list(option.choices or ())
    for value in _VALUES:
        try:
            read = option.type(value) if option.type else value
        except argparse.ArgumentTypeError:
            continue
        if option.choices is None or read in option.choices:
            good.append(value)
    return good


@st.composite
def _command_lines(draw, well_formed):
    """A command and a token list for it.  Well formed: every required
    flag and some others, each in either spelling, full, with a value its
    type and choices take and that does not start with '-' after a space.
    Otherwise such a line with one to four changes: an item left out or
    repeated; a flag abbreviated or unknown; a value from _VALUES or the
    choices, in either spelling; a flag with a value it rejects; -h, --,
    a bare word or a flag with no value put in."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    options = cli._COMMANDS[command][1]
    items = []
    for option in options:
        if option.required or draw(st.booleans()):
            value = draw(st.sampled_from(_good_values(option)))
            if value.startswith("-") or draw(st.booleans()):
                items.append([f"{option.flag}={value}"])
            else:
                items.append([option.flag, value])
    items = draw(st.permutations(items))
    if not well_formed:
        flags = [option.flag for option in options]
        abbreviations = sorted({f[:i] for f in flags for i in range(3, len(f))} - set(flags))
        names = st.sampled_from(flags + abbreviations + ["--bogus", "--help"])
        values = st.sampled_from(_VALUES + [c for o in options for c in o.choices or ()])
        for _ in range(draw(st.integers(1, 4))):
            at = draw(st.integers(0, len(items)))
            kind = draw(st.integers(0, 5))
            if kind == 5:
                option = draw(st.sampled_from([o for o in options if o.type or o.choices]))
                bad = [v for v in _VALUES if v not in _good_values(option)]
                items.insert(at, [f"{option.flag}={draw(st.sampled_from(bad))}"])
            elif kind == 0 and at < len(items):
                del items[at]
            elif kind == 1 and at < len(items):
                items.insert(at, items[at])
            elif kind == 2:
                items.insert(at, [f"{draw(names)}={draw(values)}"])
            elif kind == 3:
                items.insert(at, [draw(names), draw(values)])
            else:
                items.insert(at, [draw(st.sampled_from(["-h", "--", "-x", "x", ""]) | names)])
    return command, [t for item in items for t in item]


class TestReader:
    """cli._read gives argparse's namespace on the lines it reads, and
    declines every line that argparse exits on."""

    @settings(max_examples=600, deadline=None)
    @given(_command_lines(well_formed=False))
    def test_agrees_with_argparse(self, line):
        command, argv = line
        read, parsed = _read_both(command, argv)
        if read is not None:
            assert isinstance(parsed, argparse.Namespace), (argv, parsed)
            assert vars(read) == vars(parsed), argv
            # a line read has only full flags, and no '-'-led value after a space
            flags = {option.flag for option in cli._COMMANDS[command][1]}
            assert all(t.partition("=")[0] in flags for t in argv if t.startswith("-")), argv

    @settings(max_examples=200, deadline=None)
    @given(_command_lines(well_formed=True))
    def test_reads_well_formed_lines(self, line):
        command, argv = line
        read, parsed = _read_both(command, argv)
        assert read is not None, argv
        assert vars(read) == vars(parsed), argv

    @pytest.mark.parametrize("argv", [
        ["regions", "--region", "XX", "--bbox=-1,1,-1,1", "--res", "4", "--out", "x.pgm"],
        ["sequence", "--a=1", "--b=1", "--h-init=1", "--n=4", "--format=xml"],
        ["analyze", "--a", "1", "--b", "-5/7", "--h-init", "1"],
        ["regions", "--region", "D", "--bbox", "-1,1,-1,1", "--res", "4", "--out", "x.pgm"],
        ["analyze", "--a", "1", "--b", "1", "--v", "1"],
        ["regions", "--re", "D", "--bbox=-1,1,-1,1", "--res", "4", "--out", "x.pgm"],
        ["regions", "--bbox=-1,1,-1,1", "--res", "4", "--out", "x.pgm"],
        ["riccati", "--a", "1", "--b", "1", "--n", "4"],
    ])
    def test_declines_what_argparse_rejects(self, argv):
        # bad choices, a '-'-led value after a space, an ambiguous
        # abbreviation, a missing required flag
        read, parsed = _read_both(argv[0], argv[1:])
        assert read is None and parsed == 2


class TestTopLevel:
    """Help, and the errors for a missing or unknown command or for an
    option given with no command."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            ([], 2),
            (["-h"], 0),
            (["--he", "analyze"], 0),
            (["analy"], 2),
            (["--", "analyze", "--a", "1", "--b", "-1", "--h-init", "1"], 2),
            (["analyze", "--", "--a", "1"], 2),
        ],
    )
    def test_edge_argv_exit_codes(self, capsys, argv, code):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        words = " ".join(capsys.readouterr().out.split())
        assert list(cli._COMMANDS) == [
            "analyze", "sequence", "enumerate", "regions", "riccati", "characterize"]
        for name, (help_line, _, _) in cli._COMMANDS.items():
            assert f" {name} {help_line} " in words

    def test_argv_defaults_to_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv",
                            ["recmono", "enumerate", "--a-max", "1", "--format", "csv"])
        assert main(None) == 0
        assert capsys.readouterr().out == "1,-1,1\n"

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_command_help_names_the_command(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: recmono {command} ")

    def test_unknown_option_is_reported_under_its_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--a", "1", "--b", "-1", "--h-init", "1", "--bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "recmono analyze: error: unrecognized arguments: --bogus" in err


    @pytest.mark.parametrize("argv, message", [
        (["--version"], "unrecognized arguments: --version"),
        (["-x", "--y=1"], "unrecognized arguments: -x --y=1"),
        ([], "the following arguments are required: command"),
    ])
    def test_option_without_command_is_named(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: recmono [-h]")
        assert err.endswith(f"\nrecmono: error: {message}\n")

class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "recmono.cli",
             "enumerate", "--a-max", "1", "--format", "csv"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout == "1,-1,1\n"


class TestSmokes:
    @pytest.mark.parametrize("row", [row for row in SMOKES if not row.ci_only],
                             ids=lambda row: row.name)
    def test_row(self, row, tmp_path):
        # tests/smokes.py, run as a script, also runs each row through the
        # installed recmono script
        assert check(row, *run_row(row, tmp_path)) == []

    def test_script_without_the_installed_recmono_exits_two(self, monkeypatch, capsys):
        # run as a script with no recmono on PATH it runs no row, says what
        # it needs and exits 2
        monkeypatch.setattr(shutil, "which", lambda name: None)
        assert smokes.main() == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "tests/smokes.py needs the installed recmono script (pip install -e .)\n"
