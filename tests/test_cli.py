"""Command-line behavior: strict rational parsing, exit codes,
deterministic JSON, format goldens, and file output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from fractions import Fraction

import pytest

import recmono.cli as cli
from recmono.cli import main, parse_rational
from recmono.recurrence import RecurrenceSpec, iterate


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
        argv = ("analyze", "--a", "1", "--b", "-1", "--v0", "2", "--v1", "1")
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1 == json.dumps(json.loads(out1), sort_keys=True, indent=2) + "\n"

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
        ],
    )
    def test_out_of_range_or_malformed_exits_two(self, capsys, argv, text):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert text in capsys.readouterr().err

    def test_res_bounds_are_inclusive(self):
        # the parser alone: a raster at the cap is not run
        for res in (2, cli.MAX_RES):
            args = cli._parser().parse_args(
                ["regions", "--region", "D", "--bbox=-1,1,-1,1", "--res", str(res),
                 "--out", "x.pgm"])
            assert args.res == res

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

    def test_sequence_last_term_matches_iterate(self, capsys):
        # integer terms past the limit, and fractional coefficients, whose
        # terms are reduced fractions of about 2,600 over 1,800 digits
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
            last = iterate(RecurrenceSpec(*map(Fraction, (a, b, v0, v1))), n)[-1]
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


class TestParserReuse:
    def test_parser_built_once_across_calls(self, capsys, monkeypatch):
        calls = []
        build = cli._build_parser

        def counting_build():
            calls.append(1)
            return build()

        monkeypatch.setattr(cli, "_build_parser", counting_build)
        cli._parser.cache_clear()
        code, out, _ = run_cli(capsys, "characterize", "--scan-bound", "5")
        assert code == 0 and json.loads(out)["scan_bound"] == 5
        code, out, _ = run_cli(capsys, "enumerate", "--a-max", "1", "--format", "csv")
        assert code == 0 and out == "1,-1,1\n"
        # the reused parser still rejects bad input with exit 2
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--a-max", "0"])
        assert exc.value.code == 2
        assert len(calls) == 1


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
