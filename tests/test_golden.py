"""Golden corpus: pinned CLI invocations whose output stays byte-identical.

Each case runs `recmono.cli.main` in-process and compares its exit code,
its stdout with tests/golden/<name>.out and, for cases that write a file
through `--out`, that file with tests/golden/<name>.file.  The corpus
of 48 cases covers all six subcommands and the README examples, and
leans on the root ordering: negative `a` with distinct,
square-discriminant and repeated roots, complex pairs, h-type starts,
`--from-k` (three of them past the window's end), two
report-deep-shaped calls whose oracle scans run on long operands, a
start whose residual decimals cancel about 60 digits,
coefficient-plane rasters whose cell centres land on a = 0 and b = 0,
and rasters on an asymmetric bbox with unlike corner denominators.
tests/smokes.py, run as a script, also runs every case through the
installed recmono script against the same files.

After an intended output change, regenerate the files and review the
diff:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple, Sequence

import pytest

from recmono.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
OUT = "{out}"  # replaced by a temporary path; the suffix picks the format

# name -> (exit code, argv)
CASES = {
    # README examples
    "readme_analyze_fibonacci": (0, ["analyze", "--a", "1", "--b", "-1", "--h-init", "1"]),
    "readme_analyze_lucas_out": (0, ["analyze", "--a", "1", "--b", "-1", "--v0", "2",
                                     "--v1", "1", "--window", "500", "--out", OUT + ".json"]),
    "readme_sequence_csv": (0, ["sequence", "--a", "1", "--b", "1/4", "--h-init", "1",
                                "--n", "6", "--format", "csv"]),
    "readme_enumerate_csv": (0, ["enumerate", "--a-max", "3", "--format", "csv"]),
    "readme_regions_dp_pgm": (0, ["regions", "--region", "DP", "--bbox=-1,5,-7,5",
                                  "--res", "201", "--out", OUT + ".pgm"]),
    "readme_regions_d_csv": (0, ["regions", "--region", "D", "--bbox=-3,3,-3,3",
                                 "--res", "201", "--out", OUT + ".csv"]),
    "readme_riccati": (0, ["riccati", "--a", "1", "--b", "-1", "--b0", "1/2", "--n", "5"]),
    "readme_characterize": (0, ["characterize"]),
    # analyze: the root ordering under every discriminant shape
    "analyze_neg_a_distinct": (0, ["analyze", "--a=-7/3", "--b=-5/7", "--v0=3/4",
                                   "--v1=-2/5", "--window", "120"]),
    "analyze_neg_a_square_disc": (0, ["analyze", "--a=-3", "--b=2", "--v0=1", "--v1=1/2"]),
    "analyze_neg_a_repeated": (0, ["analyze", "--a=-2", "--b=1", "--v0=1", "--v1=3"]),
    "analyze_pos_a_repeated_halving": (0, ["analyze", "--a", "1", "--b", "1/4",
                                           "--h-init", "1"]),
    "analyze_complex_pair": (0, ["analyze", "--a", "1", "--b", "1", "--v0", "1", "--v1", "2"]),
    "analyze_neg_a_complex": (0, ["analyze", "--a=-1/2", "--b=3", "--v0=2", "--v1=-1"]),
    "analyze_h_neg_a_square_disc": (0, ["analyze", "--a=-5/2", "--b=1", "--h-init=2/3"]),
    "analyze_h_inside_dp": (0, ["analyze", "--a", "3", "--b", "1", "--h-init", "1"]),
    "analyze_h_wide_roots": (0, ["analyze", "--a", "1", "--b=-6", "--h-init", "1",
                                 "--window", "60"]),
    "analyze_pos_a_square_disc": (0, ["analyze", "--a", "5", "--b", "6", "--v0", "1",
                                      "--v1", "1"]),
    "analyze_eigen_start": (0, ["analyze", "--a", "3", "--b", "2", "--v0", "1", "--v1", "2"]),
    "analyze_zero_start": (0, ["analyze", "--a", "2", "--b", "3/4", "--v0", "0", "--v1", "1"]),
    "analyze_from_k_mixed": (0, ["analyze", "--a", "7/3", "--b=-5/7", "--v0", "3/4",
                                 "--v1=-2/5", "--window", "150", "--from-k", "40"]),
    "analyze_from_k_lucas": (0, ["analyze", "--a", "1", "--b", "-1", "--v0", "2", "--v1", "1",
                                 "--from-k", "5"]),
    "analyze_from_k_neg_a": (0, ["analyze", "--a=-3", "--b=-4", "--v0=1", "--v1=1",
                                 "--window", "100", "--from-k", "3"]),
    # from-k windows lying past the window's end, so only the P1 from-k
    # comparisons reach those indices: a violation inside the from-k
    # window (at 36 of [29, 40]), a clean one, and one at k - 1 itself
    "analyze_from_k_far_violation": (0, ["analyze", "--a=7/2", "--b=3", "--v0=1000000",
                                         "--v1=1499990", "--window=10", "--from-k=30"]),
    "analyze_from_k_far_clean": (0, ["analyze", "--a", "1", "--b", "-1", "--h-init", "1",
                                     "--window", "20", "--from-k", "100"]),
    "analyze_from_k_far_start_violation": (0, ["analyze", "--a=7/3", "--b=-5/7", "--v0=3/4",
                                               "--v1=-2/5", "--window=40",
                                               "--from-k=200"]),
    # v1 is the golden ratio to 60 decimals, so the start lies within
    # 1e-61 of the dominant eigen-solution and each residual a[n]*alpha -
    # a[n+1] cancels about 60 digits: 6.22705260463E-61, 3.84853015939E-61,
    # 2.37852244523E-61
    "analyze_golden_ratio_start_decimals": (0, [
        "analyze", "--a", "1", "--b", "-1", "--v0", "1", "--v1",
        "1618033988749894848204586834365638117720309179805762862135448/"
        "1000000000000000000000000000000000000000000000000000000000000"]),
    "analyze_zero_coefficient_exit2": (2, ["analyze", "--a", "0", "--b", "1", "--v0", "1",
                                           "--v1", "1"]),
    # the report-deep shape: q = 13 h-specs inside DP at window 1000 and
    # from-k 1000, so the P2/P3 scans compare operands of ~2,000 bits
    "analyze_deep_q13_neg_b": (0, ["analyze", "--a=28/13", "--b=-3/13", "--h-init=2/5",
                                   "--window=1000", "--from-k=1000"]),
    "analyze_deep_q13_pos_b": (0, ["analyze", "--a=30/13", "--b=12/13", "--h-init=1",
                                   "--window=1000", "--from-k=1000"]),
    # sequence and enumerate, both formats
    "sequence_neg_a_json": (0, ["sequence", "--a=-2", "--b=1", "--v0=1", "--v1=3",
                                "--n", "8", "--format", "json"]),
    "sequence_fibonacci_csv": (0, ["sequence", "--a", "1", "--b", "-1", "--h-init", "1",
                                   "--n", "12", "--format", "csv"]),
    "enumerate_json": (0, ["enumerate", "--a-max", "4", "--format", "json"]),
    "enumerate_csv": (0, ["enumerate", "--a-max", "6", "--format", "csv"]),
    # riccati and characterize
    "riccati_complex": (0, ["riccati", "--a", "1", "--b", "1", "--b0", "2", "--n", "6"]),
    "riccati_neg_a": (0, ["riccati", "--a=-3", "--b", "2", "--b0", "1", "--n", "4"]),
    "characterize_small": (0, ["characterize", "--scan-bound", "20"]),
    # symmetric bboxes at odd resolution: centre row and column sit on
    # b = 0 and a = 0
    "regions_d1p_axes_pgm": (0, ["regions", "--region", "D1P", "--bbox=-3,3,-3,3",
                                 "--res", "15", "--out", OUT + ".pgm"]),
    "regions_d2p_axes_pgm": (0, ["regions", "--region", "D2P", "--bbox=-3,3,-3,3",
                                 "--res", "15", "--out", OUT + ".pgm"]),
    "regions_d3p_axes_pgm": (0, ["regions", "--region", "D3P", "--bbox=-3,3,-3,3",
                                 "--res", "15", "--out", OUT + ".pgm"]),
    "regions_d2p_axes_csv": (0, ["regions", "--region", "D2P", "--bbox=-5,5,-5,5",
                                 "--res", "21", "--out", OUT + ".csv"]),
    "regions_d3p_axes_csv": (0, ["regions", "--region", "D3P", "--bbox=-5,5,-5,5",
                                 "--res", "21", "--out", OUT + ".csv"]),
    "regions_d2_csv": (0, ["regions", "--region", "D2", "--bbox=-2,2,-2,2",
                           "--res", "9", "--out", OUT + ".csv"]),
    # an asymmetric bbox with unlike corner denominators at even
    # resolution: no centre sits on an axis, and the cell centres need a
    # common denominator other than any one corner's
    "regions_d1p_asym_pgm": (0, ["regions", "--region", "D1P", "--bbox=-7/3,11/5,-13/4,9/7",
                                 "--res", "40", "--out", OUT + ".pgm"]),
    "regions_d2p_asym_pgm": (0, ["regions", "--region", "D2P", "--bbox=-7/3,11/5,-13/4,9/7",
                                 "--res", "40", "--out", OUT + ".pgm"]),
    "regions_d3p_asym_pgm": (0, ["regions", "--region", "D3P", "--bbox=-7/3,11/5,-13/4,9/7",
                                 "--res", "40", "--out", OUT + ".pgm"]),
    "regions_d2_asym_pgm": (0, ["regions", "--region", "D2", "--bbox=-7/3,11/5,-13/4,9/7",
                                "--res", "40", "--out", OUT + ".pgm"]),
    "regions_d3p_asym_csv": (0, ["regions", "--region", "D3P", "--bbox=-7/3,11/5,-13/4,9/7",
                                 "--res", "40", "--out", OUT + ".csv"]),
}


class Run(NamedTuple):
    """What one call did."""

    code: int
    stdout: bytes
    written: bytes | None  # the --out file's bytes, None where none was written
    stderr: str


def run_case(argv: Sequence[str], tmp: Path, installed: bool = False) -> Run:
    """One call: in process through main or, where installed, through the
    installed recmono script.  OUT + suffix in an argument names a file in tmp."""
    out_path = None
    args = []
    for arg in argv:
        if OUT in arg:
            option, _, suffix = arg.partition(OUT)
            out_path = tmp / ("out" + suffix)
            arg = option + str(out_path)
        args.append(arg)
    if installed:
        done = subprocess.run(["recmono", *args], capture_output=True)
        code, stdout, stderr = done.returncode, done.stdout, done.stderr.decode("utf-8")
    else:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(args)
            except SystemExit as exc:  # argparse's help and refusals
                code = exc.code
        stdout, stderr = out.getvalue().encode("utf-8"), err.getvalue()
    written = out_path.read_bytes() if out_path is not None and out_path.exists() else None
    return Run(code, stdout, written, stderr)


def expected(name: str) -> tuple[int, bytes, bytes | None]:
    """The exit code, stdout bytes and --out file bytes (or None) of case name."""
    file_path = GOLDEN / f"{name}.file"
    return (CASES[name][0], (GOLDEN / f"{name}.out").read_bytes(),
            file_path.read_bytes() if file_path.exists() else None)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path):
    run = run_case(CASES[name][1], tmp_path)
    code, stdout, written = expected(name)
    assert run.code == code
    assert run.stdout == stdout
    assert run.written == written


def test_no_orphaned_golden_files():
    # a file left behind by a deleted or renamed case would pin nothing
    owned = {f"{name}{suffix}" for name in CASES for suffix in (".out", ".file")}
    assert sorted(p.name for p in GOLDEN.iterdir() if p.name not in owned) == []


def regenerate() -> None:
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for name, (expected_code, argv) in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            run = run_case(argv, Path(tmp))
        if run.code != expected_code:
            sys.exit(f"{name}: exit {run.code}, expected {expected_code}")
        (GOLDEN / f"{name}.out").write_bytes(run.stdout)
        if run.written is not None:
            (GOLDEN / f"{name}.file").write_bytes(run.written)


if __name__ == "__main__":
    regenerate()
