"""The command-line smokes: one table of recmono lines and what each pins.

A row is a command line and its exit code, and, as the line calls for:
the walk its oracle scans take (Walk), facts of its JSON stdout, a
stderr substring, patterns its stdout matches, the golden case of
tests/test_golden.py whose output it prints, and whether its stdout is
laid out as json.dumps(sort_keys=True, indent=2) lays it out.  A row
that exits nonzero writes no --out file.  A row names a golden case
instead of repeating its command line, or gives its own line where it
spells that case's line another way.

Tier-1 runs every row not marked ci_only in process, through
recmono.cli.main with the oracle's event sink installed
(tests/test_cli.py::TestSmokes).  The ci_only rows take more than
about 0.5 s each in process, or, at --res 4096, feed the cellwise-AND
check.  Run as a script, with recmono installed, it runs every row in
process and checks it, runs it again through the installed recmono
script, which must give the same exit code, stdout and --out bytes, and
runs every golden case through the installed script against its golden
files; it exits 1 on any difference, and 2, running nothing, where no
recmono script is on PATH:

    python tests/smokes.py
"""

from __future__ import annotations

import functools
import json
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

from conftest import oracle_events
from test_golden import CASES, OUT, Run, expected, run_case


class Walk(NamedTuple):
    """The oracle walks of an analyze line, over every scan it runs, in
    walk order: each certified block's first index, each index where a
    lasting certificate ended a walk, each (n, k1) where P1 jumped from n
    to the from-k window's first index k1, and the number of exact steps."""

    certified: tuple[int, ...] = ()
    lasting: tuple[int, ...] = ()
    jumps: tuple[tuple[int, int], ...] = ()
    exact: int = 0


def walk_of(events: list[tuple]) -> Walk:
    """The Walk that a list of oracle events (see oracle.scan) records."""
    return Walk(tuple(e[1] for e in events if e[0] == "certified"),
                tuple(e[1] for e in events if e[0] == "lasting"),
                tuple(e[1:] for e in events if e[0] == "jump"),
                sum(e[0] == "exact" for e in events))


class Smoke(NamedTuple):
    """One row; argv defaults to the golden case's command line."""

    name: str
    argv: tuple[str, ...] = ()
    code: int = 0
    walk: Walk | None = None
    facts: dict | None = None  # dotted JSON key -> value
    stderr: str = ""
    stdout: tuple[str, ...] = ()  # patterns, each matching a line
    golden: str = ""
    layout: bool = False
    ci_only: bool = False

    @property
    def line(self) -> tuple[str, ...]:
        return self.argv or tuple(CASES[self.golden][1])


# the two boxes, one per plane, on which the cellwise-AND check runs every
# region at the --res cap
CAP_BOXES = ("-3,3,-3,3", "-1,5,-7,5")
CAP_REGIONS = ("D1", "D2", "D3", "D", "D1P", "D2P", "D3P", "DP")
CAP = {f"res_cap_{region}_{box}": (box, region) for box in CAP_BOXES for region in CAP_REGIONS}

SMOKES = [
    Smoke("fibonacci",
          ("analyze", "--a", "1", "--b", "-1", "--h-init", "1", "--window", "50"),
          walk=Walk((2,), (4,))),
    # the block certified at 2 decides P1, P2 and P3 at every later index,
    # so the clean from-k window [1999, 2050] needs no jump
    Smoke("fibonacci_from_k",
          ("analyze", "--a", "1", "--b", "-1", "--h-init", "1", "--window", "50",
           "--from-k", "2000"),
          walk=Walk((2,), (4,)),
          facts={"oracle_windows.p1_from_k.checked_range": [1999, 2050],
                 "oracle_windows.p1_from_k.first_violation": None}),
    # every term negative from index 1 on and falling from 2 on: the
    # certified block [4, 6) makes every later index a P1 violation, the
    # from-k window's first at its first index, with no jump
    Smoke("negative_from_34",
          ("analyze", "--a=7/3", "--b=-5/7", "--v0=3/4", "--v1=-2/5", "--window=300",
           "--from-k=30000"),
          walk=Walk((4,), (6,), exact=2),
          facts={"oracle_windows.p1_from_k.first_violation": 29999}),
    # the report-deep shape: one certified block [2, 4) decides P1, P2 and
    # P3 at every later index, with no jump
    Smoke("deep", golden="analyze_deep_q13_neg_b",
          walk=Walk((2,), (4,)),
          facts={"oracle_windows.p1_from_k.first_violation": None}),
    # the same with every term negative: the from-k window stops at its
    # first index
    Smoke("deep_negative",
          ("analyze", "--a=28/13", "--b=-3/13", "--h-init=-2/5", "--window=1000",
           "--from-k=1000"),
          walk=Walk((2,), (4,)),
          facts={"oracle_windows.p1_from_k.first_violation": 999}),
    # rational roots 3 and 1/2, q = 2 < |B| = 3
    Smoke("rational_roots",
          ("analyze", "--a=7/2", "--b=3/2", "--v0=1", "--v1=2", "--window", "1000"),
          walk=Walk((2,), (4,))),
    # past the window P1 jumps from 11 to the from-k window's first index,
    # 29, and steps from there to its violation at 36
    Smoke("from_k_far_violation", golden="analyze_from_k_far_violation",
          walk=Walk(jumps=((11, 29),), exact=2),
          facts={"oracle_windows.p1_from_k.first_violation": 36}),
    # the near-unit corner at the --from-k cap: no certificate, so P1 jumps
    # from 301 to 49999 and steps once, onto a violation
    Smoke("near_unit_corner_from_k",
          ("analyze", "--a=101/50", "--b=1019999/1000000", "--v0=1", "--v1=72/73",
           "--window=300", "--from-k=50000"),
          walk=Walk(jumps=((301, 49999),), exact=47),
          facts={"oracle_windows.p1_from_k.first_violation": 49999}),
    # repeated root 1: P3 ties at every index; a block of growth by 1
    Smoke("repeated_unit_root",
          ("analyze", "--a", "2", "--b", "1", "--v0", "1", "--v1", "3", "--window", "1000"),
          walk=Walk((2,), (4,))),
    # the same root falling, a[n] = -1 - 2*n: every later index is a P1
    # violation, the from-k window's first at its first index
    Smoke("repeated_unit_root_falling",
          ("analyze", "--a", "2", "--b", "1", "--v0=-1", "--v1=-3", "--window=10000",
           "--from-k=50000"),
          walk=Walk((2,), (4,)),
          facts={"oracle_windows.p1_from_k.first_violation": 49999}),
    # a growing spec at the --window and --from-k caps
    Smoke("caps",
          ("analyze", "--a=7/3", "--b=-5/7", "--v0=3/4", "--v1=-2/5", "--window=10000",
           "--from-k=50000"),
          walk=Walk((4,), (6,), exact=2),
          facts={"oracle_windows.p1_from_k.first_violation": 49999}),
    # alternating terms, dominant root -1.62: the test on the mirror
    # (-1)**n * M[n] certifies [2, 4); P1 fails at every even index from
    # 2 on, and the from-k window's first violation is read off its parity
    Smoke("alternating",
          ("analyze", "--a=-1", "--b=-1", "--v0=1", "--v1=-1", "--window=10000",
           "--from-k=50000"),
          walk=Walk((2,), (4,)),
          facts={"oracle_windows.p1_from_k.first_violation": 50000}),
    # the spec of "caps" with a = -7/3, dominant root -2.61: the mirror
    # certifies [3, 5)
    Smoke("alternating_mirrored",
          ("analyze", "--a=-7/3", "--b=-5/7", "--v0=3/4", "--v1=-2/5", "--window=10000"),
          walk=Walk((3,), (5,), exact=1)),
    # n0 past the window, 1152 against the default window of 300 and 15
    # against a window of 2: each is certified on two from-k windows, the
    # second scanned with window 0, so its walk jumps from index 1
    Smoke("n0_past_window",
          ("analyze", "--a", "2", "--b", "999999/1000000", "--v0", "11", "--v1", "10991/1000"),
          walk=Walk(jumps=((301, 1152), (1, 1151)), exact=603)),
    Smoke("n0_past_short_window",
          ("analyze", "--a=1/3", "--b=-3/4", "--v0=4", "--v1=-2", "--window=2"),
          walk=Walk(jumps=((3, 15), (1, 14)), exact=10)),
    # n0 near 10**6, past the search limit: the dominance bound proves the
    # tail clean from 10000001 on, so the line is refused, not reported as
    # an inconsistency
    Smoke("n0_past_search_limit",
          ("analyze", "--a", "2", "--b", "99999999999999/100000000000000", "--v0", "1",
           "--v1", "99999999/100000000"),
          code=2, stderr="fails at every start up to 32768, and the dominance bound proves "
                         "only n0 <= 10000001", ci_only=True),
    # a '-'-led value after a space is left to argparse, which refuses it
    Smoke("dash_led_value",
          ("analyze", "--a", "1", "--b", "-1/2", "--h-init", "1"),
          code=2, walk=Walk(), stderr="argument --b: expected one argument"),
    # one past the --window cap exits 2 before any work
    Smoke("window_over_cap",
          ("analyze", "--a", "1", "--b", "-1", "--h-init", "1", "--window", "10001"),
          code=2, walk=Walk(), stderr="argument --window: must be at most 10000"),
    # decaying terms: P2 leads and implies P3, and its brackets leave 18
    # indices to the exact step
    Smoke("decaying",
          ("analyze", "--a=11/10", "--b=1/5", "--h-init=1", "--window=1000"),
          walk=Walk(exact=18)),
    # near the repeated-unit-root corner the exact step runs 47 times
    Smoke("near_unit_corner",
          ("analyze", "--a=101/50", "--b=1019999/1000000", "--v0=1", "--v1=72/73",
           "--window=300"),
          walk=Walk(exact=47)),
    # a start on the non-dominant eigen-solution 2^n: P1 holds on
    # COND_GEOMETRIC, P3 fails, and the ratio sits at beta
    Smoke("eigen_start_beta",
          ("analyze", "--a", "5", "--b", "6", "--v0", "1", "--v1", "2", "--window", "50"),
          walk=Walk(exact=52),
          facts={"verdicts.p1_eventual.branch": "COND_GEOMETRIC",
                 "verdicts.p3_weighted.holds": False, "degenerate_geometric": False,
                 "ratio_limit.which_root": "beta"}),
    # a start on the dominant eigen-solution 3^n: the weighted residual is
    # identically zero, so P3 holds although |beta| = 2 > 1
    Smoke("eigen_start_alpha",
          ("analyze", "--a", "5", "--b", "6", "--v0", "1", "--v1", "3", "--window", "50"),
          walk=Walk(exact=51),
          facts={"verdicts.p3_weighted.holds": True, "degenerate_geometric": True,
                 "ratio_limit.which_root": "alpha"}),
    Smoke("sequence", ("sequence", "--a", "1", "--b", "-1", "--h-init", "1", "--n", "12")),
    # terms and orbit states past the interpreter's 4300-digit int-to-str limit
    Smoke("sequence_past_digit_limit",
          ("sequence", "--a", "10", "--b", "1", "--v0", "1", "--v1", "10", "--n", "5000"),
          ci_only=True),
    Smoke("riccati_past_digit_limit",
          ("riccati", "--a", "10", "--b", "1", "--b0", "1/3", "--n", "5000"),
          ci_only=True),
    # JSON is the default format
    Smoke("enumerate", ("enumerate", "--a-max", "4"), golden="enumerate_json"),
    # the JSON writer lays out the largest outputs as json.dumps does:
    # enumerate at its cap, 17 MB, and an orbit of 5000 fractional states
    Smoke("enumerate_cap_layout", ("enumerate", "--a-max", "300"), layout=True, ci_only=True),
    Smoke("riccati_fractional_layout",
          ("riccati", "--a=7/3", "--b=-5/7", "--b0=-8/15", "--n=5000"),
          layout=True, ci_only=True),
    # one past the --a-max cap exits 2
    Smoke("a_max_over_cap", ("enumerate", "--a-max", "301"),
          code=2, stderr="argument --a-max: must be at most 300"),
    Smoke("riccati", golden="readme_riccati"),
    Smoke("regions_pgm",
          ("regions", "--region", "D1P", "--bbox=-3,3,-3,3", "--res", "9", "--out", OUT + ".pgm")),
    Smoke("regions_csv",
          ("regions", "--region", "D", "--bbox=-3,3,-3,3", "--res", "9", "--out", OUT + ".csv")),
    # the same line with = spellings, and abbreviated, which argparse reads,
    # writes the same raster
    Smoke("regions_spaced", golden="readme_regions_dp_pgm"),
    Smoke("regions_equals",
          ("regions", "--region=DP", "--bbox=-1,5,-7,5", "--res=201", "--out=" + OUT + ".pgm"),
          golden="readme_regions_dp_pgm"),
    Smoke("regions_abbreviated",
          ("regions", "--reg", "DP", "--bbox=-1,5,-7,5", "--res", "201", "--out", OUT + ".pgm"),
          golden="readme_regions_dp_pgm"),
    Smoke("regions_res_2001",
          ("regions", "--region", "D3P", "--bbox=-3,3,-3,3", "--res", "2001",
           "--out", OUT + ".pgm")),
    *(Smoke(name,
            ("regions", "--region", region, f"--bbox={box}", "--res", "4096",
             "--out", OUT + ".pgm"),
            ci_only=True)
      for name, (box, region) in CAP.items()),
    # one past the --res cap exits 2 and writes nothing
    Smoke("res_over_cap",
          ("regions", "--region", "D3P", "--bbox=-3,3,-3,3", "--res", "4097",
           "--out", OUT + ".pgm"),
          code=2, stderr="argument --res: must be at most 4096"),
    Smoke("characterize", golden="readme_characterize"),
    # the top-level help names every command
    Smoke("help", ("--help",),
          stdout=tuple(f"^    {command} " for command in (
              "analyze", "sequence", "enumerate", "regions", "riccati", "characterize"))),
    Smoke("unknown_command", ("analy",), code=2, stderr="invalid choice: 'analy'"),
    # an unknown option exits 2 under its command's usage and writes nothing
    Smoke("unknown_option",
          ("regions", "--region", "D", "--bbox=-3,3,-3,3", "--res", "9", "--out", OUT + ".pgm",
           "--bogus"),
          code=2, stderr="recmono regions: error"),
]


def run_row(row: Smoke, tmp: Path) -> tuple[Run, list[tuple]]:
    """row's run in process, and the events of its oracle walks."""
    with oracle_events() as events:
        run = run_case(row.line, tmp)
    return run, events


def check(row: Smoke, run: Run, events: list[tuple]) -> list[str]:
    """Where an in-process run of row and its walk's events miss what row
    pins; [] where they meet it."""
    missed = []
    if run.code != row.code:
        missed.append(f"exit {run.code}, expected {row.code}")
    if row.code and run.written is not None:
        missed.append("a refused line wrote its --out file")
    if row.stderr not in run.stderr:
        missed.append(f"stderr lacks {row.stderr!r}")
    walk = walk_of(events)
    if row.walk is not None and walk != row.walk:
        missed.append(f"{walk}, expected {row.walk}")
    if row.golden and (run.stdout, run.written) != expected(row.golden)[1:]:
        missed.append(f"output differs from golden case {row.golden}")
    text = run.stdout.decode("utf-8")
    missed += [f"stdout lacks a line matching {p!r}" for p in row.stdout
               if not re.search(p, text, re.MULTILINE)]
    if row.facts:
        report = json.loads(text)
        for key, want in row.facts.items():
            got = functools.reduce(lambda node, part: node[part], key.split("."), report)
            if got != want:
                missed.append(f"{key} is {got!r}, expected {want!r}")
    if row.layout and text != json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n":
        missed.append("stdout is not laid out as json.dumps(sort_keys=True, indent=2)")
    return missed


def cellwise_and(box: str, rasters: dict[str, bytes]) -> list[str]:
    """Where, on box at the --res cap, DP is not the cellwise AND of D1P,
    D2P and D3P, or D that of D1, D2 and D3; rasters maps each region of
    CAP_REGIONS to its PGM."""
    header = b"P5\n4096 4096\n255\n"
    cells = {}
    for region, blob in rasters.items():
        if not blob or not blob.startswith(header) or len(blob) != len(header) + 4096 * 4096:
            return [f"{region} on {box}: not a 4096x4096 PGM"]
        # a cell is 0 or 255, so the AND of the bytes is the AND of the cells
        cells[region] = int.from_bytes(blob[len(header):], "big")
    return [f"{whole} on {box} is not the cellwise AND of {parts}"
            for whole, parts in (("DP", ("D1P", "D2P", "D3P")), ("D", ("D1", "D2", "D3")))
            if cells[whole] != cells[parts[0]] & cells[parts[1]] & cells[parts[2]]]


def main() -> int:
    if shutil.which("recmono") is None:
        print("tests/smokes.py needs the installed recmono script (pip install -e .)",
              file=sys.stderr)
        return 2
    # argparse wraps help to the terminal's width: both runs read this one
    os.environ["COLUMNS"] = "80"
    failures = []
    rasters: dict[str, dict[str, bytes]] = {}
    for row in SMOKES:
        with tempfile.TemporaryDirectory() as tmp:
            ours, script = Path(tmp, "in"), Path(tmp, "script")
            ours.mkdir()
            script.mkdir()
            run, events = run_row(row, ours)
            installed = run_case(row.line, script, installed=True)
        missed = check(row, run, events)
        missed += [f"the installed script's {field} differs from the in-process run's"
                   for field in ("code", "stdout", "written")
                   if getattr(installed, field) != getattr(run, field)]
        failures += [f"{row.name}: {m}" for m in missed]
        if row.name in CAP:
            box, region = CAP[row.name]
            rasters.setdefault(box, {})[region] = run.written
            if len(rasters[box]) == len(CAP_REGIONS):
                failures += cellwise_and(box, rasters.pop(box))
    for name, (_, argv) in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            run = run_case(argv, Path(tmp), installed=True)
        if (run.code, run.stdout, run.written) != expected(name):
            failures.append(f"golden case {name}: the installed script's output differs")
    for failure in failures:
        print(failure, file=sys.stderr)
    print(f"{len(failures)} failures over {len(SMOKES)} rows and {len(CASES)} golden cases")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
