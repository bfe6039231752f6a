"""Command-line surface: analyze, sequence, enumerate, regions, riccati,
characterize.

Inputs are exact rationals written as ``p/q`` or plain integers; decimal
literals are rejected so no inexactness can enter.  Output is
deterministic JSON (sorted keys, no timestamps) or plain CSV text.  Exit
codes: 0 success, 2 input validation error, 1 internal inconsistency
between a decision procedure and its oracle window.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .numtheory import boundary_characterization, enumerate_generalized_fibonacci
from .qfield import quadratic_roots
from .recurrence import RecurrenceSpec, iterate, make_h_spec
from .regions import RegionId, check_csv_range, rasterize, write_csv, write_pgm
from .report import InternalInconsistency, build_report, spec_json
from .riccati import riccati_orbit

__all__ = ["main", "parse_rational"]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")

CLI_REGIONS = ("D1", "D2", "D3", "D", "D1P", "D2P", "D3P", "DP")


def parse_rational(text: str) -> Fraction:
    """Exact rational from 'p/q' or an integer literal; nothing else."""
    if not _RATIONAL_RE.match(text):
        raise argparse.ArgumentTypeError(
            f"not a rational: {text!r} (write p/q or an integer; "
            "decimal literals are not accepted)"
        )
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise argparse.ArgumentTypeError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def _bbox(text: str) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("bbox must be x0,x1,y0,y1")
    return tuple(parse_rational(p) for p in parts)  # type: ignore[return-value]


def _add_spec_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--a", type=parse_rational, required=True, metavar="R")
    sub.add_argument("--b", type=parse_rational, required=True, metavar="R")
    sub.add_argument("--h-init", type=parse_rational, metavar="R",
                     help="start from a[-1] = 0, a[0] = R (excludes --v0/--v1)")
    sub.add_argument("--v0", type=parse_rational, metavar="R")
    sub.add_argument("--v1", type=parse_rational, metavar="R")


def _spec_from_args(args: argparse.Namespace) -> RecurrenceSpec:
    has_h = args.h_init is not None
    has_v = args.v0 is not None or args.v1 is not None
    if has_h and has_v:
        raise ValueError("--h-init is mutually exclusive with --v0/--v1")
    if has_h:
        return make_h_spec(args.a, args.b, args.h_init)
    if args.v0 is None or args.v1 is None:
        raise ValueError("provide --h-init, or both --v0 and --v1")
    return RecurrenceSpec(args.a, args.b, args.v0, args.v1)


def _emit_json(payload: dict, out: Optional[str]) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _analyze_reproducer(args: argparse.Namespace) -> str:
    """The analyze call as one ready-to-run line; the --flag=value form
    keeps negative rationals from being read as options."""
    if args.h_init is not None:
        start = [f"--h-init={args.h_init}"]
    else:
        start = [f"--v0={args.v0}", f"--v1={args.v1}"]
    return " ".join(["recmono analyze", f"--a={args.a}", f"--b={args.b}", *start,
                     f"--window={args.window}", f"--from-k={args.from_k}"])


def _cmd_analyze(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    report = build_report(spec, window=args.window, from_k=args.from_k)
    _emit_json(report, args.out)
    return 0


def _cmd_sequence(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    terms = iterate(spec, args.n)
    if args.format == "csv":
        lines = [f"{i},{t}" for i, t in enumerate(terms)]
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        _emit_json(
            {
                "schema": 1,
                "spec": spec_json(spec),
                "n": args.n,
                "start_index": 0,
                "terms": [str(t) for t in terms],
            },
            None,
        )
    return 0


def _render_pair(a: int, b: int) -> dict:
    c = -b
    return {
        "a": a,
        "b": b,
        "c": c,
        "homogeneous_form": f"a[n+2] - ({a})*a[n+1] + ({b})*a[n] = 0",
        "additive_form": f"a[n+2] = ({a})*a[n+1] + ({c})*a[n]",
    }


def _cmd_enumerate(args: argparse.Namespace) -> int:
    pairs = enumerate_generalized_fibonacci(args.a_max)
    if args.format == "csv":
        lines = [f"{p.a},{p.b},{-p.b}" for p in pairs]
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        _emit_json(
            {
                "schema": 1,
                "a_max": args.a_max,
                "count": len(pairs),
                "pairs": [_render_pair(p.a, p.b) for p in pairs],
            },
            None,
        )
    return 0


def _cmd_regions(args: argparse.Namespace) -> int:
    path = args.out
    # checked before rasterizing: a large --res costs seconds of exact work
    if path.endswith(".pgm"):
        write = write_pgm
    elif path.endswith(".csv"):
        write = write_csv
        check_csv_range(args.bbox, args.res)
    else:
        raise ValueError(f"--out must end in .pgm or .csv, got {path!r}")
    write(rasterize(RegionId[args.region], args.bbox, args.res), path)
    return 0


def _cmd_riccati(args: argparse.Namespace) -> int:
    orbit = riccati_orbit(args.a, args.b, args.b0, args.n)
    roots = quadratic_roots(args.a, args.b)
    if roots.discriminant_sign >= 0:
        fixed_points = [str(roots.alpha_plus), str(roots.alpha_minus)]
    else:
        fixed_points = None
    _emit_json(
        {
            "schema": 1,
            "a": str(orbit.a),
            "b": str(orbit.b),
            "b0": str(args.b0),
            "n": args.n,
            "states": [str(s) for s in orbit.states],
            "terminated_early": orbit.terminated_early,
            "fixed_points": fixed_points,
        },
        None,
    )
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    pairs = boundary_characterization(scan_bound=args.scan_bound)
    _emit_json(
        {
            "schema": 1,
            "scan_bound": args.scan_bound,
            "pairs": [[p.a, p.b] for p in pairs],
        },
        None,
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recmono",
        description=(
            "Exact monotonicity analysis of second-order linear recurrences "
            "a[n+2] - a*a[n+1] + b*a[n] = 0 with rational coefficients."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_analyze = subs.add_parser(
        "analyze", help="full decision + oracle report for one recurrence"
    )
    _add_spec_args(p_analyze)
    p_analyze.add_argument("--window", type=_positive_int, default=300, metavar="N")
    p_analyze.add_argument("--from-k", type=_nonnegative_int, default=0, metavar="K")
    p_analyze.add_argument("--out", metavar="PATH",
                           help="write the JSON report here instead of stdout")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_sequence = subs.add_parser("sequence", help="print exact terms a[0..n]")
    _add_spec_args(p_sequence)
    p_sequence.add_argument("--n", type=_nonnegative_int, required=True, metavar="N")
    p_sequence.add_argument("--format", choices=("json", "csv"), default="json")
    p_sequence.set_defaults(func=_cmd_sequence)

    p_enum = subs.add_parser(
        "enumerate",
        help="integer pairs (a, b) with 0 < |b| <= a and both roots real, "
        "the dominant one at least 1",
    )
    p_enum.add_argument("--a-max", type=_positive_int, required=True, metavar="N")
    p_enum.add_argument("--format", choices=("json", "csv"), default="json")
    p_enum.set_defaults(func=_cmd_enumerate)

    p_regions = subs.add_parser(
        "regions", help="rasterize a membership region to PGM or CSV"
    )
    p_regions.add_argument("--region", choices=CLI_REGIONS, required=True)
    p_regions.add_argument(
        "--bbox", type=_bbox, required=True, metavar="x0,x1,y0,y1",
        help="rational corners; write --bbox=-3,3,-3,3 when x0 is negative",
    )
    p_regions.add_argument("--res", type=_positive_int, required=True, metavar="N")
    p_regions.add_argument("--out", required=True, metavar="PATH")
    p_regions.set_defaults(func=_cmd_regions)

    p_riccati = subs.add_parser(
        "riccati", help="orbit of the ratio map s -> (a*s - b)/s"
    )
    p_riccati.add_argument("--a", type=parse_rational, required=True, metavar="R")
    p_riccati.add_argument("--b", type=parse_rational, required=True, metavar="R")
    p_riccati.add_argument("--b0", type=parse_rational, required=True, metavar="R")
    p_riccati.add_argument("--n", type=_positive_int, required=True, metavar="N")
    p_riccati.set_defaults(func=_cmd_riccati)

    p_char = subs.add_parser(
        "characterize",
        help="integer boundary pairs whose polynomial is irreducible",
    )
    p_char.add_argument("--scan-bound", type=_positive_int, default=1000, metavar="N")
    p_char.set_defaults(func=_cmd_characterize)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and reused: building it costs about
    ten times what parsing one command line does."""
    return _build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        print(_analyze_reproducer(args), file=sys.stderr)
        return 1
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
