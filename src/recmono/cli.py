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
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
from typing import Callable, NamedTuple, Optional, Sequence

from .numtheory import boundary_characterization, enumerate_generalized_fibonacci
from .qfield import quadratic_roots
from .recurrence import RecurrenceSpec, iterate, make_h_spec
from .regions import RegionId, rasterize, write_csv, write_pgm
from .report import InternalInconsistency, build_report, spec_json
from .riccati import riccati_orbit

__all__ = ["main", "parse_rational"]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")

# a raster holds and writes res^2 one-byte cells; at 4096 a PGM took
# 0.12-0.15 s and 64 MB, about 0.02 s of it the raster, and a 174 MB
# CSV 2.5-3.5 s (CPython 3.11.7, x86-64)
MAX_RES = 4096

# sequence prints a[0..n] and riccati n orbit states of O(n) digits each,
# so the output grows as n**2 and, with int-to-str quadratic in the
# digits, the time faster; on (a, b, v0, v1) = (7/3, -5/7, 3/4, -2/5) at
# --n 5000 they took 3.4 s (28 MB) and 4.2 s (33 MB), at 10000 22 s and
# 30 s (111 and 132 MB) (CPython 3.11.7, x86-64)
MAX_N = 5000

# analyze walks its window index by index wherever no certificate covers
# it: on a complex pair whose P3 holds, (a, b, v0, v1) = (1/2, 1/3, 1, 1),
# build_report took 1.2 s at --window 10000 and 22 s at 30000 (CPython
# 3.11, x86-64); a block certificate makes growing terms cheap at any size
MAX_WINDOW = 10000

# the oracle's jump to the from-k window and the decisions' jumps to k
# each take O(log k) products of integers of O(k) digits, and the oracle
# steps through the window on such integers: on the near-unit corner
# (101/50, 1019999/1000000, 1, 72/73) at --window 300, build_report took
# 0.22 s at --from-k 30000, 0.36 s at 50000, 0.92 s at 100000 and 29 s at
# 10**6, split about evenly between the two jumps (CPython 3.11, x86-64)
MAX_FROM_K = 50000

# enumerate lists the O(a_max**2) integer pairs up to a_max, five JSON
# fields each: at --a-max 300 JSON took 0.7-1.1 s, 17 MB of output and
# 158 MB peak RSS, at 600 3-4 s, 68 MB and 590 MB; CSV 0.14 and 0.66 s
# (CPython 3.11.7, x86-64)
MAX_A_MAX = 300


def _echo(text: str) -> str:
    """An argument value as an error message quotes it: whole up to 20
    characters, else its first 20 and its length."""
    if len(text) <= 20:
        return repr(text)
    return f"{text[:20]!r}... ({len(text)} characters)"


def _check_digit_limit(text: str) -> None:
    """Refuse a run of digits longer than the interpreter parses into an
    int, naming the limit and echoing only the start of text.  No run of
    digits is longer than text, so a text within the limit needs no scan."""
    limit = sys.get_int_max_str_digits()
    if limit and len(text) > limit and max(map(len, re.findall(r"\d+", text)), default=0) > limit:
        raise argparse.ArgumentTypeError(
            f"more than the interpreter's limit of {limit} digits: {_echo(text)}")


def parse_rational(text: str) -> Fraction:
    """Exact rational from 'p/q' or an integer literal; nothing else."""
    if not _RATIONAL_RE.match(text):
        raise argparse.ArgumentTypeError(
            f"not a rational: {_echo(text)} (write p/q or an integer; "
            "decimal literals are not accepted)"
        )
    _check_digit_limit(text)
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise argparse.ArgumentTypeError(f"zero denominator: {_echo(text)}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def _bounded_int(lower: int, upper: Optional[int] = None):
    """argparse type: an integer of at least lower and, if upper is given,
    at most upper."""

    def parse(text: str) -> int:
        _check_digit_limit(text)
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {_echo(text)}")
        if value < lower:
            raise argparse.ArgumentTypeError(
                "must be non-negative" if lower == 0 else f"must be at least {lower}"
            )
        if upper is not None and value > upper:
            raise argparse.ArgumentTypeError(f"must be at most {upper}")
        return value

    return parse


def _bbox(text: str) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("bbox must be x0,x1,y0,y1")
    return tuple(parse_rational(p) for p in parts)  # type: ignore[return-value]


class _Option(NamedTuple):
    """One option of a command: its flag, then what add_argument takes
    for it.  A default is the value itself, never text for type to read."""

    flag: str
    type: Optional[Callable[[str], object]] = None
    choices: Optional[tuple[str, ...]] = None
    default: object = None
    required: bool = False
    metavar: Optional[str] = None
    help: Optional[str] = None


_SPEC_OPTIONS = (
    _Option("--a", parse_rational, required=True, metavar="R"),
    _Option("--b", parse_rational, required=True, metavar="R"),
    _Option("--h-init", parse_rational, metavar="R",
            help="start from a[-1] = 0, a[0] = R (excludes --v0/--v1)"),
    _Option("--v0", parse_rational, metavar="R"),
    _Option("--v1", parse_rational, metavar="R"),
)
_FORMAT = _Option("--format", choices=("json", "csv"), default="json")


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


def _write_json(value, append, indent: str) -> None:
    """Append the JSON text of the dict, list or tuple value, laid out as
    json.dumps(value, sort_keys=True, indent=2) lays it out, piece by
    piece through append; indent is the line break and the indentation of
    the line value starts on.  A leaf is written here, without a call of
    its own: a str by json's own escaping, an int by int.__repr__ (after
    bools, which are ints), True, False and None as json writes them.
    Anything else, and a key that is not a str, raises TypeError."""
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            append("{}")
            return
        keys = sorted(value)
        heads = [inner + _json_str(key) + ": " for key in keys]
        items = [value[key] for key in keys]
        opener, closer = "{", indent + "}"
    elif isinstance(value, (list, tuple)):
        if not value:
            append("[]")
            return
        heads = [inner] * len(value)
        items = value
        opener, closer = "[", indent + "]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    append(opener)
    separator = ""
    for head, item in zip(heads, items):
        append(separator + head)
        separator = ","
        if isinstance(item, str):
            append(_json_str(item))
        elif item is None:
            append("null")
        elif item is True:
            append("true")
        elif item is False:
            append("false")
        elif isinstance(item, int):
            append(int.__repr__(item))
        else:
            _write_json(item, append, inner)
    append(closer)


def _emit_json(payload: dict, out: Optional[str]) -> None:
    """Write payload as json.dumps(payload, sort_keys=True, indent=2)
    writes it, and a newline, without calling json.dumps.

    With indent set, json leaves its C encoder for a chain of Python
    generators, one per container, on every CPython from 3.10 to 3.13.
    On CPython 3.11.7 (x86-64) json.dumps took 157 microseconds per
    analyze report of the report-deep benchmark against 87 for
    _write_json (medians of 5 alternating rounds, each the best of 25
    passes), and 0.50 s against 0.39 s on enumerate's 17 MB at
    --a-max 300 (best of 7 interleaved passes).
    """
    chunks: list[str] = []
    _write_json(payload, chunks.append, "\n")
    chunks.append("\n")
    text = "".join(chunks)
    del chunks  # as large as text; freed before writing doubles it again
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
    # checked before rasterizing, so a wrong suffix costs no raster work
    if path.endswith(".pgm"):
        write = write_pgm
    elif path.endswith(".csv"):
        write = write_csv
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
    pairs = boundary_characterization()
    _emit_json(
        {
            "schema": 1,
            "scan_bound": args.scan_bound,
            "pairs": [[p.a, p.b] for p in pairs],
        },
        None,
    )
    return 0


# each command's help line in `recmono -h`, its options and its handler;
# `recmono -h` lists the commands in this order
_COMMANDS = {
    "analyze": ("full decision + oracle report for one recurrence", (
        *_SPEC_OPTIONS,
        _Option("--window", _bounded_int(1, MAX_WINDOW), default=300, metavar="N"),
        _Option("--from-k", _bounded_int(0, MAX_FROM_K), default=0, metavar="K"),
        _Option("--out", metavar="PATH", help="write the JSON report here instead of stdout"),
    ), _cmd_analyze),
    "sequence": ("print exact terms a[0..n]", (
        *_SPEC_OPTIONS,
        _Option("--n", _bounded_int(0, MAX_N), required=True, metavar="N"),
        _FORMAT,
    ), _cmd_sequence),
    "enumerate": ("irreducible integer pairs in DP (a >= 1, |b + 1| <= a)", (
        _Option("--a-max", _bounded_int(1, MAX_A_MAX), required=True, metavar="N"),
        _FORMAT,
    ), _cmd_enumerate),
    "regions": ("rasterize a membership region to PGM or CSV", (
        _Option("--region", choices=tuple(r.value for r in RegionId), required=True),
        _Option("--bbox", _bbox, required=True, metavar="x0,x1,y0,y1",
                help="rational corners; write --bbox=-3,3,-3,3 when x0 is negative"),
        _Option("--res", _bounded_int(2, MAX_RES), required=True, metavar="N"),
        _Option("--out", required=True, metavar="PATH"),
    ), _cmd_regions),
    "riccati": ("orbit of the ratio map s -> (a*s - b)/s", (
        *_SPEC_OPTIONS[:2],
        _Option("--b0", parse_rational, required=True, metavar="R"),
        _Option("--n", _bounded_int(1, MAX_N), required=True, metavar="N"),
    ), _cmd_riccati),
    "characterize": ("integer boundary pairs whose polynomial is irreducible", (
        _Option("--scan-bound", _bounded_int(1), default=1000, metavar="N"),
    ), _cmd_characterize),
}


def _read(command: str, argv: Sequence[str]) -> Optional[argparse.Namespace]:
    """The namespace _parser(command).parse_args(argv) returns, read
    straight from the command's options, or None where argv is not a line
    this reads.

    It reads a line whose every token is --flag=value, or --flag followed
    by a value that does not start with '-', where each flag is one of
    the command's own spelled in full, each value passes its flag's type
    and choices, and every required flag is given; a flag given twice
    keeps its last value, as in argparse.  It returns None on anything
    else: -h, an abbreviation, --, an unknown flag, a '-'-led value after
    a space, a missing required flag or a value that its type or choices
    reject.  argparse then reads the line, so help, every error message
    and every exit code are argparse's own.
    """
    options = {option.flag: option for option in _COMMANDS[command][1]}
    values = {}
    tokens = iter(argv)
    for token in tokens:
        flag, eq, value = token.partition("=")
        option = options.get(flag)
        if option is None:
            return None
        if not eq:
            # a flag that ends the line has no value, like one before a '-'
            value = next(tokens, "-")
            if value.startswith("-"):
                return None
        if option.type is not None:
            try:
                value = option.type(value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if option.choices is not None and value not in option.choices:
            return None
        values[flag] = value
    if any(option.required and flag not in values for flag, option in options.items()):
        return None
    return argparse.Namespace(**{flag[2:].replace("-", "_"): values.get(flag, option.default)
                                 for flag, option in options.items()})


@functools.cache
def _parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The argparse parser of one command, or with no command the
    top-level one, built on first use and reused.

    main reads a command's line with _read first, straight from the
    command's options in _COMMANDS, and builds and runs this parser only
    where _read declines the line: on -h, an abbreviation, --, an unknown
    flag, a '-'-led value after a space, a missing required flag or a
    value that its type or choices reject.  So a well-formed line builds
    no parser, and every help text, error message and exit code is
    argparse's own.  On CPython 3.11.7 (x86-64, best of 5 runs of 500)
    building the regions parser took 140-150 microseconds and analyze's
    180-220; parse_args took 31-44 on a regions line and 47-59 on an
    analyze line, where _read took 12-21 and 15-24.  With every cache
    cleared first, as in a fresh process, the eight regions lines of one
    regions-raster benchmark operation took 90-180 microseconds to read
    against 420-630 to build the parser and parse them (best of 7 passes
    over the first 75 operations of seed 1).

    A command's parser holds that command's arguments alone: one parser
    for all six commands, a subparser each, took 845 microseconds to
    build.  The top-level parser's commands carry their names and help
    lines only: it prints `recmono -h` and reports a missing or unknown
    command.
    """
    if command is not None:
        parser = argparse.ArgumentParser(prog=f"recmono {command}")
        for option in _COMMANDS[command][1]:
            parser.add_argument(option.flag, type=option.type, choices=option.choices,
                                default=option.default, required=option.required,
                                metavar=option.metavar, help=option.help)
        return parser
    parser = argparse.ArgumentParser(
        prog="recmono",
        description=(
            "Exact monotonicity analysis of second-order linear recurrences "
            "a[n+2] - a*a[n+1] + b*a[n] = 0 with rational coefficients."
        ),
    )
    # not required: a missing command is reported by main, after argparse
    # has named any option the top-level parser does not know
    subs = parser.add_subparsers(dest="command")
    for name, (help_line, _, _) in _COMMANDS.items():
        subs.add_parser(name, help=help_line)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _COMMANDS:
        command, command_argv = argv[0], argv[1:]
    else:
        # exits on help or on an unknown command or option; a parse that
        # returns has named a command and passed it no arguments, or named none
        command, command_argv = _parser().parse_args(argv).command, []
        if command is None:
            _parser().error("the following arguments are required: command")
    # inputs are parsed under the interpreter's limit on int-to-str digits;
    # terms and orbit states grow past it and are rendered without one
    args = _read(command, command_argv)
    if args is None:
        args = _parser(command).parse_args(command_argv)
    _, _, run = _COMMANDS[command]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return run(args)
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        print(_analyze_reproducer(args), file=sys.stderr)
        return 1
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    raise SystemExit(main())
