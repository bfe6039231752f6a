"""recmono benchmark: one closed-loop caller driving the CLI in-process.

    python3 perfbench/run.py --workload report-corpus --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; the package is imported from
`src/`.  One caller on one thread calls `recmono.cli.main(argv)` with
stdout and stderr captured, and the next operation starts only when the
previous one returns.  Inputs come from `--seed` alone (workloads.py).
A run does a fixed number of operations, the first ones of the seed's
stream: as many as a reference host completes in `--seconds` of
operation time (OPS_PER_SECOND).  So the same seed always gives the same
operations, and the same attempted and failed counts, however fast the
host is.  Making inputs and checking outputs happen outside the timed
region.

`--trace 0` reports the end-to-end metrics, with times scaled by the
host-speed factor of calibrate.py.  `--trace 1` reports the
per-layer metrics of a traced pass (spans.py), followed by an untraced
replay of the same operations whose time is subtracted to give the
tracing overhead.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  The full record of a run, with
every failed argv as a ready-to-run `recmono ...` line and a sha256 of
each operation's output, is written to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import random
import resource
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads as wl
from calibrate import Calibration
from spans import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Operations per second of operation time on the reference host of
# calibrate.py, rounded down from the parent commit's throughput; a run
# does round(OPS_PER_SECOND * --seconds) operations.
OPS_PER_SECOND = {"report-corpus": 40, "report-deep": 7 / 3, "regions-raster": 3}

# set-up: a fresh interpreter imports recmono.cli, builds its parser and
# runs the cheapest command, as every CLI invocation does.  The launches
# are spread over the run, between operations, so that the median sees
# the same drift of the host's speed as the operations do.
SETUP_RUNS = 15
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import recmono.cli; "
              "sys.exit(recmono.cli.main(['characterize', '--scan-bound=1']))")

# Percentile reported as latency_tail_ms, fixed per workload so that all
# runs, and later changes, compare the same percentile.  Each leaves at
# least ten samples beyond it at the operation counts of a 25-second run
# (1000, 58 and 75).
TAIL_PERCENTILE = {"report-corpus": 98, "report-deep": 75, "regions-raster": 80}
# Share of report-corpus reports whose windows are also rescanned naively;
# the rescan costs about five times the report it checks.
CORPUS_REFERENCE_SHARE = 1 / 24


def call(main, argv):
    """(seconds, exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects an argv this way
            code = exc.code if isinstance(exc.code, int) else 2
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue()


class Op:
    """One attempted operation: its argv list and what came of it."""

    def __init__(self, index, argvs, spec=None):
        self.index, self.argvs, self.spec = index, argvs, spec
        self.seconds = 0.0
        self.code = 0
        self.failed_argv = None
        self.stderr = ""
        self.outputs = []  # bytes per CLI call: stdout, or the PGM written
        self.digests = []  # sha256 per output
        self.keep = False  # outputs still needed after the loop
        self.wrong = None  # why the output is wrong, if it is

    def run_call(self, main, argv) -> str:
        seconds, code, out, err = call(main, argv)
        self.seconds += seconds
        if code != 0 and self.failed_argv is None:
            self.failed_argv, self.code, self.stderr = argv, code, err.strip()
        return out

    @property
    def failed(self) -> bool:
        return self.failed_argv is not None or self.wrong is not None

    def seal(self) -> None:
        self.digests = [hashlib.sha256(data).hexdigest() for data in self.outputs]

    def digest(self) -> str:
        return hashlib.sha256("".join(self.digests).encode("ascii")).hexdigest()


class AnalyzeWorkload:
    """`recmono analyze`; one operation is one report."""

    def __init__(self, seed, spec_fn, window, from_k, reference):
        self.seed, self.spec_fn = seed, spec_fn
        self.window, self.from_k = window, from_k
        self.reference = reference  # op index -> rescan this report?
        self.first_digest = {}  # argv -> digest of its first output
        self.deferred = []  # ops awaiting the naive rescan

    def make(self, index):
        spec = self.spec_fn(self.seed, index)
        return Op(index, [wl.analyze_argv(spec, self.window, self.from_k)], spec)

    def execute(self, op, main):
        op.outputs = [op.run_call(main, op.argvs[0]).encode("utf-8")]

    def check(self, op):
        if op.failed_argv is not None:
            return
        op.wrong = checks.check_report(op.spec, op.outputs[0].decode("utf-8"),
                                       self.window, self.from_k, reference=False)
        first = self.first_digest.setdefault(tuple(op.argvs[0]), op.digest())
        if op.wrong is None and first != op.digest():
            op.wrong = "output differs from an earlier run of the same argv"
        if op.wrong is None and self.reference(op.index):
            op.keep = True
            self.deferred.append(op)

    def finish(self):
        """Rescan the deferred reports; marks the ones that disagree."""
        for op in self.deferred:
            op.wrong = checks.check_report(op.spec, op.outputs[0].decode("utf-8"),
                                           self.window, self.from_k, reference=True)
            op.outputs = []
        self.deferred.clear()

    def carrier_bits(self, op) -> int:
        a, b, v0, v1, _ = checks.spec_of(op.spec)
        return checks.carrier_bits_max(a, b, v0, v1,
                                       max(self.window, self.from_k + self.window) + 2)


class RasterWorkload:
    """`recmono regions`; one operation rasterizes all eight CLI regions
    to PGM, the coefficient-plane four on one fresh bbox and the
    root-plane four on another."""

    def __init__(self, seed, res, scratch: Path, package):
        self.seed, self.res, self.scratch = seed, res, scratch
        self.package = package
        scratch.mkdir(parents=True, exist_ok=True)

    def make(self, index):
        coeff, root = wl.raster_bboxes(self.seed, index)
        argvs = [wl.regions_argv(r, coeff, self.res, str(self.scratch / f"{r}.pgm"))
                 for r in wl.COEFF_REGIONS]
        argvs += [wl.regions_argv(r, root, self.res, str(self.scratch / f"{r}.pgm"))
                  for r in wl.ROOT_REGIONS]
        return Op(index, argvs)

    def execute(self, op, main):
        # each group starts from empty caches, as a fresh CLI process does;
        # within the group, D2P and D3P reuse the roots D1P cached
        clear_caches(self.package)
        op.outputs = []
        for argv in op.argvs:
            op.run_call(main, argv)
            path = Path(argv[-1].split("=", 1)[1])
            op.outputs.append(path.read_bytes() if path.exists() else b"")
            path.unlink(missing_ok=True)

    def check(self, op):
        if op.failed_argv is not None:
            return
        images = dict(zip(wl.COEFF_REGIONS + wl.ROOT_REGIONS, op.outputs))
        op.wrong = (checks.check_pgm_group(images, self.res, wl.COEFF_REGIONS[:3], "DP")
                    or checks.check_pgm_group(images, self.res, wl.ROOT_REGIONS[:3], "D"))

    def finish(self):
        pass

    def carrier_bits(self, op) -> int:
        return 0


def make_workload(name: str, seed: int, package):
    if name == "report-corpus":
        def sampled(index):
            return random.Random(f"check:{seed}:{index}").random() < CORPUS_REFERENCE_SHARE
        return AnalyzeWorkload(seed, wl.corpus_spec, wl.ANALYZE_WINDOW, 0, sampled)
    if name == "report-deep":
        # one pooled spec, chosen by the seed, is rescanned (a few seconds);
        # every repeat of a pooled spec must match its first output byte for byte
        return AnalyzeWorkload(seed, wl.deep_spec, wl.DEEP_WINDOW, wl.DEEP_FROM_K,
                               lambda index: index == seed % wl.DEEP_POOL)
    if name == "regions-raster":
        return RasterWorkload(seed, wl.RASTER_RES, OUT / f"pgm-{seed}", package)
    raise ValueError(f"unknown workload {name!r}")


def clear_caches(package) -> None:
    """Empty every functools cache in the package, as in a fresh process."""
    for layer in LAYERS:
        for obj in vars(getattr(package, layer)).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def measure_setup(runs: int) -> list[float]:
    """Wall times of `runs` fresh interpreters doing the set-up."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=120, check=False)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed: {proc.stderr.decode(errors='replace')}")
        times.append(elapsed)
    return times


class SetupSampler:
    """`on_op` hook that times one set-up per `every` operations."""

    def __init__(self, every: int):
        self.every, self.seen = every, 0
        self.times = []

    def __call__(self, op) -> None:
        if self.seen % self.every == 0:
            self.times += measure_setup(1)
        self.seen += 1


def op_count(name: str, seconds: float) -> int:
    return max(1, round(OPS_PER_SECOND[name] * seconds))


def run_ops(workload, main, n_ops, on_op=None):
    """Closed loop over the first `n_ops` operations of the seed's stream."""
    ops, busy = [], 0.0
    for index in range(n_ops):
        op = workload.make(index)
        workload.execute(op, main)
        busy += op.seconds
        op.seal()
        workload.check(op)
        if on_op is not None:
            on_op(op)
        if not op.keep:
            op.outputs = []
        ops.append(op)
    return ops, busy


def replay(workload, ops, main) -> list[float]:
    """Run `ops` again; returns each one's time.

    An operation whose exit code or output bytes differ from its first
    run is marked wrong: the program must be deterministic.
    """
    seconds = []
    for op in ops:
        again = workload.make(op.index)
        workload.execute(again, main)
        again.seal()
        if (again.code, again.digests) != (op.code, op.digests):
            op.wrong = op.wrong or "a repeated run gave another exit code or output"
        seconds.append(again.seconds)
    return seconds


def percentile(sorted_values, p) -> tuple[float, int]:
    """Nearest-rank p-th percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def end_to_end(name, ops, setup_s, peak_rss_mb, record):
    """Raw figures; the caller scales the times by the host-speed factor."""
    completed = sum(not op.failed for op in ops)
    latencies = sorted(op.seconds for op in ops)
    p = TAIL_PERCENTILE[name]
    tail, beyond = percentile(latencies, p)
    record["latency_tail"] = {"percentile": p, "samples": len(latencies),
                              "samples_beyond": beyond}
    if beyond < 10:
        print(f"warning: only {beyond} samples beyond p{p}", file=sys.stderr)
    return {
        "ops_per_s": completed / sum(latencies),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_tail_ms": 1000 * tail,
        "success_frac": completed / len(ops),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }


def per_layer(tracer, n_ops, positions, overhead_s, carrier_bits):
    """Per-operation means of the traced pass, except carrier_bits_max."""
    s = tracer.self_s
    layer = tracer.layer_self_s()
    out = {f"{name}.busy_s": s[name] for name in (
        "oracle.check_p1_window", "oracle.check_p2_window", "oracle.check_p3_window",
        "oracle.find_n0", "decisions.nondecreasing_from", "recurrence.iterate",
        "recurrence.ratio_limit", "riccati.riccati_orbit", "qfield.characteristic_roots",
        "qfield.order_by_modulus", "qfield.cmp_abs", "qfield.decimal_str",
        "regions.rasterize", "regions.contains_coeff_plane",
        "regions.contains_root_plane", "regions.write_pgm")}
    out.update({
        "oracle.positions_compared": positions["compared"],
        "oracle.skipped_indices": positions["skipped"],
        "decisions.nondecreasing_from.total_s": tracer.total_s["decisions.nondecreasing_from"],
        "decisions.busy_s": layer["decisions"] - s["decisions.nondecreasing_from"],
        "recurrence.iterate.terms": positions["terms"],
        "qfield.cmp_abs.calls": tracer.calls["qfield.cmp_abs"],
        "qfield.decimal_str.calls": tracer.calls["qfield.decimal_str"],
        "regions.cells": positions["cells"],
        "report.build_report.self_s": s["report.build_report"],
        "report.inconsistencies": tracer.raised[("report.build_report", "InternalInconsistency")],
        "cli.main.self_s": s["cli.main"],
        "trace.overhead_s": overhead_s,
    })
    out.update({f"{name}.self_s": value for name, value in layer.items()})
    out = {name: value / n_ops for name, value in out.items()}
    out["oracle.carrier_bits_max"] = carrier_bits
    return out


def traced_run(name, workload, package, main, n_ops, record):
    tracer = Tracer()
    counts = {"compared": 0, "skipped": 0, "terms": 0, "cells": 0}

    def count_window(report):
        lo, hi = report.checked_range
        last = hi if report.first_violation is None else report.first_violation
        counts["compared"] += last - lo + 1 - len(report.skipped_indices)
        counts["skipped"] += len(report.skipped_indices)

    def count_terms(window):
        counts["terms"] += len(window.terms)

    def count_cells(grid):
        counts["cells"] += grid.resolution ** 2

    for fn in ("check_p1_window", "check_p2_window", "check_p3_window"):
        tracer.observers[f"oracle.{fn}"] = count_window
    tracer.observers["recurrence.iterate"] = count_terms
    tracer.observers["regions.rasterize"] = count_cells
    tracer.install(package)
    root = tracer.wrap(main, "cli.main")
    carrier = [0]

    def on_op(op):
        summed, root_s = tracer.end_op()
        if abs(summed - root_s) > 1e-6:
            raise RuntimeError(f"op {op.index}: self times sum to {summed}, root spans {root_s}")
        carrier[0] = max(carrier[0], workload.carrier_bits(op))
        tracer.begin_op(op.index + 1)

    tracer.begin_op(0)
    try:  # half the operations traced, then the same ones replayed untraced
        ops, traced_busy = run_ops(workload, root, max(1, n_ops // 2), on_op)
    finally:
        tracer.uninstall()
    spans_path = OUT / f"{name}-seed{record['seed']}.spans.jsonl"
    tracer.write_spans(str(spans_path))
    record["spans"] = str(spans_path.relative_to(ROOT))
    untraced_busy = sum(replay(workload, ops, main))
    record["traced_busy_s"], record["untraced_busy_s"] = traced_busy, untraced_busy
    return ops, per_layer(tracer, len(ops), counts, traced_busy - untraced_busy, carrier[0])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("report-corpus", "report-deep", "regions-raster"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "recmono" / "cli.py").is_file():
        print(f"error: no recmono sources under {SRC}; run from a recmono checkout",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import recmono
    import recmono.cli
    if Path(recmono.__file__).resolve().parent != (SRC / "recmono").resolve():
        print(f"error: imported recmono from {recmono.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    workload = make_workload(args.workload, args.seed, recmono)
    n_ops = op_count(args.workload, args.seconds)
    if args.trace == 0:
        measure_setup(1)  # warms the file cache and writes bytecode
    warm = workload.make(-1)  # lazy imports and first-call costs, not counted
    workload.execute(warm, recmono.cli.main)

    if args.trace:
        ops, metrics = traced_run(args.workload, workload, recmono, recmono.cli.main,
                                  n_ops, record)
        workload.finish()
        wanted = bench["per_layer"]
    else:
        sampler = SetupSampler(max(1, math.ceil(n_ops / SETUP_RUNS)))
        calibration = Calibration()

        def between(op):
            calibration.follow(op.seconds)
            sampler(op)

        ops, _ = run_ops(workload, recmono.cli.main, n_ops, between)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        workload.finish()
        raw = end_to_end(args.workload, ops, statistics.median(sampler.times),
                         peak_rss_mb, record)
        factor = calibration.factor()
        record["raw_metrics"], record["host_speed_factor"] = raw, factor
        metrics = dict(raw, ops_per_s=raw["ops_per_s"] / factor,
                       latency_p50_ms=raw["latency_p50_ms"] * factor,
                       latency_tail_ms=raw["latency_tail_ms"] * factor,
                       setup_s=raw["setup_s"] * factor)
        wanted = bench["end_to_end"]

    failed = [op for op in ops if op.failed]
    digest = hashlib.sha256()
    for op in ops:
        digest.update(op.digest().encode("ascii"))
    record.update({
        "attempted": len(ops),
        "failed": len(failed),
        "failures": [{"op": op.index,
                      "exit": op.code if op.failed_argv else 0,
                      "reproducer": "recmono " + " ".join(
                          shlex.quote(a) for a in (op.failed_argv or op.argvs[0])),
                      "reason": op.stderr if op.failed_argv else op.wrong}
                     for op in failed],
        "output_sha256": digest.hexdigest(),
        "op_sha256": [op.digest() for op in ops],
        "op_seconds": [op.seconds for op in ops],
        "metrics": metrics,
    })
    correct = not any(op.wrong for op in ops)
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(ops)} attempted, {len(failed)} failed, outputs correct: {correct}")
    for f in record["failures"]:
        print(f"  failed op {f['op']} (exit {f['exit']}): {f['reproducer']}")
        print(f"    {f['reason']}")
    result = {}
    for metric in wanted:
        value = metrics[metric["name"]]
        result[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']:<42} {value:>14.6g} {metric['unit']}")
    print(f"  output sha256 {record['output_sha256']}")
    print(f"  record {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failed),
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
