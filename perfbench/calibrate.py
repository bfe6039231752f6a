"""Host-speed calibration for the end-to-end times.

The shared VMs this benchmark runs on change speed by a sixth from second
to second and by up to a third for minutes at a time, and CPU time drifts
with wall time, so the program is not waiting but running slower.  Left
in, that drift would swamp any change a later commit makes.

So the run interleaves three fixed calibration units with its
operations, spending SHARE of the operation time on them, and scales each
reported time by the host-speed factor

    (REFERENCE_S / geometric mean over the units of (median unit time)) ** EXPONENT.

The units mirror the program's mix of work (rational recurrence terms,
an integer carrier recurrence, sorted JSON and argument parsing) using
only the standard library, so no change to recmono can move them.  They
feel the host's slow spells more than the program does: over ten-seed
trials the log of the program's throughput moved with about half the log
of the units' speed (fitted slopes 0.50 on report-deep, 0.58 on
report-corpus), and full correction over-corrected the slowest runs;
hence EXPONENT = 1/2.  The run's record keeps the raw figures and the
factor.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import time
from fractions import Fraction

# geometric mean of the three median unit times on a quiet 2-vCPU Xeon VM
# with CPython 3.11
REFERENCE_S = 4.0e-4
# calibration time spent after each operation, as a share of its time
SHARE = 0.1
EXPONENT = 0.5

_PARSER = argparse.ArgumentParser()
_PARSER.add_argument("--a")
_PARSER.add_argument("--b")
_PARSER.add_argument("--n", type=int)


def _rational_terms() -> None:
    a, b = Fraction(7, 3), Fraction(-5, 7)
    x, y = Fraction(3, 4), Fraction(-2, 5)
    for _ in range(120):
        x, y = y, a * y - b * x


def _integer_carrier() -> None:
    m0, m1 = 3, 7
    for _ in range(700):
        m0, m1 = m1, 28 * m1 - 169 * m0
    for _ in range(3):
        (m1 * m1 - m0 * m1) > 0


def _json_and_argv() -> None:
    json.dumps({f"k{i}": {"x": str(i), "y": [i, i + 1]} for i in range(40)},
               sort_keys=True, indent=2)
    for _ in range(10):
        _PARSER.parse_args(["--a=1/2", "--b=-3", "--n=5"])


UNITS = (_rational_terms, _integer_carrier, _json_and_argv)


class Calibration:
    def __init__(self):
        self.unit_s = [[] for _ in UNITS]

    def follow(self, seconds: float) -> None:
        """Run rounds of the units for about SHARE * seconds, at least one."""
        perf = time.perf_counter
        stop = perf() + SHARE * seconds
        while True:
            for unit, times in zip(UNITS, self.unit_s):
                start = perf()
                unit()
                times.append(perf() - start)
            if perf() >= stop:
                return

    def factor(self) -> float:
        """Multiply a time measured alongside this calibration by this."""
        mean = math.exp(statistics.fmean(math.log(statistics.median(t)) for t in self.unit_s))
        return (REFERENCE_S / mean) ** EXPONENT
