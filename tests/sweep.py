"""A fixed-seed sweep of analyze reports on small specs.

Each line draws a and b as nonzero fractions with numerators within +-9
and denominators 1-9, and a start the same way: an h-type start one time
in five, else v0 and v1, where a (0, 0) start is skipped rather than
redrawn.  The window is 1-100 and the start index 0-500.  20,000 draws
give 19,964 lines.  Every line is valid input, so every report exits 0;
before the report certified an n0 past its window, 38 of them exited 1.

Run as a script, it runs every line through recmono's main and exits 1
if any line did not exit 0; main prints the reproducer of each exit 1:

    PYTHONPATH=src python tests/sweep.py
"""

from __future__ import annotations

import contextlib
import os
import random
import sys
from fractions import Fraction

from recmono.cli import main as recmono

DRAWS = 20000


def _fraction(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        f = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if f or not nonzero:
            return f


def sweep_argvs():
    """The analyze command lines of the sweep, in order."""
    rng = random.Random(1)
    for _ in range(DRAWS):
        a, b = _fraction(rng, nonzero=True), _fraction(rng, nonzero=True)
        if rng.random() < 0.2:
            start = [f"--h-init={_fraction(rng, nonzero=True)}"]
        else:
            v0, v1 = _fraction(rng), _fraction(rng)
            if (v0, v1) == (0, 0):
                continue
            start = [f"--v0={v0}", f"--v1={v1}"]
        window, from_k = rng.randint(1, 100), rng.randint(0, 500)
        yield ["analyze", f"--a={a}", f"--b={b}", *start, f"--window={window}",
               f"--from-k={from_k}"]


def main() -> int:
    lines = failed = 0
    with open(os.devnull, "w", encoding="utf-8") as sink:
        for argv in sweep_argvs():
            lines += 1
            with contextlib.redirect_stdout(sink):
                code = recmono(argv)
            if code != 0:
                failed += 1
                if code != 1:
                    print(f"exit {code}: recmono {' '.join(argv)}", file=sys.stderr)
    print(f"{failed} of {lines} lines did not exit 0")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
