"""Output checks, run outside the timed region.

The reference scans here use only `fractions.Fraction` and a few lines of
quadratic-surd sign arithmetic; they share no code with the program, so
a wrong oracle or a wrong renderer cannot vouch for itself.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Optional


def spec_of(spec: dict) -> tuple[Fraction, Fraction, Fraction, Fraction, bool]:
    """(a, b, v0, v1, h_type) of a generated spec."""
    if spec["h"] is not None:
        return spec["a"], spec["b"], spec["h"], spec["a"] * spec["h"], True
    return spec["a"], spec["b"], spec["v0"], spec["v1"], False


def terms(a, b, v0, v1, n_max: int) -> list[Fraction]:
    out = [v0, v1]
    for _ in range(n_max - 1):
        out.append(a * out[-1] - b * out[-2])
    return out


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _surd_sign(x: Fraction, y: Fraction, d: Fraction) -> int:
    """Sign of x + y*sqrt(d), d >= 0."""
    sx, sy = _sign(x), _sign(y)
    if sy == 0 or d == 0:
        return sx
    if sx == 0 or sx == sy:
        return sy
    return sx * _sign(x * x - y * y * d)


def _abs_ge(u: tuple, v: tuple, d: Fraction) -> bool:
    """|u| >= |v| for surds u = (x, y) meaning x + y*sqrt(d)."""
    ux, uy = u
    vx, vy = v
    return _surd_sign(ux * ux + uy * uy * d - vx * vx - vy * vy * d,
                      2 * (ux * uy - vx * vy), d) >= 0


def reference_windows(spec: dict, window: int, from_k: int) -> dict:
    """Naive rational rescan of the report's window fields."""
    a, b, v0, v1, _ = spec_of(spec)
    n_top = max(window, from_k + window) + 2
    t = terms(a, b, v0, v1, n_top)
    minus_one = (a * v0 - v1) / b

    def p1(k: int, n_max: int) -> Optional[int]:
        if k == 0 and minus_one > v0:
            return -1
        for n in range(0 if k == 0 else k - 1, n_max + 1):
            if t[n] > t[n + 1]:
                return n
        return None

    disc = a * a - 4 * b
    p2 = None
    skipped: list[int] = []
    if disc >= 0:
        # dominant root (a + s*sqrt(disc))/2: s = +1 iff a > 0
        s = 1 if a > 0 else -1
        half = Fraction(1, 2)
        alpha = (a * half, s * half)
        for n in range(window + 1):
            if t[n] == 0 or t[n + 1] == 0:
                skipped.append(n)
                continue
            r0, r1 = t[n + 1] / t[n], t[n + 2] / t[n + 1]
            if not _abs_ge((alpha[0] - r0, alpha[1]), (alpha[0] - r1, alpha[1]), disc):
                p2 = n
                break
    p3 = None
    for n in range(window + 1):
        if disc >= 0:
            # residual a[n]*alpha - a[n+1] as a surd
            u = (t[n] * alpha[0] - t[n + 1], t[n] * alpha[1])
            v = (t[n + 1] * alpha[0] - t[n + 2], t[n + 1] * alpha[1])
            ok = _abs_ge(u, v, disc)
        else:
            # squared modulus of the complex residual is a norm form
            def norm(x, y):
                return y * y - a * x * y + b * x * x
            ok = norm(t[n], t[n + 1]) >= norm(t[n + 1], t[n + 2])
        if not ok:
            p3 = n
            break
    last_bad = None
    for n in range(window + 1):
        if t[n] > t[n + 1]:
            last_bad = n
    n0 = 0 if last_bad is None else last_bad + 1
    return {
        "p1_immediate": p1(0, window),
        "p1_from_k": p1(from_k, from_k + window),
        "p2": (p2, skipped) if disc >= 0 else None,
        "p3": p3,
        "n0_witness": n0 if n0 <= window else None,
    }


def check_report(spec: dict, stdout: str, window: int, from_k: int,
                 reference: bool) -> Optional[str]:
    """None if the report is right, else a one-line reason."""
    try:
        report = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    a, b, v0, v1, h = spec_of(spec)
    echo = {"a": str(a), "b": str(b), "v0": str(v0), "v1": str(v1), "h_type": h}
    if report.get("spec") != echo:
        return f"spec echo {report.get('spec')} != {echo}"
    if report.get("window") != window or report.get("from_k") != from_k:
        return "window/from_k echo mismatch"
    if not reference:
        return None
    ref = reference_windows(spec, window, from_k)
    ow = report["oracle_windows"]
    got = {
        "p1_immediate": ow["p1_immediate"]["first_violation"],
        "p1_from_k": ow["p1_from_k"]["first_violation"],
        "p2": None if ow["p2"] is None else (ow["p2"]["first_violation"],
                                            ow["p2"]["skipped_indices"]),
        "p3": ow["p3"]["first_violation"],
        "n0_witness": ow["n0_witness"],
    }
    for key, want in ref.items():
        if got[key] != want:
            return f"{key}: report {got[key]} != rescan {want}"
    return None


def check_pgm_group(images: dict[str, bytes], res: int,
                    parts: tuple[str, str, str], whole: str) -> Optional[str]:
    """`whole` must equal the cellwise AND of `parts`; None if it does."""
    header = f"P5\n{res} {res}\n255\n".encode("ascii")
    cells = {}
    for name, data in images.items():
        if not data.startswith(header) or len(data) != len(header) + res * res:
            return f"{name}: malformed PGM"
        cells[name] = data[len(header):]
    p, q, r = (cells[n] for n in parts)
    for i, w in enumerate(cells[whole]):
        want = 255 if p[i] and q[i] and r[i] else 0
        if w != want:
            return f"{whole} cell {divmod(i, res)} is {w}, the AND of {'/'.join(parts)} is {want}"
    return None


def carrier_bits_max(a: Fraction, b: Fraction, v0: Fraction, v1: Fraction, n_max: int) -> int:
    """Largest bit length of the oracle's integer carrier M[n] = a[n]*q**n*D
    for n <= n_max (q clears a and b, D clears v0 and v1), computed here
    from the spec rather than read from the program."""
    q = math.lcm(a.denominator, b.denominator)
    A, Bq = int(a * q), int(b * q) * q
    D = math.lcm(v0.denominator, v1.denominator)
    m0, m1 = int(v0 * D), int(v1 * q * D)
    best = max(m0.bit_length(), m1.bit_length())
    for _ in range(n_max - 1):
        m0, m1 = m1, A * m1 - Bq * m0
        best = max(best, m1.bit_length())
    return best
