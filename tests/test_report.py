"""Assembled JSON report: shape, pinned decimals, degeneracy flag,
cross-check behavior, and determinism.
"""

from __future__ import annotations

import importlib
import json
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from recmono import (
    InternalInconsistency,
    QuadElem,
    RecurrenceSpec,
    build_report,
    decimal_str,
    decisions,
    hartman_aurel_sufficient,
    make_h_spec,
    oracle,
    ratio_limit,
    riccati_orbit,
    term_minus_one,
    terms_between,
)
from recmono.decisions import Branch, Verdict
from recmono.qfield import quadratic_roots
from recmono import report as report_module
from recmono.report import RICCATI_PREFIX_LEN, TERMS_PREVIEW_LEN

import reference
from conftest import build_corpus
from test_decisions import FAR_N0
from reference import Surd, ref_str


class TestShape:
    def test_top_level_keys(self):
        report = build_report(make_h_spec(1, -1, 1))
        assert report["schema"] == 1
        assert set(report) == {
            "schema",
            "spec",
            "window",
            "from_k",
            "discriminant",
            "roots",
            "degenerate_geometric",
            "verdicts",
            "oracle_windows",
            "ratio_limit",
            "riccati_prefix",
            "terms_preview",
            "term_minus_one",
        }

    def test_report_is_json_serializable_and_deterministic(self):
        spec = RecurrenceSpec(1, -1, 2, 1)
        one = json.dumps(build_report(spec), sort_keys=True)
        two = json.dumps(build_report(spec), sort_keys=True)
        assert one == two

    def test_window_and_from_k_echoed(self):
        report = build_report(make_h_spec(1, -1, 1), window=40, from_k=2)
        assert report["window"] == 40
        assert report["from_k"] == 2
        assert report["verdicts"]["p1_from_k"]["k"] == 2


class TestPinnedContent:
    def test_ratio_distance_violation_decimals(self):
        # the first ratio sits closer to the dominant root than the second
        report = build_report(RecurrenceSpec(1, -1, 2, 1))
        detail = report["oracle_windows"]["p2"]["violation_detail"]
        assert detail["index"] == 0
        assert detail["lhs_decimal"].startswith("1.11803398")
        assert detail["rhs_decimal"].startswith("1.38196601")

    def test_golden_ratio_limit(self):
        report = build_report(make_h_spec(1, -1, 1))
        limit = report["ratio_limit"]
        assert limit["kind"] == "converges"
        assert limit["limit"]["decimal"].startswith("1.6180339887")

    def test_complex_roots_block(self):
        report = build_report(RecurrenceSpec(1, 1, 1, 1))
        roots = report["roots"]
        assert roots["kind"] == "complex"
        assert roots["alpha"] is None
        assert roots["modulus_squared"] == "1"
        assert report["oracle_windows"]["p2"] is None
        assert report["verdicts"]["p2_eventual_ratio_monotone"]["holds"] is False

    def test_zero_start_product_disables_ratio_blocks(self):
        report = build_report(RecurrenceSpec(Fraction(5, 2), 1, 1, 0), window=40)
        assert report["verdicts"]["p2_eventual_ratio_monotone"] is None
        assert report["riccati_prefix"] is None
        assert report["ratio_limit"] is None

    def test_riccati_prefix_is_the_orbit(self):
        # the report's integer states print as riccati_orbit's Fractions, a
        # zero-term spec and negative starts among them
        specs = [RecurrenceSpec(3, 2, -31, -30), *build_corpus(31, 60)]
        for spec in specs:
            if not (spec.v0 and spec.v1):
                continue
            b0 = spec.v1 / spec.v0
            orbit = riccati_orbit(spec.a, spec.b, b0, RICCATI_PREFIX_LEN)
            assert build_report(spec, 10)["riccati_prefix"] == {
                "b0": str(b0), "states": [str(s) for s in orbit.states],
                "terminated_early": orbit.terminated_early}, spec

    def test_degenerate_geometric_flag(self):
        # start lying on the repeated eigen-solution 2^n
        report = build_report(RecurrenceSpec(4, 4, 1, 2))
        assert report["degenerate_geometric"] is True
        assert report["verdicts"]["p3_weighted"]["holds"] is True
        clean = build_report(RecurrenceSpec(4, 4, 1, 3))
        assert clean["degenerate_geometric"] is False

    def test_h_verdicts_none_for_general_start(self):
        report = build_report(RecurrenceSpec(1, -1, 2, 1))
        assert report["verdicts"]["p1_h_monotone"] is None
        assert report["verdicts"]["p2_h_ratio_monotone"] is None

    def test_backward_term_and_preview(self):
        report = build_report(make_h_spec(1, -1, 1))
        assert report["term_minus_one"] == "0"
        assert report["terms_preview"][:5] == ["1", "1", "2", "3", "5"]

    @pytest.mark.parametrize(
        "spec, alpha_key, limit_key",
        [
            (make_h_spec(1, -1, 1), "alpha_plus", "alpha"),
            # a < 0: the dominant root is the negative one
            (RecurrenceSpec(Fraction(-7, 3), Fraction(-5, 7), Fraction(3, 4), Fraction(-2, 5)),
             "alpha_minus", "alpha"),
            # roots 2 and 1, started on 1**n: the ratio sits at beta
            (RecurrenceSpec(3, 2, 1, 1), "alpha_plus", "beta"),
        ],
    )
    def test_root_blocks_repeat_the_root_they_name(self, spec, alpha_key, limit_key):
        report = build_report(spec, window=40)
        roots = report["roots"]
        beta_key = "alpha_minus" if alpha_key == "alpha_plus" else "alpha_plus"
        assert roots["alpha"] == roots[alpha_key]
        assert roots["beta"] == roots[beta_key]
        assert report["ratio_limit"]["which_root"] == limit_key
        assert report["ratio_limit"]["limit"] == roots[limit_key]
        assert roots["alpha_plus"] != roots["alpha_minus"]

    def test_residual_prefix_lists_three_decimals(self):
        report = build_report(make_h_spec(1, -3, 1), window=40)
        prefix = report["oracle_windows"]["p3"]["residual_decimal_prefix"]
        assert len(prefix) == 3
        values = [float(v) for v in prefix]
        assert values[0] < values[1] < values[2]


class TestCrossChecks:
    def test_corpus_never_raises(self):
        for spec in build_corpus(424242, 80):
            build_report(spec, window=60)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            build_report(make_h_spec(1, -1, 1), window=0)
        with pytest.raises(ValueError):
            build_report(make_h_spec(1, -1, 1), from_k=-1)


def _fake_verdict(monkeypatch, name, verdict, only_k=None):
    """decisions.<name> returns verdict; for nondecreasing_from, only at k = only_k."""
    real = getattr(decisions, name)

    def fake(*args):
        return verdict if only_k is None or args[1:] == (only_k,) else real(*args)

    monkeypatch.setattr(decisions, name, fake)


def _fake_windows(monkeypatch, **firsts):
    """oracle.scan hands back each named window with the given first violation."""
    real = oracle.scan

    def fake(spec, window, from_k):
        windows = real(spec, window, from_k)
        changed = {
            field: getattr(windows, field)._replace(
                holds_on_window=first is None, first_violation=first
            )
            for field, first in firsts.items()
        }
        return windows._replace(**changed)

    monkeypatch.setattr(oracle, "scan", fake)


# (verdict name, spec, from_k, faked verdicts as (decision, verdict, only_k),
#  faked windows as {field: first violation}); each case makes one verdict
#  and its oracle window contradict each other and nothing else
CONTRADICTIONS = {
    "from_k_holds_dirty_window": (
        "nondecreasing_from(3)", RecurrenceSpec(1, 1, 1, 1), 3,
        [("nondecreasing_from", Verdict(True, Branch.COND_MONOTONIC_1), 3)], {},
    ),
    "from_k_initial_triple_clean_window": (
        "nondecreasing_from(3)", make_h_spec(Fraction(1, 10), -2, 1), 3,
        [], {"p1_from_k": None},
    ),
    "from_k_initial_triple_late_violation": (
        "nondecreasing_from(3)", make_h_spec(Fraction(1, 10), -2, 1), 3,
        [], {"p1_from_k": 4},
    ),
    "immediate_holds_dirty_window": (
        "nondecreasing_from(0)", RecurrenceSpec(1, 1, 1, 1), 3,
        [("nondecreasing_from", Verdict(True, Branch.COND_MONOTONIC_1), 0)], {},
    ),
    "immediate_initial_triple_clean_window": (
        "nondecreasing_from(0)", make_h_spec(Fraction(1, 10), -2, 1), 3,
        [], {"p1_immediate": None},
    ),
    "immediate_initial_triple_late_violation": (
        "nondecreasing_from(0)", make_h_spec(Fraction(1, 10), -2, 1), 3,
        [], {"p1_immediate": 1},
    ),
    "positive_monotone_h_dirty_window": (
        "positive_monotone_h", make_h_spec(1, 1, 1), 0,
        [("positive_monotone_h", Verdict(True, Branch.COND_H_MONOTONE), None)], {},
    ),
    # the cross row with nondecreasing_from(0): a clean window, but a[0] is
    # not positive
    "positive_monotone_h_nonpositive_v0": (
        "positive_monotone_h", make_h_spec(1, -1, -1), 0,
        [("positive_monotone_h", Verdict(True, Branch.COND_H_MONOTONE), None),
         ("nondecreasing_from", Verdict(False, Branch.FAIL_GROWTH_PRODUCT), None)],
        {"p1_immediate": None},
    ),
    "ratio_monotone_h_dirty_window": (
        "ratio_monotone_h", make_h_spec(Fraction(1, 2), Fraction(-3, 4), 1), 0,
        [("ratio_monotone_h", Verdict(True, Branch.COND_RATIO_CONTRACTION), None)], {},
    ),
    "ratio_monotone_h_modulus_clean_window": (
        "ratio_monotone_h", make_h_spec(Fraction(1, 2), Fraction(-3, 4), 1), 0,
        [], {"p2": None},
    ),
    "weighted_monotone_dirty_window": (
        "weighted_monotone", make_h_spec(Fraction(1, 10), -2, 1), 0,
        [("weighted_monotone", Verdict(True, Branch.COND_MODULUS_AT_MOST_ONE), None)], {},
    ),
    "weighted_monotone_modulus_clean_window": (
        "weighted_monotone", make_h_spec(Fraction(1, 10), -2, 1), 0,
        [], {"p3": None},
    ),
    # a[n] = 3**n on roots 2 and 3: the zero residual holds P3
    "weighted_monotone_eigen_start_dirty_window": (
        "weighted_monotone", RecurrenceSpec(5, 6, 1, 3), 0,
        [], {"p3": 0},
    ),
    # the last pair of the window violates, and nondecreasing_from fails
    # at every start the search for n0 tries
    "eventually_nondecreasing_no_clean_tail": (
        "eventually_nondecreasing", make_h_spec(1, -1, -1), 0,
        [("eventually_nondecreasing", Verdict(True, Branch.COND_MONOTONIC_1), None)], {},
    ),
    "hartman_aurel_ordered_start_dirty_window": (
        "hartman_aurel_sufficient", RecurrenceSpec(1, 1, 1, 2), 0,
        [("hartman_aurel_sufficient", True, None)], {},
    ),
}


class TestContractFires:
    """Each row of build_report's decision/oracle contract, and each of its
    single-line checks, raises once its verdict and its window disagree."""

    @pytest.mark.parametrize("case", sorted(CONTRADICTIONS))
    def test_contradiction_raises_naming_the_verdict(self, monkeypatch, case):
        name, spec, from_k, verdicts, windows = CONTRADICTIONS[case]
        build_report(spec, 40, from_k)  # consistent before the fakes
        for decision, verdict, only_k in verdicts:
            _fake_verdict(monkeypatch, decision, verdict, only_k)
        _fake_windows(monkeypatch, **windows)
        with pytest.raises(InternalInconsistency, match=re.escape(name)):
            build_report(spec, 40, from_k)

    # roots 2 and 1 and a[n] = 2**(n+1) - 1: both verdicts hold, on
    # COND_H_MONOTONE and COND_MONOTONIC_1; each is faked to fail in turn
    @pytest.mark.parametrize("decision, verdict, message", [
        ("positive_monotone_h", Verdict(False, Branch.FAIL_COEFF_BELOW_ONE),
         "positive_monotone_h fails on FAIL_COEFF_BELOW_ONE, but nondecreasing_from(0) "
         "holds on COND_MONOTONIC_1 and v0 = 1"),
        ("nondecreasing_from", Verdict(False, Branch.FAIL_GROWTH_PRODUCT),
         "positive_monotone_h holds on COND_H_MONOTONE, but nondecreasing_from(0) "
         "fails on FAIL_GROWTH_PRODUCT and v0 = 1"),
    ])
    def test_h_monotone_cross_row_fires(self, monkeypatch, decision, verdict, message):
        # neither faked verdict names a forced index, so no oracle row reads
        # it: only the cross row between the two chains fires
        spec = make_h_spec(3, 2, 1)
        build_report(spec, 40)  # consistent before the fake
        _fake_verdict(monkeypatch, decision, verdict, 0 if decision == "nondecreasing_from" else None)
        with pytest.raises(InternalInconsistency, match=re.escape(message)):
            build_report(spec, 40)

    # the violations at and past k* - 2 = 14 that the fake reader reports
    # in place of the real ones, {14}: one more inside [k* - 1, k* + window],
    # none at k* - 2, and the last at k* - 1 instead of k* - 2
    @pytest.mark.parametrize("violations, message", [
        ({14, 17}, "nondecreasing_from(16) (eventually_nondecreasing holds from n0 = 15 on) "
                   "holds but the window finds a violation at 17"),
        (set(), "nondecreasing_from(15) (eventually_nondecreasing holds from n0 = 15 on) "
                "fails on FAIL_INITIAL_TRIPLE, which forces a violation by index 15, but "
                "the window's first violation is None"),
        ({15}, "nondecreasing_from(16) (eventually_nondecreasing holds from n0 = 15 on) "
               "holds but the window finds a violation at 15"),
    ], ids=["late_violation", "none_at_k_minus_2", "last_at_k_minus_1"])
    def test_n0_past_the_window_rows_fire(self, monkeypatch, violations, message):
        # n0 = 15 against a window of 2: nondecreasing_from(16) holds on a
        # clean [15, 18], and nondecreasing_from(15) fails by 15 on [14, 14]
        spec = RecurrenceSpec(Fraction(1, 3), Fraction(-3, 4), 4, -2)
        build_report(spec, 2)  # consistent before the fake
        asked = []

        def fake(spec, lo, hi):
            asked.append((lo, hi))
            return min((i for i in violations if lo <= i <= hi), default=None)

        monkeypatch.setattr(oracle, "first_p1_violation", fake)
        with pytest.raises(InternalInconsistency, match=re.escape(message)):
            build_report(spec, 2)
        assert asked == [(15, 18), (14, 14)]

    # a[5] = 0 on RecurrenceSpec(3, 2, -31, -30): its orbit ends at state 4
    @pytest.mark.parametrize("spec, fault", [
        (make_h_spec(1, -1, 1), "one state late"),
        (make_h_spec(1, -1, 1), "state 5 off by one"),
        (RecurrenceSpec(Fraction(7, 3), Fraction(-5, 7), Fraction(3, 4), Fraction(-2, 5)),
         "state 7 off by one"),
        (RecurrenceSpec(3, 2, -31, -30), "zero state dropped"),
        (RecurrenceSpec(3, 2, -31, -30), "one state early"),
    ])
    def test_riccati_prefix_row_fires(self, monkeypatch, spec, fault):
        # the kernel broken one way at a time, against the carrier's terms
        def broken(*args):
            states = list(kernel(*args))
            if fault == "one state late":
                return states[1:]
            if fault == "one state early":
                return states[:1] + states
            if fault == "zero state dropped":
                return states[:-1]
            n = int(fault.split()[1])
            p, r = states[n]
            return states[:n] + [(p + 1, r)] + states[n + 1:]

        build_report(spec, 40)  # consistent before the fake
        kernel = report_module._states
        monkeypatch.setattr(report_module, "_states", broken)
        with pytest.raises(InternalInconsistency, match="riccati_prefix"):
            build_report(spec, 40)

    @pytest.mark.parametrize("v0, v1", [(1, 2), (2, 2), (Fraction(1, 3), 7)])
    def test_hartman_aurel_ordered_start_has_clean_tail(self, v0, v1):
        spec = RecurrenceSpec(Fraction(7, 2), Fraction(1, 2), v0, v1)
        assert decisions.hartman_aurel_sufficient(spec.a, spec.b)
        assert build_report(spec, 60)["oracle_windows"]["n0_witness"] == 0


class TestOneScanPerReport:
    """Each report walks the carrier once: n0 past the window is certified
    by two P1-only reads, not by more scans."""

    # the far n0 cases, each past its window: 15 against a window of 2
    # (the n0_past_short_window smoke), the rest against the default 300
    @pytest.mark.parametrize("spec, n0", FAR_N0, ids=[str(n0) for _, n0 in FAR_N0])
    def test_n0_past_the_window_scans_once(self, monkeypatch, spec, n0):
        window = 2 if n0 == 15 else 300
        scans, reads = [], []
        scan, read = oracle.scan, oracle.first_p1_violation

        def counted_scan(*args):
            scans.append(args)
            return scan(*args)

        def counted_read(spec, lo, hi):
            reads.append((lo, hi))
            return read(spec, lo, hi)

        monkeypatch.setattr(oracle, "scan", counted_scan)
        monkeypatch.setattr(oracle, "first_p1_violation", counted_read)
        report = build_report(spec, window)
        assert report["verdicts"]["p1_eventual"]["holds"]
        assert report["oracle_windows"]["n0_witness"] is None
        assert scans == [(spec, window, 0)]
        # k* = n0 + 1: [k* - 1, k* + window] and [k* - 2, k* - 2]
        assert reads == [(n0, n0 + 1 + window), (n0 - 1, n0 - 1)]


class TestRootsBuiltOnce:
    """spec.roots() builds the roots on first use and keeps them, and every
    reader of one spec's roots gets that one RootPair; the decisions read
    none."""

    @staticmethod
    def _specs():
        # fresh specs each time, since a spec keeps the roots it built
        return [make_h_spec(1, -1, 1), RecurrenceSpec(Fraction(-7, 3), Fraction(-5, 7),
                                                      Fraction(3, 4), Fraction(-2, 5)),
                make_h_spec(3, 2, 1), RecurrenceSpec(2, 1, 1, 3), RecurrenceSpec(1, 1, 1, 2)]

    @staticmethod
    def _count_root_builds(monkeypatch):
        calls = []

        def counted(a, b):
            calls.append((a, b))
            return quadratic_roots(a, b)

        for name in ("cli", "decisions", "numtheory", "oracle", "qfield", "recurrence",
                     "regions", "report", "riccati"):
            module = importlib.import_module(f"recmono.{name}")
            if "quadratic_roots" in vars(module):
                monkeypatch.setattr(module, "quadratic_roots", counted)
        return calls

    def test_build_report_builds_the_roots_once(self, monkeypatch):
        calls = self._count_root_builds(monkeypatch)
        for spec in self._specs():
            calls.clear()
            build_report(spec, 40, 3)
            assert len(calls) == 1, spec

    def test_report_and_ratio_limit_share_one_root_pair(self, monkeypatch):
        calls = self._count_root_builds(monkeypatch)
        seen = []
        roots = RecurrenceSpec.roots

        def recorded(spec):
            seen.append(roots(spec))
            return seen[-1]

        monkeypatch.setattr(RecurrenceSpec, "roots", recorded)
        for spec in self._specs():
            calls.clear()
            seen.clear()
            decisions.eventually_nondecreasing(spec)
            decisions.nondecreasing_from(spec, 0)
            decisions.nondecreasing_from(spec, 5)
            decisions.weighted_monotone(spec)
            decisions.eventually_ratio_monotone(spec)
            if spec.h_type:
                decisions.positive_monotone_h(spec)
                decisions.ratio_monotone_h(spec)
            assert calls == seen == [], spec
            ratio_limit(spec)
            build_report(spec, 40, 3)
            assert len(calls) == 1, spec
            assert len(seen) >= 2 and all(r is seen[0] for r in seen), spec


# ---- the integer form against the Fraction and QuadElem expressions -------

_SMALL = st.fractions(min_value=-9, max_value=9, max_denominator=9)
_NONZERO = _SMALL.filter(bool)


@st.composite
def _specs(draw):
    """Specs of every root shape: any (a, b), so irrational, complex and
    rational roots alike; two rational roots, 1 often among them; or a
    repeated root.  a < 0 is drawn as often as a > 0.  The start is
    general, zero at v0 or at v1, along a rational root, or h-type."""
    shape = draw(st.sampled_from(("any", "rational", "repeated")))
    roots = ()
    if shape == "any":
        a, b = draw(_NONZERO), draw(_NONZERO)
    else:
        root = st.just(Fraction(1)) | _NONZERO
        r1 = draw(root)
        r2 = r1 if shape == "repeated" else draw(root)
        assume(r1 + r2 != 0)
        a, b, roots = r1 + r2, r1 * r2, (r1, r2)
    start = draw(st.sampled_from(("pair", "v0 = 0", "v1 = 0", "eigen", "h")))
    if start == "h":
        return make_h_spec(a, b, draw(_NONZERO))
    v0, v1 = draw(_SMALL), draw(_SMALL)
    if start == "v0 = 0":
        v0, v1 = 0, v1 or 1
    elif start == "v1 = 0":
        v0, v1 = v0 or 1, 0
    elif start == "eigen" and roots:
        v0 = v0 or 1
        v1 = v0 * draw(st.sampled_from(roots))
    assume((v0, v1) != (0, 0))
    return RecurrenceSpec(a, b, v0, v1)


def _modulus_decimal(x: Surd) -> str:
    """decimal_str of |x|, a reference value, read as a QuadElem's integers."""
    return decimal_str(QuadElem(*abs(x).fields()))


class TestIntegerFormMatchesTheReference:
    """Each quantity the spec's integer form gives equals its expression in
    Fractions and in the roots reference.roots builds from a and b alone."""

    @settings(max_examples=300, deadline=None)
    @given(_specs())
    def test_signs_terms_and_rendering(self, spec):
        a, b, v0, v1 = spec.a, spec.b, spec.v0, spec.v1
        assert term_minus_one(spec) == (a * v0 - v1) / b
        assert hartman_aurel_sufficient(a, b) == (a - 1 - b > 0 and b > 0)
        report = build_report(spec, 12)
        terms = terms_between(spec, 0, TERMS_PREVIEW_LEN - 1)
        assert report["terms_preview"] == [str(t) for t in terms]
        # the package's roots, and each root clause of the decisions as
        # they write it on the integer form, against the reference's roots
        roots, ref = spec.roots(), reference.roots(a, b)
        q, A, B, _, V0, V1 = spec._integers
        assert (A * A < 4 * B * q) == (ref.discriminant_sign < 0)
        assert roots.discriminant_sign == ref.discriminant_sign
        if ref.discriminant_sign < 0:
            return
        for name in ("alpha_plus", "alpha_minus", "alpha", "beta"):
            assert reference.from_elem(getattr(roots, name)) == getattr(ref, name), name
        alpha, beta, gap = ref.alpha, ref.beta, spec._gap_sign
        s = 1 if alpha is ref.alpha_plus else -1  # alpha's t, beta's is -s
        assert -gap(1, 1, 0) == ref.alpha_plus.sign()
        assert -gap(1, 1, 1) == (ref.alpha_plus - 1).sign()
        assert gap(-s, V0, V1) == (v1 - v0 * beta).sign()
        assert gap(s, V0, V1) == (v1 - v0 * alpha).sign()
        assert report["degenerate_geometric"] == ((v1 - v0 * alpha).sign() == 0)
        assert gap(-s, 1, 1) * gap(-s, 1, -1) == ((beta - 1) * (beta + 1)).sign()
        assert gap(-s, q, A) * gap(-s, q, -A) == -((a - beta) * (a + beta)).sign()
        assert report["roots"]["alpha_plus"]["exact"] == ref_str(roots.alpha_plus)
        assert report["roots"]["alpha_minus"]["exact"] == ref_str(roots.alpha_minus)
        p2, p3 = report["oracle_windows"]["p2"], report["oracle_windows"]["p3"]
        assert p3["residual_decimal_prefix"] == [
            _modulus_decimal(terms[n] * alpha - terms[n + 1]) for n in range(3)]
        n = p2["first_violation"]
        if n is not None:
            t0, t1, t2 = terms_between(spec, n, n + 2)
            assert p2["violation_detail"] == {
                "index": n,
                "lhs_decimal": _modulus_decimal(alpha - t1 / t0),
                "rhs_decimal": _modulus_decimal(alpha - t2 / t1),
            }

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-10**30, 10**30), st.integers(-10**6, 10**6),
           st.integers(0, 10**9), st.integers(1, 10**20))
    def test_quad_str(self, x, y, n, den):
        element = QuadElem(x, y, n, den)
        assert str(element) == ref_str(element)


class TestWorkCounts:
    """The exact work one report does, counted by monkeypatch: QuadElem
    constructions and over_common_denominator calls."""

    # (spec, QuadElems, over_common_denominator calls) per build_report at
    # window 40.  QuadElems, on real roots only: the two roots, three
    # residual decimals, and two for a P2 violation detail; the verdicts
    # and the signs the report reads build none.
    # over_common_denominator: the integer form clears (a, b) and
    # (v0, v1) once each, and quadratic_roots and hartman_aurel_sufficient
    # clear (a, b) once more each; the Riccati prefix reads the integer form.
    CASES = [
        (RecurrenceSpec(Fraction(-7, 3), Fraction(-5, 7), Fraction(3, 4), Fraction(-2, 5)),
         5, 4),
        (RecurrenceSpec(Fraction(5, 2), 1, 3, -1), 7, 4),  # P2 fails at 0
        (RecurrenceSpec(1, 1, 1, 2), 0, 4),  # complex roots
        (make_h_spec(Fraction(11, 10), Fraction(1, 5), 2), 5, 4),
        (RecurrenceSpec(3, 2, 0, 1), 5, 4),
    ]

    @staticmethod
    def _count(monkeypatch):
        quads, pairs = [], []
        init = QuadElem.__init__

        def counted_init(self, *args, **kwargs):
            quads.append(args)
            init(self, *args, **kwargs)

        def counted_pair(x, y):
            pairs.append((x, y))
            return clear(x, y)

        monkeypatch.setattr(QuadElem, "__init__", counted_init)
        clear = importlib.import_module("recmono.qfield").over_common_denominator
        for name in ("cli", "decisions", "numtheory", "oracle", "qfield", "recurrence",
                     "regions", "report", "riccati"):
            module = importlib.import_module(f"recmono.{name}")
            if "over_common_denominator" in vars(module):
                monkeypatch.setattr(module, "over_common_denominator", counted_pair)
        return quads, pairs

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_build_report(self, monkeypatch, case):
        spec, n_quads, n_pairs = self.CASES[case]
        spec = RecurrenceSpec(spec.a, spec.b, spec.v0, spec.v1, spec.h_type)  # nothing cached
        quads, pairs = self._count(monkeypatch)
        build_report(spec, 40)
        assert (len(quads), len(pairs)) == (n_quads, n_pairs)
        assert pairs.count((spec.v0, spec.v1)) == 1  # the start pair, cleared once

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_signs_build_no_quad_elem(self, monkeypatch, case):
        # every decision, on a spec with nothing cached, builds no root
        spec = self.CASES[case][0]
        spec = RecurrenceSpec(spec.a, spec.b, spec.v0, spec.v1, spec.h_type)
        quads, _ = self._count(monkeypatch)
        decisions.eventually_nondecreasing(spec)
        decisions.nondecreasing_from(spec, 0)
        decisions.nondecreasing_from(spec, 5)
        decisions.weighted_monotone(spec)
        if spec.v0 and spec.v1:
            decisions.eventually_ratio_monotone(spec)
        if spec.h_type:
            decisions.positive_monotone_h(spec)
            decisions.ratio_monotone_h(spec)
        term_minus_one(spec)
        hartman_aurel_sufficient(spec.a, spec.b)
        assert quads == []


# ---- the assembled report against the naive reference ---------------------

_ROOT = st.fractions(min_value=-6, max_value=6, max_denominator=4).filter(bool)
_EIGEN_OFFSETS = (0, Fraction(1, 10**30), -Fraction(1, 10**30))


@st.composite
def _report_cases(draw):
    """(spec, window, from_k) for build_report: any (a, b); a repeated
    root; a complex pair; two rational roots with a start on either
    eigen-solution or within 10**-30 of it; an h-type start; or a spec
    near the repeated-unit-root corner shaped like report-corpus slot 0
    (a = 2 -+ u/10**i, b = a - 1 - 10**-j, v1 just below v0).  Starts of
    any pair keep their zero terms.  The from-k window lies inside the
    window or past it."""
    kind = draw(st.sampled_from(("any", "repeated", "complex", "eigen", "h", "corner")))
    v0, v1 = draw(_SMALL), draw(_SMALL)
    if kind == "corner":
        a = 2 + draw(st.sampled_from((-1, 1))) * Fraction(draw(st.integers(1, 9)),
                                                          10 ** draw(st.integers(1, 2)))
        b = a - 1 - Fraction(1, 10 ** draw(st.integers(4, 7)))
        v0, m = draw(_NONZERO.filter(lambda v: v > 0)), draw(st.integers(10, 200))
        v1 = v0 * m / (m + 1)
    elif kind in ("repeated", "eigen"):
        r = draw(_ROOT)
        t = r if kind == "repeated" else draw(_ROOT)
        assume(r + t)
        a, b = r + t, r * t
        if kind == "eigen":
            v0 = v0 or 1
            v1 = v0 * draw(st.sampled_from((r, t))) + draw(st.sampled_from(_EIGEN_OFFSETS))
    else:
        a, b = draw(_NONZERO), draw(_NONZERO)
        if kind == "complex":
            b = a * a / 4 + abs(b)
    assume(v0 or v1)
    spec = make_h_spec(a, b, draw(_NONZERO)) if kind == "h" else RecurrenceSpec(a, b, v0, v1)
    window = draw(st.integers(1, 30))
    from_k = draw(st.integers(0, window) | st.integers(window + 1, 3 * window + 40))
    return spec, window, from_k


class TestReportMatchesTheReference:
    """The assembled report, not only scan, against the naive reference:
    build_report raises no InternalInconsistency, and every oracle
    window's first violation, P2's skipped indices and the n0 witness it
    prints equal reference.reference_windows.  A spec whose n0 lies past
    N0_SEARCH_LIMIT is refused (exit 2) instead."""

    @settings(max_examples=150, deadline=None)
    @given(_report_cases())
    # the repeated root 2, a start 10**-30 above its eigen-solution -2**n:
    # n0 near 2*10**30, past the search, under a dominance index proven exact
    @example((RecurrenceSpec(4, 4, -1, -2 + Fraction(1, 10**30)), 1, 0))
    def test_oracle_windows(self, case):
        try:
            got = build_report(*case)["oracle_windows"]
        except ValueError as refused:
            assert "n0 lies past the search limit" in str(refused), case
            return
        want = reference.reference_windows(*case)
        for key in ("p1_immediate", "p1_from_k", "p3"):
            assert got[key]["first_violation"] == getattr(want, key).first_violation, (case, key)
        if want.p2 is None:
            assert got["p2"] is None, case
        else:
            assert got["p2"]["first_violation"] == want.p2.first_violation, case
            assert got["p2"]["skipped_indices"] == list(want.p2.skipped_indices), case
        assert got["n0_witness"] == want.n0_witness, case
