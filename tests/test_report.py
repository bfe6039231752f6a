"""Assembled JSON report: shape, pinned decimals, degeneracy flag,
cross-check behavior, and determinism.
"""

from __future__ import annotations

import importlib
import json
from fractions import Fraction

import pytest

from recmono import (
    InternalInconsistency,
    RecurrenceSpec,
    build_report,
    decisions,
    make_h_spec,
    ratio_limit,
)
from recmono.qfield import quadratic_roots

from conftest import build_corpus


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

    def test_degenerate_geometric_flag(self):
        # start lying on the repeated eigen-solution 2^n
        report = build_report(RecurrenceSpec(4, 4, 1, 2))
        assert report["degenerate_geometric"] is True
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


class TestRootsBuiltOnce:
    """spec.roots() builds the roots on first use and keeps them, and every
    reader of one spec's roots gets that one RootPair."""

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

    def test_every_decision_sees_one_root_pair(self, monkeypatch):
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
            ratio_limit(spec)
            build_report(spec, 40, 3)
            assert len(calls) == 1, spec
            assert len(seen) >= 8 and all(r is seen[0] for r in seen), spec
