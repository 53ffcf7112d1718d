"""Tests for the experiment runners and result-table reporting."""

from __future__ import annotations

import os

import pytest

from repro.core import DiscoverySession, SquidConfig, SquidSystem
from repro.datasets import adult
from repro.eval import (
    accuracy_curve,
    dataset_statistics,
    evaluate_once,
    format_table,
    query_runtime_comparison,
    scalability_curve,
    squid_qre,
)
from repro.workloads import adult_queries


@pytest.fixture(scope="module")
def adult_setup():
    db = adult.generate(adult.AdultSize.small())
    squid = SquidSystem.build(db, adult.metadata(), SquidConfig())
    registry = adult_queries.generate_queries(db, count=4)
    return db, squid, registry


class TestEvaluateOnce:
    def test_scores_and_times(self, adult_setup):
        db, squid, registry = adult_setup
        workload = registry.all()[0]
        examples = workload.ground_truth_examples(db)[:8]
        score, elapsed, result = evaluate_once(squid, workload, examples)
        assert 0.0 <= score.f_score <= 1.0
        assert elapsed > 0.0
        assert result.entity.table == "adult"


class TestAccuracyCurve:
    def test_points_cover_sizes(self, adult_setup):
        db, squid, registry = adult_setup
        workload = registry.all()[0]
        points = accuracy_curve(squid, workload, [3, 6], runs_per_size=2)
        assert [p.num_examples for p in points] == [3, 6]
        for point in points:
            assert point.runs <= 2
            assert point.qid == workload.qid

    def test_examples_override(self, adult_setup):
        db, squid, registry = adult_setup
        workload = registry.all()[0]
        override = workload.ground_truth_examples(db)[:4]
        points = accuracy_curve(
            squid, workload, [2], runs_per_size=2, examples_override=override
        )
        assert points


class TestScalabilityCurve:
    def test_rows_have_times(self, adult_setup):
        db, squid, registry = adult_setup
        rows = scalability_curve(squid, registry, [3, 6], runs_per_size=1)
        assert len(rows) == 2
        assert all(row["mean_seconds"] > 0 for row in rows)

    def test_warmup_shares_no_set_with_timed_sizes(self, adult_setup):
        db, squid, registry = adult_setup
        recorded = []

        class Recording(DiscoverySession):
            def discover_many(self, example_sets, config=None):
                recorded.append([frozenset(s) for s in example_sets])
                return super().discover_many(example_sets, config)

        session = Recording(squid)
        sizes = [3, 6, 9]
        rows = scalability_curve(
            squid, registry, sizes, runs_per_size=2, session=session
        )
        assert len(rows) == len(sizes)
        warmup, *timed = recorded
        assert len(timed) == len(sizes)
        assert warmup
        assert not set(warmup) & {s for batch in timed for s in batch}


class TestQueryRuntime:
    def test_compares_both_queries(self, adult_setup):
        db, squid, registry = adult_setup
        rows = query_runtime_comparison(squid, registry, num_examples=5)
        assert rows
        for row in rows:
            assert row["actual_seconds"] >= 0.0
            assert row["abduced_seconds"] >= 0.0


class TestSquidQre:
    def test_outcome_fields(self, adult_setup):
        db, squid, registry = adult_setup
        outcome = squid_qre(squid, registry.all()[0])
        assert outcome.cardinality > 0
        assert outcome.squid_predicates is not None
        assert outcome.squid_f_score is not None
        assert outcome.squid_seconds > 0
        assert outcome.squid_ieq == (outcome.squid_f_score == 1.0)


class TestDatasetStatistics:
    def test_rows(self, adult_setup):
        db, _, _ = adult_setup
        rows = dataset_statistics({"adult": db})
        assert rows[0]["dataset"] == "adult"
        assert rows[0]["relations"] == 1
        assert rows[0]["total_rows"] == len(db.relation("adult"))


class TestFormatTable:
    def test_renders_columns_in_order(self):
        text = format_table(
            [{"a": 1, "b": 0.5}, {"a": 22, "b": 0.25}],
            columns=["b", "a"],
            title="demo",
        )
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert lines[1].startswith("b")
        assert "0.5000" in text

    def test_empty_rows(self):
        assert "(no rows)" in format_table([], title="x")

    def test_missing_cells_blank(self):
        text = format_table([{"a": 1}, {"a": 2, "b": 3}])
        assert "b" in text

    def test_float_format_override(self):
        text = format_table([{"v": 0.123456}], float_format="{:.2f}")
        assert "0.12" in text
