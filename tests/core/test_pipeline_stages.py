"""Unit tests for the staged discovery pipeline's seams.

Each stage runs in isolation on the small IMDb-shaped fixture: a context
is prepared by hand up to the stage under test, the stage mutates it,
and only that stage's outputs (and its timing slot) change.
"""

from __future__ import annotations

import pytest

from repro.core import SquidConfig
from repro.core.base_query import build_adb_query
from repro.core.lookup import ExampleLookupError, lookup_examples
from repro.core.pipeline import (
    CANDIDATE_STAGES,
    LOOKUP_STAGE,
    AbductionStage,
    ConstructionStage,
    ContextStage,
    DisambiguationStage,
    DiscoveryTimings,
    LookupStage,
    PipelineContext,
    check_example_count,
    discover_sequential,
    run_candidate,
    select_best,
)


def make_context(squid, examples, **kwargs):
    return PipelineContext(
        adb=squid.adb,
        backend=squid.backend,
        config=kwargs.pop("config", squid.config),
        examples=list(examples),
        **kwargs,
    )


class TestLookupStage:
    def test_produces_candidate_matches(self, mini_squid):
        ctx = make_context(mini_squid, ["Jim Carrey", "Eddie Murphy"])
        LookupStage()(ctx)
        assert ctx.matches is not None and len(ctx.matches) >= 1
        assert {m.entity.table for m in ctx.matches} == {"person"}
        assert ctx.timings.lookup_seconds > 0.0

    def test_raises_on_unknown_examples(self, mini_squid):
        ctx = make_context(mini_squid, ["definitely-not-a-person"])
        with pytest.raises(ExampleLookupError):
            LookupStage()(ctx)


class TestDisambiguationStage:
    def test_runs_in_isolation(self, mini_squid):
        matches = lookup_examples(mini_squid.adb, ["Jim Carrey", "Eddie Murphy"])
        ctx = make_context(
            mini_squid, ["Jim Carrey", "Eddie Murphy"], match=matches[0]
        )
        DisambiguationStage()(ctx)
        assert ctx.resolution is not None
        assert len(ctx.keys) == 2
        assert ctx.timings.disambiguation_seconds > 0.0
        # stage isolation: nothing downstream was touched
        assert ctx.contexts is None and ctx.abduction is None

    def test_respects_disambiguate_flag(self, mini_squid):
        matches = lookup_examples(mini_squid.adb, ["Jim Carrey"])
        config = mini_squid.config.with_overrides(disambiguate=False)
        ctx = make_context(
            mini_squid, ["Jim Carrey"], match=matches[0], config=config
        )
        DisambiguationStage()(ctx)
        assert ctx.resolution.considered == 1


class TestContextStage:
    def test_runs_in_isolation(self, mini_squid):
        matches = lookup_examples(mini_squid.adb, ["Jim Carrey", "Eddie Murphy"])
        ctx = make_context(
            mini_squid, ["Jim Carrey", "Eddie Murphy"], match=matches[0]
        )
        DisambiguationStage()(ctx)
        ContextStage()(ctx)
        assert ctx.contexts is not None
        assert ctx.contexts.entity == "person"
        assert len(ctx.contexts.filters) == len(ctx.contexts.contexts) > 0
        labels = {f.prop.label for f in ctx.contexts.filters}
        assert "Comedy" in labels  # the shared derived genre context
        assert ctx.timings.context_seconds > 0.0
        assert ctx.abduction is None

    def test_contexts_match_direct_call(self, mini_squid):
        from repro.core.context import discover_contexts

        matches = lookup_examples(mini_squid.adb, ["Jim Carrey", "Eddie Murphy"])
        ctx = make_context(
            mini_squid, ["Jim Carrey", "Eddie Murphy"], match=matches[0]
        )
        DisambiguationStage()(ctx)
        ContextStage()(ctx)
        direct = discover_contexts(
            mini_squid.adb, "person", ctx.keys, mini_squid.config
        )
        assert [f.prop for f in ctx.contexts.filters] == [
            f.prop for f in direct.filters
        ]


class TestAbductionAndConstruction:
    def run_through(self, squid, examples, stages):
        matches = lookup_examples(squid.adb, examples)
        ctx = make_context(squid, examples, match=matches[0])
        for stage in stages:
            stage(ctx)
        return ctx

    def test_abduction_stage(self, mini_squid):
        ctx = self.run_through(
            mini_squid,
            ["Jim Carrey", "Eddie Murphy"],
            [DisambiguationStage(), ContextStage(), AbductionStage()],
        )
        assert ctx.abduction is not None
        assert len(ctx.abduction.decisions) == len(ctx.contexts.filters)
        assert ctx.timings.abduction_seconds > 0.0
        assert ctx.query is None

    def test_construction_stage(self, mini_squid):
        ctx = self.run_through(
            mini_squid,
            ["Jim Carrey", "Eddie Murphy"],
            list(CANDIDATE_STAGES),
        )
        assert ctx.query is not None and ctx.keyed_query is not None
        assert ctx.original_query is not None
        assert ctx.selected == ctx.abduction.selected
        result = ctx.to_result()
        assert result.sql.startswith("SELECT DISTINCT person.name")
        assert result.log_posterior == ctx.abduction.log_posterior()

    def test_construction_queries_match_the_builders(self, mini_squid):
        ctx = self.run_through(
            mini_squid,
            ["Jim Carrey", "Eddie Murphy"],
            list(CANDIDATE_STAGES),
        )
        entity = ctx.match.entity
        adb = mini_squid.adb
        assert ctx.keyed_query == build_adb_query(
            adb, entity, ctx.selected, select_key=True
        )
        assert ctx.query == build_adb_query(adb, entity, ctx.selected)

    def test_run_candidate_equals_stagewise(self, mini_squid):
        examples = ["Jim Carrey", "Eddie Murphy"]
        matches = lookup_examples(mini_squid.adb, examples)
        stagewise = self.run_through(
            mini_squid, examples, list(CANDIDATE_STAGES)
        ).to_result()
        fused = run_candidate(make_context(mini_squid, examples, match=matches[0]))
        assert fused.sql == stagewise.sql
        assert fused.original_sql == stagewise.original_sql
        assert fused.entity_keys == stagewise.entity_keys
        assert fused.log_posterior == stagewise.log_posterior


class TestPipelineHelpers:
    def test_for_candidate_forks_shared_state(self, mini_squid):
        ctx = make_context(mini_squid, ["Jim Carrey"])
        LOOKUP_STAGE(ctx)
        fork = ctx.for_candidate(ctx.matches[0])
        assert fork.match is ctx.matches[0]
        assert fork.timings is not ctx.timings
        assert fork.timings.lookup_seconds == ctx.timings.lookup_seconds

    def test_select_best_prefers_earlier_on_tie(self, mini_squid):
        result = discover_sequential(
            mini_squid.adb, mini_squid.backend, ["Jim Carrey"], mini_squid.config
        )
        # a one-element selection trivially returns the element
        assert select_best([result]) is result

    def test_check_example_count(self):
        config = SquidConfig(max_example_warn=2)
        check_example_count(["a", "b"], config)
        with pytest.raises(ValueError):
            check_example_count(["a", "b", "c"], config)

    def test_timings_cpu_vs_wall(self, mini_squid):
        result = mini_squid.discover(["Jim Carrey", "Eddie Murphy"])
        aggregate = result.aggregate_timings
        assert aggregate is not None
        # the sequential driver's wall clock covers every stage, so it
        # can never undercut the summed per-stage CPU time
        assert aggregate.wall_seconds >= aggregate.cpu_seconds > 0.0
        assert aggregate.total_seconds == aggregate.cpu_seconds
        # per-candidate timings never claim a wall measurement
        assert result.timings.wall_seconds == 0.0

    def test_accumulate_excludes_lookup_and_wall(self):
        total = DiscoveryTimings(lookup_seconds=1.0)
        other = DiscoveryTimings(
            lookup_seconds=5.0,
            context_seconds=2.0,
            wall_seconds=9.0,
        )
        total.accumulate(other)
        assert total.lookup_seconds == 1.0
        assert total.context_seconds == 2.0
        assert total.wall_seconds == 0.0
