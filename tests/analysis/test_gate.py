"""AnalyzingBackend gate tests: rejection, memoization, stamp
invalidation, stats plumbing, and the create_backend / SquidConfig
wiring (wrap order ``CachingBackend(AnalyzingBackend(engine))``).
"""

from __future__ import annotations

import pytest

from repro.analysis import PlanVerificationError
from repro.analysis.gate import AnalyzingBackend
from repro.core import AdbMetadata, EntitySpec, SquidConfig, SquidSystem
from repro.relational.errors import QueryError
from repro.sql.ast import ColumnRef, JoinCondition, Op, Predicate, Query, TableRef
from repro.sql.engine import CachingBackend, create_backend
from repro.sql.engine.interpreted import InterpretedBackend


def col(table: str, column: str) -> ColumnRef:
    return ColumnRef(table, column)


def clean_query() -> Query:
    return Query(
        select=(col("a", "name"),),
        tables=(TableRef("academics", "a"), TableRef("research", "r")),
        joins=(JoinCondition(col("r", "aid"), col("a", "id")),),
        predicates=(
            Predicate(col("r", "interest"), Op.EQ, "data management"),
        ),
    )


def bad_query() -> Query:
    """Statically unsatisfiable: an empty id range (PLAN006)."""
    return Query(
        select=(col("a", "name"),),
        tables=(TableRef("academics", "a"),),
        predicates=(
            Predicate(col("a", "id"), Op.GE, 10),
            Predicate(col("a", "id"), Op.LE, 5),
        ),
    )


def warned_query() -> Query:
    """Cartesian product (PLAN005): a warning, never a rejection."""
    return Query(
        select=(col("a", "name"),),
        tables=(TableRef("academics", "a"), TableRef("research", "r")),
    )


def gate_over(db) -> AnalyzingBackend:
    return AnalyzingBackend(InterpretedBackend(db))


class TestGateBehaviour:
    def test_clean_query_passes_through(self, academics_db):
        gate = gate_over(academics_db)
        rows = gate.execute(clean_query()).rows
        assert ("Dan Suciu",) in rows

    def test_error_findings_reject_before_execution(self, academics_db):
        gate = gate_over(academics_db)
        with pytest.raises(PlanVerificationError) as exc:
            gate.execute(bad_query())
        assert any(d.code == "PLAN006" for d in exc.value.diagnostics)
        assert gate.stats()["analyze_rejected"] == 1

    def test_rejection_is_a_query_error(self, academics_db):
        # The serving tier's 400 path and the harness's error-parity
        # comparison both catch QueryError; gate rejections must flow
        # through the same channel as engine-raised validation failures.
        gate = gate_over(academics_db)
        with pytest.raises(QueryError):
            gate.execute(bad_query())

    def test_warnings_count_but_do_not_block(self, academics_db):
        gate = gate_over(academics_db)
        result = gate.execute(warned_query())
        assert len(result.rows) > 0
        stats = gate.stats()
        assert stats["analyze_warned"] == 1
        assert stats["analyze_rejected"] == 0

    def test_verdicts_memoize_per_stamp(self, academics_db):
        gate = gate_over(academics_db)
        gate.execute(clean_query())
        gate.execute(clean_query())
        stats = gate.stats()
        assert stats["analyze_checked"] == 1
        assert stats["analyze_memo_hits"] == 1

    def test_mutation_invalidates_the_verdict(self, academics_db):
        gate = gate_over(academics_db)
        gate.execute(clean_query())
        academics_db.insert("academics", (900, "New Hire"))
        gate.execute(clean_query())
        assert gate.stats()["analyze_checked"] == 2

    def test_unknown_table_rejects_on_every_call(self, academics_db):
        gate = gate_over(academics_db)
        query = Query(
            select=(col("x", "name"),), tables=(TableRef("nosuch", "x"),)
        )
        for _ in range(2):
            with pytest.raises(PlanVerificationError):
                gate.execute(query)
        # No stamp to memoize on: both calls re-verified.
        assert gate.stats()["analyze_checked"] == 2

    def test_close_clears_the_memo(self, academics_db):
        gate = gate_over(academics_db)
        gate.execute(clean_query())
        gate.close()
        assert len(gate._verdicts) == 0


class TestWiring:
    def test_create_backend_wraps_under_the_cache(self, academics_db):
        backend = create_backend(
            "vectorized", academics_db, cache_size=8, analyze=True
        )
        assert isinstance(backend, CachingBackend)
        assert isinstance(backend.inner, AnalyzingBackend)
        # The rollup exposes engine, gate, and cache counters together.
        backend.execute(clean_query())
        stats = backend.stats()
        assert stats["analyze_checked"] == 1
        assert "cache_hits" in stats
        assert "vectorized_blocks" in stats

    def test_create_backend_analyze_off_by_default(self, academics_db):
        backend = create_backend("vectorized", academics_db)
        assert not isinstance(backend, AnalyzingBackend)

    def test_cache_hits_skip_reverification(self, academics_db):
        backend = create_backend(
            "vectorized", academics_db, cache_size=8, analyze=True
        )
        backend.execute(clean_query())
        backend.execute(clean_query())
        stats = backend.stats()
        assert stats["cache_hits"] == 1
        # The second call never reached the gate at all.
        assert stats["analyze_checked"] == 1
        assert stats["analyze_memo_hits"] == 0

    def test_squid_system_runs_behind_the_gate(self, academics_db):
        metadata = AdbMetadata(
            entities=[EntitySpec("academics", "id", "name")],
            property_attributes={"research": ["interest"]},
        )
        squid = SquidSystem.build(
            academics_db, metadata, SquidConfig(analyze=True)
        )
        result = squid.discover(["Dan Suciu", "Sam Madden"])
        keys = squid.result_keys(result)
        assert {101, 103} <= keys
        stats = squid.backend_stats()
        assert stats["analyze_checked"] > 0
        assert stats["analyze_rejected"] == 0

    def test_config_default_is_off(self):
        assert SquidConfig().analyze is False
