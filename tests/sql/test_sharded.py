"""The sharded engine: forced fan-out equivalence, merge semantics,
stamped state invalidation and pool lifecycle.

``shard_min_rows=0`` forces every multi-alias block through the
partition-parallel path regardless of size, so these tests exercise the
fork pool (where available), the partial-aggregate merge, and the
parent's stamped per-query state cache on the same wide-star shapes the
abduced queries take — pinned byte-identical to the single-process
vectorized engine and set-identical to the interpreted reference.
"""

from __future__ import annotations

import pytest

from repro.parallel import fork_available
from repro.relational import (
    ColumnDef,
    ColumnType,
    Database,
    ForeignKey,
    TableSchema,
)
from repro.sql.ast import (
    ColumnRef,
    HavingCount,
    IntersectQuery,
    JoinCondition,
    Op,
    Predicate,
    Query,
    TableRef,
)
from repro.sql.engine import create_backend
from repro.sql.engine.sharded import ShardedVectorizedBackend

INT, TEXT = ColumnType.INT, ColumnType.TEXT

PERSONS = 12
TAGS = 6


def build_star_db() -> Database:
    """person ⟕ fact star; person ``p`` carries tags ``t0..t_{p%TAGS}``."""
    db = Database("star")
    db.create_table(
        TableSchema(
            "person",
            [ColumnDef("id", INT, nullable=False), ColumnDef("name", TEXT)],
            primary_key="id",
        )
    )
    db.create_table(
        TableSchema(
            "fact",
            [
                ColumnDef("id", INT, nullable=False),
                ColumnDef("pid", INT),
                ColumnDef("tag", TEXT),
            ],
            primary_key="id",
            foreign_keys=[ForeignKey("pid", "person", "id")],
        )
    )
    fact_id = 0
    for pid in range(1, PERSONS + 1):
        db.insert("person", (pid, f"P{pid:02d}"))
        for tag in range(1 + pid % TAGS):
            fact_id += 1
            db.insert("fact", (fact_id, pid, f"t{tag}"))
    return db


def star_query(num_aliases: int, having=None, group=False, distinct=True) -> Query:
    """The abduced shape: every alias joins back to the entity key."""
    tables = [TableRef("person")]
    joins, predicates = [], []
    for i in range(num_aliases):
        alias = f"fact_{i}"
        tables.append(TableRef("fact", alias))
        joins.append(
            JoinCondition(ColumnRef(alias, "pid"), ColumnRef("person", "id"))
        )
        predicates.append(
            Predicate(ColumnRef(alias, "tag"), Op.EQ, f"t{i % TAGS}")
        )
    return Query(
        select=(ColumnRef("person", "name"),),
        tables=tuple(tables),
        joins=tuple(joins),
        predicates=tuple(predicates),
        group_by=(ColumnRef("person", "id"),) if group else (),
        having=having,
        distinct=distinct and not group,
    )


@pytest.fixture()
def star_db():
    return build_star_db()


@pytest.fixture()
def forced(star_db):
    """Sharded backend with fan-out forced on for every block."""
    backend = ShardedVectorizedBackend(star_db, shards=3, shard_min_rows=0)
    yield backend
    backend.close()


@pytest.fixture()
def vectorized(star_db):
    return create_backend("vectorized", star_db)


class TestForcedFanOut:
    @pytest.mark.parametrize("num_aliases", [2, 5, 20])
    def test_star_byte_identical_to_vectorized(
        self, forced, vectorized, star_db, num_aliases
    ):
        query = star_query(num_aliases)
        expected = vectorized.execute(query)
        actual = forced.execute(query)
        assert actual.columns == expected.columns
        assert actual.rows == expected.rows  # order included
        interpreted = create_backend("interpreted", star_db)
        assert actual.as_set() == interpreted.execute(query).as_set()

    def test_bag_semantics_survive_merge(self, forced, vectorized):
        query = star_query(4, distinct=False)
        assert forced.execute(query).rows == vectorized.execute(query).rows

    @pytest.mark.parametrize("threshold", [1, 3])
    def test_group_by_having_merges_partial_counts(
        self, forced, vectorized, threshold
    ):
        query = star_query(5, having=HavingCount(Op.GE, threshold), group=True)
        assert forced.execute(query).rows == vectorized.execute(query).rows

    def test_intersect_with_wide_block(self, forced, vectorized):
        query = IntersectQuery((star_query(8), star_query(2)))
        assert forced.execute(query).rows == vectorized.execute(query).rows

    def test_counters_track_fanout(self, forced):
        forced.execute(star_query(8))
        stats = forced.stats()
        assert stats["sharded_blocks"] == 1
        assert stats["single_blocks"] == 0
        assert stats["shards_launched"] >= 2
        assert stats["shard_workers"] == 3
        if fork_available():
            assert stats["pool_starts"] == 1

    def test_repeat_execution_hits_state_cache(self, forced):
        query = star_query(6)
        first = forced.execute(query).rows
        assert forced.execute(query).rows == first
        assert forced.stats()["state_hits"] >= 1

    def test_mutation_invalidates_state_and_pool(self, forced, star_db):
        query = star_query(2)
        before = forced.execute(query).rows
        # P13 gets facts for both of the query's tags: a brand-new row.
        star_db.insert("person", (13, "P13"))
        star_db.insert("fact", (900, 13, "t0"))
        star_db.insert("fact", (901, 13, "t1"))
        after = forced.execute(query)
        assert ("P13",) in after.rows
        assert len(after.rows) == len(before) + 1
        fresh = create_backend("vectorized", star_db)
        assert after.rows == fresh.execute(query).rows
        if fork_available():
            assert forced.stats()["pool_restarts"] >= 1

    def test_small_blocks_keep_single_process_path(self, star_db, vectorized):
        backend = ShardedVectorizedBackend(
            star_db, shards=3, shard_min_rows=10**9
        )
        query = star_query(5)
        assert backend.execute(query).rows == vectorized.execute(query).rows
        stats = backend.stats()
        assert stats["single_blocks"] == 1
        assert stats["sharded_blocks"] == 0
        backend.close()

    def test_invalid_shard_settings_rejected(self, star_db):
        with pytest.raises(ValueError):
            ShardedVectorizedBackend(star_db, shards=-1)
        with pytest.raises(ValueError):
            ShardedVectorizedBackend(star_db, shard_min_rows=-1)
