"""Edge-case battery: hand-built pathological relations run through all
four engines (byte-identity) and the parser/formatter round-trip.

Covers the shapes fuzzing is least likely to hit by chance: empty
tables, single-row relations, all-NULL columns, duplicate rows under
DISTINCT and GROUP BY, and >64-alias stars that force the sqlite
backend onto its chained-CTE path.
"""

from __future__ import annotations

import pytest

from repro.relational import (
    ColumnDef,
    ColumnType,
    Database,
    ForeignKey,
    TableSchema,
)
from repro.sql import format_query, parse_query
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
from repro.sql.engine.sqlite import MAX_JOIN_TABLES
from repro.synth import (
    canonical_result,
    default_scenario_config,
    generate_scenario,
)
from repro.synth.harness import ENGINE_ORDER, REFERENCE_ENGINE

INT, TEXT = ColumnType.INT, ColumnType.TEXT


def assert_engines_agree(db: Database, query) -> bytes:
    """All four engine routes must return byte-identical results."""
    reference = create_backend(REFERENCE_ENGINE, db).execute(query)
    expected = canonical_result(reference)
    for name in ENGINE_ORDER[1:]:
        got = canonical_result(create_backend(name, db).execute(query))
        assert got == expected, f"{name} diverges on {format_query(query)}"
    return expected


def entity_query(*predicates, group=False, having=None) -> Query:
    return Query(
        select=(ColumnRef("e", "id"), ColumnRef("e", "name")),
        tables=(TableRef("person", "e"),),
        joins=(),
        predicates=tuple(predicates),
        group_by=(ColumnRef("e", "id"),) if group else (),
        having=having,
        distinct=not group,
    )


def make_person_db(rows) -> Database:
    db = Database("edge")
    db.create_table(
        TableSchema(
            "person",
            [
                ColumnDef("id", INT, nullable=False),
                ColumnDef("name", TEXT),
                ColumnDef("age", INT),
            ],
            primary_key="id",
        )
    )
    for row in rows:
        db.insert("person", row)
    return db


class TestEmptyAndTiny:
    def test_empty_table(self):
        db = make_person_db([])
        result = assert_engines_agree(db, entity_query())
        assert b"()" in result or result  # empty but well-formed

    def test_empty_table_with_predicates_and_having(self):
        db = make_person_db([])
        assert_engines_agree(
            db, entity_query(Predicate(ColumnRef("e", "age"), Op.GE, 1))
        )
        assert_engines_agree(
            db, entity_query(group=True, having=HavingCount(Op.GE, 1))
        )

    def test_single_row_relation(self):
        db = make_person_db([(1, "Solo", 42)])
        assert_engines_agree(db, entity_query())
        assert_engines_agree(
            db,
            entity_query(Predicate(ColumnRef("e", "age"), Op.BETWEEN, (40, 44))),
        )

    def test_single_row_join(self):
        db = Database("edge")
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
        db.insert("person", (1, "Solo"))
        db.insert("fact", (1, 1, "t"))
        query = Query(
            select=(ColumnRef("e", "name"),),
            tables=(TableRef("person", "e"), TableRef("fact", "f")),
            joins=(JoinCondition(ColumnRef("f", "pid"), ColumnRef("e", "id")),),
            predicates=(Predicate(ColumnRef("f", "tag"), Op.EQ, "t"),),
        )
        assert_engines_agree(db, query)


class TestNulls:
    def test_all_null_column(self):
        db = make_person_db([(i, f"P{i}", None) for i in range(1, 6)])
        # predicates over the NULL column match nothing, everywhere
        for op, value in ((Op.EQ, 3), (Op.GE, 0), (Op.BETWEEN, (0, 99))):
            result = assert_engines_agree(
                db, entity_query(Predicate(ColumnRef("e", "age"), op, value))
            )
            assert b"P1" not in result
        # while an unfiltered scan still returns every row
        assert b"P1" in assert_engines_agree(db, entity_query())

    def test_null_display_values(self):
        db = make_person_db([(1, None, 10), (2, "B", None), (3, None, 30)])
        assert_engines_agree(db, entity_query())
        assert_engines_agree(
            db, entity_query(Predicate(ColumnRef("e", "age"), Op.GE, 5))
        )


class TestDuplicates:
    @pytest.fixture()
    def dup_db(self):
        # duplicate (name, age) payloads behind distinct primary keys
        return make_person_db(
            [(1, "Dup", 9), (2, "Dup", 9), (3, "Dup", 9), (4, "Solo", 1)]
        )

    def test_distinct_on_duplicate_display(self, dup_db):
        query = Query(
            select=(ColumnRef("e", "name"),),
            tables=(TableRef("person", "e"),),
            joins=(),
            predicates=(),
            distinct=True,
        )
        result = assert_engines_agree(dup_db, query)
        assert result.count(b"Dup") == 1

    def test_group_by_counts_duplicates(self, dup_db):
        query = Query(
            select=(ColumnRef("e", "name"),),
            tables=(TableRef("person", "e"),),
            joins=(),
            predicates=(),
            group_by=(ColumnRef("e", "name"),),
            having=HavingCount(Op.GE, 3),
            distinct=False,
        )
        result = assert_engines_agree(dup_db, query)
        assert b"Dup" in result and b"Solo" not in result


class TestWideStars:
    """>64 aliases: sqlite must take the chained-CTE path and still agree
    with every other engine byte for byte."""

    @pytest.fixture(scope="class")
    def star_db(self):
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
        for pid in range(1, 9):
            db.insert("person", (pid, f"P{pid:02d}"))
            for tag in range(1 + pid % 4):
                fact_id += 1
                db.insert("fact", (fact_id, pid, f"t{tag}"))
        return db

    @staticmethod
    def star_query(num_aliases: int) -> Query:
        tables = [TableRef("person", "e")]
        joins, predicates = [], []
        for i in range(num_aliases):
            alias = f"f{i}"
            tables.append(TableRef("fact", alias))
            joins.append(
                JoinCondition(ColumnRef(alias, "pid"), ColumnRef("e", "id"))
            )
            predicates.append(
                Predicate(ColumnRef(alias, "tag"), Op.EQ, f"t{i % 4}")
            )
        return Query(
            select=(ColumnRef("e", "name"),),
            tables=tuple(tables),
            joins=tuple(joins),
            predicates=tuple(predicates),
        )

    def test_wide_star_all_engines(self, star_db):
        query = self.star_query(MAX_JOIN_TABLES + 6)
        assert_engines_agree(star_db, query)

    def test_intersect_with_wide_block_all_engines(self, star_db):
        query = IntersectQuery(
            (self.star_query(MAX_JOIN_TABLES + 6), self.star_query(2))
        )
        assert_engines_agree(star_db, query)

    def test_wide_star_round_trips(self):
        query = self.star_query(70)
        assert parse_query(format_query(query)) == query


class TestGeneratedQueriesRoundTrip:
    """Every sampled intent query must survive format → parse — the
    synthetic corpus doubles as a parser/formatter battery."""

    @pytest.mark.parametrize("seed", range(6))
    def test_intent_queries_round_trip(self, seed):
        scenario = generate_scenario(default_scenario_config(seed))
        for intent in scenario.intents:
            assert parse_query(format_query(intent.query)) == intent.query
