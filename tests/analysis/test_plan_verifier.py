"""Plan-verifier unit tests: one positive and one negative case per
PLAN code (the code catalog is a public contract — see docs/analysis.md).

All cases run on the Figure 1 academics database from the shared
conftest.
"""

from __future__ import annotations

from repro.analysis import PLAN_CODES, Severity, errors_of, verify_query
from repro.analysis.plan import RETIRED_PLAN_CODES, SQLITE_MAX_JOIN_TABLES
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


def col(table: str, column: str) -> ColumnRef:
    return ColumnRef(table, column)


def base_query(**overrides) -> Query:
    """A clean two-table join over the academics schema."""
    fields = dict(
        select=(col("a", "name"),),
        tables=(TableRef("academics", "a"), TableRef("research", "r")),
        joins=(JoinCondition(col("r", "aid"), col("a", "id")),),
        predicates=(
            Predicate(col("r", "interest"), Op.EQ, "data management"),
        ),
    )
    fields.update(overrides)
    return Query(**fields)


def codes(diagnostics) -> set:
    return {d.code for d in diagnostics}


def test_code_catalog_is_stable():
    assert RETIRED_PLAN_CODES == ("PLAN007",)
    assert PLAN_CODES == tuple(
        f"PLAN{i:03d}" for i in range(1, 11) if i != 7
    )


def test_clean_query_verifies_clean(academics_db):
    assert verify_query(academics_db, base_query()) == []


# -- PLAN001: unknown table ---------------------------------------------
def test_plan001_unknown_table_fires(academics_db):
    query = Query(
        select=(col("x", "name"),), tables=(TableRef("nosuch", "x"),)
    )
    diags = verify_query(academics_db, query)
    assert codes(diags) == {"PLAN001"}
    assert diags[0].is_error
    assert diags[0].span == "tables[0]"


def test_plan001_known_tables_clean(academics_db):
    assert verify_query(academics_db, base_query()) == []


# -- PLAN002: unknown column --------------------------------------------
def test_plan002_unknown_column_fires(academics_db):
    query = base_query(
        predicates=(Predicate(col("a", "nope"), Op.EQ, "x"),)
    )
    diags = verify_query(academics_db, query)
    assert codes(diags) == {"PLAN002"}
    assert "no column 'nope'" in diags[0].message


def test_plan002_known_columns_clean(academics_db):
    query = base_query(
        select=(col("a", "name"), col("r", "interest"))
    )
    assert verify_query(academics_db, query) == []


# -- PLAN003: join type compatibility -----------------------------------
def test_plan003_text_int_join_fires(academics_db):
    query = base_query(
        joins=(JoinCondition(col("a", "name"), col("r", "aid")),)
    )
    diags = verify_query(academics_db, query)
    assert codes(diags) == {"PLAN003"}
    assert "text" in diags[0].message and "int" in diags[0].message


def test_plan003_int_int_join_clean(academics_db):
    assert verify_query(academics_db, base_query()) == []


# -- PLAN004: predicate value types -------------------------------------
def test_plan004_int_on_text_fires(academics_db):
    query = base_query(
        predicates=(Predicate(col("a", "name"), Op.GE, 5),)
    )
    diags = verify_query(academics_db, query)
    assert codes(diags) == {"PLAN004"}


def test_plan004_bool_is_not_an_int(academics_db):
    query = base_query(
        predicates=(Predicate(col("a", "id"), Op.EQ, True),)
    )
    assert codes(verify_query(academics_db, query)) == {"PLAN004"}


def test_plan004_matching_types_clean(academics_db):
    query = base_query(
        predicates=(
            Predicate(col("a", "id"), Op.BETWEEN, (100, 105)),
            Predicate(
                col("r", "interest"),
                Op.IN,
                frozenset({"algorithms", "data mining"}),
            ),
        )
    )
    assert verify_query(academics_db, query) == []


# -- PLAN005: join-graph connectivity -----------------------------------
def test_plan005_cartesian_block_warns(academics_db):
    query = base_query(joins=())
    diags = verify_query(academics_db, query)
    assert codes(diags) == {"PLAN005"}
    assert diags[0].severity is Severity.WARNING
    assert errors_of(diags) == []


def test_plan005_connected_block_clean(academics_db):
    assert verify_query(academics_db, base_query()) == []


# -- PLAN006: unsatisfiable conjunctions --------------------------------
def test_plan006_empty_range_fires(academics_db):
    query = base_query(
        predicates=(
            Predicate(col("a", "id"), Op.GE, 10),
            Predicate(col("a", "id"), Op.LE, 5),
        )
    )
    diags = verify_query(academics_db, query)
    assert codes(diags) == {"PLAN006"}
    assert "empty range" in diags[0].message


def test_plan006_conflicting_equalities_fire(academics_db):
    query = base_query(
        predicates=(
            Predicate(col("a", "id"), Op.EQ, 1),
            Predicate(col("a", "id"), Op.EQ, 2),
        )
    )
    assert codes(verify_query(academics_db, query)) == {"PLAN006"}


def test_plan006_impossible_having_fires(academics_db):
    query = base_query(
        select=(col("a", "id"),),
        group_by=(col("a", "id"),),
        having=HavingCount(Op.LE, 0),
    )
    diags = verify_query(academics_db, query)
    assert codes(diags) == {"PLAN006"}
    assert diags[0].span == "having"


def test_plan006_satisfiable_conjunction_clean(academics_db):
    query = base_query(
        predicates=(
            Predicate(col("a", "id"), Op.GE, 100),
            Predicate(col("a", "id"), Op.LE, 105),
            Predicate(col("a", "id"), Op.EQ, 103),
        )
    )
    assert verify_query(academics_db, query) == []


# -- PLAN007: retired ----------------------------------------------------
def test_plan007_is_retired(academics_db):
    # Data-dependent emptiness (an absent value, an out-of-range bound)
    # is not a plan defect: the verifier stays silent on both.
    for predicate in (
        Predicate(col("a", "name"), Op.EQ, "Nobody Atall"),
        Predicate(col("a", "id"), Op.GE, 10_000),
    ):
        query = base_query(predicates=(predicate,))
        assert verify_query(academics_db, query) == []


# -- PLAN008: SQLite join-width hazard ----------------------------------
def _star(width: int) -> Query:
    tables = tuple(TableRef("academics", f"t{i}") for i in range(width))
    joins = tuple(
        JoinCondition(col(f"t{i}", "id"), col(f"t{i + 1}", "id"))
        for i in range(width - 1)
    )
    return Query(select=(col("t0", "name"),), tables=tables, joins=joins)


def test_plan008_wide_block_warns(academics_db):
    diags = verify_query(academics_db, _star(SQLITE_MAX_JOIN_TABLES + 1))
    assert codes(diags) == {"PLAN008"}
    assert errors_of(diags) == []


def test_plan008_at_the_limit_clean(academics_db):
    assert verify_query(academics_db, _star(SQLITE_MAX_JOIN_TABLES)) == []


# -- PLAN009: GROUP BY projection shape ---------------------------------
def test_plan009_undetermined_projection_fires(academics_db):
    query = base_query(
        select=(col("r", "interest"),),
        group_by=(col("a", "name"),),
    )
    diags = verify_query(academics_db, query)
    assert codes(diags) == {"PLAN009"}
    assert "engine-defined" in diags[0].message


def test_plan009_primary_key_determines_the_row(academics_db):
    # Grouping by the alias's PK functionally determines every column of
    # that alias — the checked-in workloads' keyed queries rely on this.
    query = base_query(
        select=(col("a", "id"), col("a", "name")),
        group_by=(col("a", "id"),),
        having=HavingCount(Op.GE, 2),
    )
    assert verify_query(academics_db, query) == []


# -- PLAN010: INTERSECT column types ------------------------------------
def test_plan010_mismatched_intersect_fires(academics_db):
    blocks = (
        base_query(select=(col("a", "id"),)),
        base_query(select=(col("a", "name"),)),
    )
    diags = verify_query(academics_db, IntersectQuery(blocks))
    assert codes(diags) == {"PLAN010"}
    assert diags[0].span == "blocks[1].select[0]"


def test_plan010_compatible_intersect_clean(academics_db):
    blocks = (
        base_query(select=(col("a", "id"),)),
        base_query(select=(col("r", "aid"),)),
    )
    assert verify_query(academics_db, IntersectQuery(blocks)) == []


def test_intersect_spans_carry_block_prefixes(academics_db):
    blocks = (
        base_query(),
        base_query(
            predicates=(Predicate(col("a", "nope"), Op.EQ, "x"),)
        ),
    )
    diags = verify_query(academics_db, IntersectQuery(blocks))
    assert [d.code for d in diags] == ["PLAN002"]
    assert diags[0].span.startswith("blocks[1].")
