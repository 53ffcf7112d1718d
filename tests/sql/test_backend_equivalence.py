"""Cross-backend equivalence: all engines must return identical results.

A fixed suite of SPJ / SPJA / intersect queries runs on every registered
backend over the shared fixture databases; result sets must match the
interpreted reference engine exactly.  A hypothesis sweep additionally
checks the vectorized and SQLite engines against the brute-force oracle
on randomised databases containing NULLs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational import ColumnDef, ColumnType, Database, ForeignKey, TableSchema
from repro.sql import (
    BACKENDS,
    ColumnRef,
    HavingCount,
    IntersectQuery,
    JoinCondition,
    Op,
    Predicate,
    Query,
    TableRef,
    available_backends,
    create_backend,
)
from repro.sql.engine.interpreted import InterpretedBackend
from repro.sql.reference import execute_reference

INT = ColumnType.INT
TEXT = ColumnType.TEXT

BACKEND_NAMES = available_backends()


def _ref(alias, column):
    return ColumnRef(alias, column)


def suite_queries():
    """SPJ / SPJAI queries with known behaviour over mini_movies_db."""
    person = TableRef("person", "p")
    movie = TableRef("movie", "m")
    cast = TableRef("castinfo", "c")
    mtg = TableRef("movietogenre", "mg")
    genre = TableRef("genre", "g")
    cast_join = JoinCondition(_ref("c", "person_id"), _ref("p", "id"))
    movie_join = JoinCondition(_ref("c", "movie_id"), _ref("m", "id"))
    genre_movie_join = JoinCondition(_ref("mg", "movie_id"), _ref("m", "id"))
    genre_join = JoinCondition(_ref("mg", "genre_id"), _ref("g", "id"))
    return [
        # projection only
        Query(select=(_ref("p", "name"),), tables=(person,)),
        # single-table selections: EQ, ranges, IN, conjunctions
        Query(
            select=(_ref("p", "name"),),
            tables=(person,),
            predicates=(Predicate(_ref("p", "gender"), Op.EQ, "Male"),),
        ),
        Query(
            select=(_ref("p", "id"), _ref("p", "name")),
            tables=(person,),
            predicates=(Predicate(_ref("p", "birth_year"), Op.GE, 1950),),
        ),
        Query(
            select=(_ref("p", "name"),),
            tables=(person,),
            predicates=(
                Predicate(_ref("p", "birth_year"), Op.BETWEEN, (1946, 1961)),
                Predicate(_ref("p", "gender"), Op.EQ, "Male"),
            ),
        ),
        Query(
            select=(_ref("p", "name"),),
            tables=(person,),
            predicates=(
                Predicate(
                    _ref("p", "name"),
                    Op.IN,
                    frozenset(["Jim Carrey", "Meryl Streep", "Nobody"]),
                ),
            ),
        ),
        # empty result
        Query(
            select=(_ref("p", "name"),),
            tables=(person,),
            predicates=(Predicate(_ref("p", "gender"), Op.EQ, "Unknown"),),
        ),
        # two-way and five-way joins
        Query(
            select=(_ref("p", "name"), _ref("m", "title")),
            tables=(person, cast, movie),
            joins=(cast_join, movie_join),
        ),
        Query(
            select=(_ref("p", "name"), _ref("g", "name")),
            tables=(person, cast, movie, mtg, genre),
            joins=(cast_join, movie_join, genre_movie_join, genre_join),
            predicates=(Predicate(_ref("g", "name"), Op.EQ, "Comedy"),),
        ),
        # cross product (no join condition)
        Query(
            select=(_ref("g", "name"), _ref("p", "gender")),
            tables=(genre, person),
        ),
        # aggregation with HAVING
        Query(
            select=(_ref("p", "id"),),
            tables=(person, cast),
            joins=(cast_join,),
            group_by=(_ref("p", "id"),),
            having=HavingCount(Op.GE, 2),
        ),
        Query(
            select=(_ref("p", "id"), _ref("p", "name")),
            tables=(person, cast),
            joins=(cast_join,),
            group_by=(_ref("p", "id"), _ref("p", "name")),
            having=HavingCount(Op.EQ, 1),
        ),
        # intersect of aggregate blocks (the paper's SPJAI form)
        IntersectQuery(
            (
                Query(
                    select=(_ref("p", "id"),),
                    tables=(person, cast),
                    joins=(cast_join,),
                    group_by=(_ref("p", "id"),),
                    having=HavingCount(Op.GE, 1),
                ),
                Query(
                    select=(_ref("p", "id"),),
                    tables=(person,),
                    predicates=(Predicate(_ref("p", "gender"), Op.EQ, "Male"),),
                ),
            )
        ),
        # non-distinct projection
        Query(
            select=(_ref("g", "name"),),
            tables=(mtg, genre),
            joins=(genre_join,),
            distinct=False,
        ),
    ]


class TestBackendEquivalence:
    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    def test_suite_matches_interpreted(self, backend_name, mini_movies_db):
        reference = InterpretedBackend(mini_movies_db)
        backend = create_backend(backend_name, mini_movies_db)
        for query in suite_queries():
            expected = reference.execute(query)
            actual = backend.execute(query)
            assert actual.columns == expected.columns
            assert actual.as_set() == expected.as_set(), query
            if not getattr(query, "distinct", True):
                # multiset semantics: row counts must also agree
                assert len(actual) == len(expected)

    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    def test_results_reflect_mutations(self, backend_name, people_db):
        backend = create_backend(backend_name, people_db)
        query = Query(
            select=(_ref("person", "name"),),
            tables=(TableRef("person"),),
            predicates=(Predicate(_ref("person", "gender"), Op.EQ, "Female"),),
        )
        before = len(backend.execute(query))
        people_db.insert("person", (100, "Ada Lovelace", "Female", 36))
        after = len(backend.execute(query))
        assert after == before + 1

    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    def test_type_mismatched_constants(self, backend_name, people_db):
        """SQLite affinity must not coerce '50' to match an INT column,
        and mixed-type IN lists keep Python equality semantics."""
        backend = create_backend(backend_name, people_db)
        string_on_int = Query(
            select=(_ref("person", "name"),),
            tables=(TableRef("person"),),
            predicates=(Predicate(_ref("person", "age"), Op.EQ, "50"),),
        )
        assert len(backend.execute(string_on_int)) == 0
        mixed_in = Query(
            select=(_ref("person", "name"),),
            tables=(TableRef("person"),),
            predicates=(
                Predicate(
                    _ref("person", "age"), Op.IN, frozenset([50, "60"])
                ),
            ),
        )
        assert backend.execute(mixed_in).as_set() == {
            ("Tom Cruise",),
            ("Julia Roberts",),
        }

    def test_all_backends_registered(self):
        assert set(BACKENDS) == {
            "interpreted",
            "vectorized",
            "sqlite",
            "sharded",
        }


# ----------------------------------------------------------------------
# randomized differential testing against the brute-force oracle
# ----------------------------------------------------------------------

def build_db(parents, children):
    """parent(id, tag, score) and child(id, parent_id, label) with NULLs."""
    db = Database("prop")
    db.create_table(
        TableSchema(
            "parent",
            [
                ColumnDef("id", INT, nullable=False),
                ColumnDef("tag", TEXT),
                ColumnDef("score", INT),
            ],
            primary_key="id",
        )
    )
    db.create_table(
        TableSchema(
            "child",
            [
                ColumnDef("id", INT, nullable=False),
                ColumnDef("parent_id", INT),
                ColumnDef("label", TEXT),
            ],
            primary_key="id",
            foreign_keys=[ForeignKey("parent_id", "parent", "id")],
        )
    )
    db.bulk_load(
        "parent", [(i, tag, score) for i, (tag, score) in enumerate(parents)]
    )
    db.bulk_load(
        "child",
        [
            (
                i,
                None if pid is None else pid % max(1, len(parents)),
                label,
            )
            for i, (pid, label) in enumerate(children)
        ],
    )
    return db


parents_strategy = st.lists(
    st.tuples(
        st.one_of(st.none(), st.sampled_from(["a", "b", "c"])),
        st.one_of(st.none(), st.integers(0, 9)),
    ),
    min_size=1,
    max_size=6,
)
children_strategy = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(0, 5)),
        st.sampled_from(["x", "y", "z"]),
    ),
    max_size=8,
)


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("backend_name", ["vectorized", "sqlite"])
    @given(parents=parents_strategy, children=children_strategy)
    @settings(max_examples=40, deadline=None)
    def test_join_with_nulls(self, backend_name, parents, children):
        db = build_db(parents, children)
        query = Query(
            select=(_ref("parent", "tag"), _ref("child", "label")),
            tables=(TableRef("parent"), TableRef("child")),
            joins=(
                JoinCondition(_ref("child", "parent_id"), _ref("parent", "id")),
            ),
        )
        backend = create_backend(backend_name, db)
        assert backend.execute(query).as_set() == execute_reference(db, query).as_set()

    @pytest.mark.parametrize("backend_name", ["vectorized", "sqlite"])
    @given(
        parents=parents_strategy,
        low=st.integers(0, 9),
        high=st.integers(0, 9),
        threshold=st.integers(1, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_aggregate_with_nulls(self, backend_name, parents, low, high, threshold):
        db = build_db(parents, [(i, "x") for i in range(4)])
        lo, hi = min(low, high), max(low, high)
        query = Query(
            select=(_ref("parent", "id"),),
            tables=(TableRef("parent"), TableRef("child")),
            joins=(
                JoinCondition(_ref("child", "parent_id"), _ref("parent", "id")),
            ),
            predicates=(
                Predicate(_ref("parent", "score"), Op.BETWEEN, (lo, hi)),
            ),
            group_by=(_ref("parent", "id"),),
            having=HavingCount(Op.GE, threshold),
        )
        backend = create_backend(backend_name, db)
        assert backend.execute(query).as_set() == execute_reference(db, query).as_set()
