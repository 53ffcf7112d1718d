"""Unit tests for derived-relation materialisation (the paper's Q6)."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core import discover_families
from repro.core.derived import _count_pairs, materialize, materialize_all
from repro.datasets import dblp, imdb
from repro.relational import ColumnType
from repro.sql import ColumnRef, JoinCondition, Op, Predicate, Query, TableRef, execute

from ..conftest import build_mini_movies_db
from .conftest import mini_movies_metadata


def derived_rows(db, name):
    relation = db.relation(name)
    return {
        (row[0], row[1]): row[2]
        for row in relation.rows()
    }


@pytest.fixture()
def materialized(mini_movies_db):
    result = discover_families(mini_movies_db, mini_movies_metadata())
    materialize_all(mini_movies_db, result.recipes)
    return mini_movies_db, result


class TestPersonToGenre:
    def test_counts_match_hand_computation(self, materialized):
        db, _ = materialized
        rows = derived_rows(db, "persontogenre")
        # Jim Carrey (1): Bruce Almighty (Comedy), Dumb and Dumber (Comedy),
        # Big Fish (Drama + Comedy) -> Comedy 3, Drama 1
        assert rows[(1, 1)] == 3  # (Jim Carrey, Comedy)
        assert rows[(1, 3)] == 1  # (Jim Carrey, Drama)
        # Eddie Murphy (2): Coming to America, Norbit -> Comedy 2
        assert rows[(2, 1)] == 2
        # Arnold (3): Predator -> Action 1
        assert rows[(3, 2)] == 1

    def test_no_zero_count_rows(self, materialized):
        db, _ = materialized
        relation = db.relation("persontogenre")
        assert all(count >= 1 for count in relation.column("count"))

    def test_pairs_without_association_absent(self, materialized):
        db, _ = materialized
        rows = derived_rows(db, "persontogenre")
        assert (3, 1) not in rows  # Arnold has no Comedy movies


class TestPersonToMovie:
    def test_entity_recipe_counts_fact_rows(self, materialized):
        db, _ = materialized
        rows = derived_rows(db, "persontomovie")
        assert rows[(1, 1)] == 1  # Jim Carrey in Bruce Almighty
        assert rows[(5, 7)] == 1  # Meryl Streep in The Hours
        assert (1, 5) not in rows


class TestMovieToPerson:
    def test_symmetric_orientation(self, materialized):
        db, _ = materialized
        rows = derived_rows(db, "movietoperson")
        assert rows[(8, 1)] == 1  # Big Fish features Jim Carrey
        assert rows[(8, 5)] == 1  # ... and Meryl Streep


class TestMidAttrRecipe:
    def test_person_to_movie_year(self, materialized):
        db, _ = materialized
        rows = derived_rows(db, "persontomovie_year")
        # Jim Carrey: 2003 (Bruce Almighty), 1994 (Dumb and Dumber), 2003 (Big Fish)
        assert rows[(1, 2003)] == 2
        assert rows[(1, 1994)] == 1


class TestRematerialize:
    def test_idempotent(self, materialized):
        db, result = materialized
        recipe = next(r for r in result.recipes if r.name == "persontogenre")
        before = derived_rows(db, "persontogenre")
        materialize(db, recipe)
        assert derived_rows(db, "persontogenre") == before


def sql_pair_counts(db, recipe) -> Counter:
    """The recipe as the interpreted engine's join, with count(*) per
    non-NULL (key, value) pair."""
    fact = recipe.fact_table
    tables = [TableRef(fact)]
    joins = []
    predicates = []
    if recipe.qualifier_col:
        predicates.append(
            Predicate(
                ColumnRef(fact, recipe.qualifier_col), Op.EQ, recipe.qualifier_value
            )
        )
    if recipe.kind == "entity":
        value = ColumnRef(fact, recipe.fact_mid_col)
    elif recipe.kind in ("mid_attr", "mid_fk"):
        tables.append(TableRef(recipe.mid_table))
        joins.append(
            JoinCondition(
                ColumnRef(fact, recipe.fact_mid_col),
                ColumnRef(recipe.mid_table, recipe.mid_key),
            )
        )
        value = ColumnRef(recipe.mid_table, recipe.mid_attr)
    else:
        second = recipe.second_fact_table
        tables.append(TableRef(second))
        joins.append(
            JoinCondition(
                ColumnRef(fact, recipe.fact_mid_col),
                ColumnRef(second, recipe.second_fact_mid_col),
            )
        )
        value = ColumnRef(second, recipe.second_fact_dim_col)
    query = Query(
        select=(ColumnRef(fact, recipe.fact_entity_col), value),
        tables=tuple(tables),
        joins=tuple(joins),
        predicates=tuple(predicates),
        distinct=False,
    )
    rows = execute(db, query).rows
    return Counter((k, v) for k, v in rows if k is not None and v is not None)


def null_movies_db():
    """The mini movie database plus NULLs and dangling references in every
    column a recipe reads."""
    db = build_mini_movies_db()
    db.insert("person", (7, "No Gender", None, None))
    db.insert("movie", (9, "No Year", None))
    for row in [
        (100, None, 1),  # NULL entity
        (101, 1, None),  # NULL mid
        (102, 2, 999),  # dangling mid
        (103, 7, 9),  # person without gender, movie without year/genre
        (104, 1, 9),
    ]:
        db.insert("castinfo", row)
    for row in [(100, 9, None), (101, None, 1), (102, 999, 2)]:
        db.insert("movietogenre", row)
    return db


DATASETS = {
    "imdb": (lambda: imdb.generate(imdb.ImdbSize.small()), imdb.metadata),
    "dblp": (lambda: dblp.generate(dblp.DblpSize.small()), dblp.metadata),
    "nulls": (null_movies_db, mini_movies_metadata),
}
PYTHON_TYPES = {ColumnType.INT: int, ColumnType.TEXT: str, ColumnType.FLOAT: float}


@pytest.fixture(scope="module", params=sorted(DATASETS))
def built(request):
    generate, metadata = DATASETS[request.param]
    db = generate()
    result = discover_families(db, metadata())
    materialize_all(db, result.recipes)
    return db, result.recipes


class TestEquivalenceWithSql:
    def test_chain_recipe_matches_q6_aggregation(self, materialized):
        """persontogenre must equal the paper's Q6 GROUP BY query."""
        db, _ = materialized
        query = Query(
            select=(
                ColumnRef("castinfo", "person_id"),
                ColumnRef("movietogenre", "genre_id"),
            ),
            tables=(TableRef("castinfo"), TableRef("movietogenre")),
            joins=(
                JoinCondition(
                    ColumnRef("castinfo", "movie_id"),
                    ColumnRef("movietogenre", "movie_id"),
                ),
            ),
            distinct=False,
        )
        result = execute(db, query)
        counts: dict = {}
        for person_id, genre_id in result.rows:
            counts[(person_id, genre_id)] = counts.get((person_id, genre_id), 0) + 1
        assert counts == derived_rows(db, "persontogenre")

    def test_every_recipe_matches_join_and_count(self, built):
        db, recipes = built
        assert recipes
        for recipe in recipes:
            rows = list(db.relation(recipe.name).rows())
            pairs = [(k, v) for k, v, _ in rows]
            assert len(set(pairs)) == len(pairs), recipe.name
            derived = Counter({(k, v): c for k, v, c in rows})
            assert derived == sql_pair_counts(db, recipe), recipe.name
            value_type = PYTHON_TYPES[recipe.value_ctype]
            for k, v, c in rows:
                assert (type(k), type(v), type(c)) == (int, value_type, int)
            if recipe.value_ctype is ColumnType.INT:
                assert pairs == sorted(pairs), recipe.name
            else:
                assert pairs == sorted(pairs, key=repr), recipe.name

    def test_recipe_kinds_covered(self):
        shapes = set()
        for name, (generate, metadata) in DATASETS.items():
            for recipe in discover_families(generate(), metadata()).recipes:
                shapes.add(
                    (recipe.kind, bool(recipe.qualifier_col), recipe.value_ctype)
                )
        INT, TEXT = ColumnType.INT, ColumnType.TEXT
        assert {
            ("entity", False, INT),
            ("entity", True, INT),
            ("mid_attr", False, INT),
            ("mid_attr", False, TEXT),
            ("mid_fk", False, INT),
            ("chain", False, INT),
        } <= shapes

    def test_null_scenario_drops_null_and_dangling_pairs(self):
        db = null_movies_db()
        result = discover_families(db, mini_movies_metadata())
        materialize_all(db, result.recipes)
        genre = derived_rows(db, "persontogenre")
        assert (1, 1) in genre and all(k is not None for k, _ in genre)
        assert not any(k == 7 for k, _ in genre)  # movie 9 has only a NULL genre
        assert (2, 999) in derived_rows(db, "persontomovie")
        assert not any(v == 999 for _, v in derived_rows(db, "persontomovie_year"))


class TestCountPairs:
    def columns(self, keys, values):
        return list(zip(*(col.tolist() for col in _count_pairs(keys, values))))

    def test_large_keys_do_not_overflow(self):
        keys = np.array([2**40, 2**40 + 1])
        values = np.array([0, 2**30])
        assert self.columns(keys, values) == [(2**40, 0, 1), (2**40 + 1, 2**30, 1)]

    def test_value_span_wider_than_int64(self):
        keys = np.array([1, 1, 2, 1])
        values = np.array([-(2**63), 2**70, -(2**63), 2**70], dtype=object)
        assert self.columns(keys, values) == [
            (1, -(2**63), 1),
            (1, 2**70, 2),
            (2, -(2**63), 1),
        ]

    def test_text_values_in_repr_order(self):
        keys = np.array([10, 2, 10, 2])
        values = np.array(["b", "a", "b", "c"], dtype=object)
        assert self.columns(keys, values) == [(10, "b", 2), (2, "a", 1), (2, "c", 1)]

    def test_empty(self):
        empty = np.empty(0, dtype=np.int64)
        assert self.columns(empty, empty) == []
