"""Tests for the extension features: disjunction (footnote 7),
incremental αDB maintenance, and example recommendation (§9)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    AbductionReadyDatabase,
    SquidConfig,
    SquidSystem,
    borderline_decisions,
    discover_contexts,
    recommend_examples,
)
from repro.core.statistics import CategoricalStats, DerivedStats, NumericStats
from repro.datasets import imdb
from repro.sql import Op, format_query


class TestDisjunction:
    def test_disabled_by_default(self, people_adb):
        # Tom Cruise (Male) + Julia Roberts (Female): no shared gender
        cs = discover_contexts(people_adb, "person", [1, 4])
        attrs = {c.prop.family.attribute for c in cs.contexts}
        assert "gender" not in attrs

    def test_enabled_produces_value_set(self, people_adb):
        config = SquidConfig(max_disjunction=2)
        cs = discover_contexts(people_adb, "person", [1, 4], config)
        gender = [
            (c, f)
            for c, f in zip(cs.contexts, cs.filters)
            if c.prop.family.attribute == "gender"
        ]
        (ctx, filt), = gender
        assert ctx.prop.value == frozenset({"Male", "Female"})
        # everyone is Male or Female: selectivity 1, full domain coverage
        assert filt.selectivity == pytest.approx(1.0)
        assert filt.domain_coverage == pytest.approx(1.0)

    def test_respects_cap(self, people_adb):
        config = SquidConfig(max_disjunction=2)
        # ages 50, 90, 29 -> three distinct genders impossible; use gender
        # family with 2 values, then artificially cap at < 2
        tight = SquidConfig(max_disjunction=0)
        cs = discover_contexts(people_adb, "person", [1, 4], tight)
        attrs = {c.prop.family.attribute for c in cs.contexts}
        assert "gender" not in attrs

    def test_single_shared_value_stays_eq(self, people_adb):
        config = SquidConfig(max_disjunction=4)
        cs = discover_contexts(people_adb, "person", [1, 2], config)
        gender = [
            c for c in cs.contexts if c.prop.family.attribute == "gender"
        ]
        (ctx,) = gender
        assert ctx.prop.value == "Male"  # no disjunction when EQ suffices

    def test_disjunction_renders_as_in_predicate(self, mini_adb):
        config = SquidConfig(max_disjunction=3, tau_a=2.0)
        # Jim Carrey (1962) + Meryl Streep (1949): genders differ
        cs = discover_contexts(mini_adb, "person", [1, 5], config)
        gender_filters = [
            f for f in cs.filters if f.family.attribute == "gender"
        ]
        assert gender_filters
        from repro.core.base_query import build_adb_query

        entity = mini_adb.metadata.entity("person")
        query = build_adb_query(mini_adb, entity, gender_filters)
        assert query.predicates[0].op is Op.IN
        text = format_query(query)
        assert "IN ('Female', 'Male')" in text

    def test_containment_preserved(self, mini_squid):
        config = mini_squid.config.with_overrides(max_disjunction=4)
        result = mini_squid.discover(
            ["Jim Carrey", "Meryl Streep"], config=config
        )
        names = set(mini_squid.result_values(result))
        assert {"Jim Carrey", "Meryl Streep"} <= names


class TestAdbRefresh:
    def test_refresh_after_insert_updates_derived(self, mini_adb):
        db = mini_adb.db
        # new comedy movie for Arnold (person 3)
        movie_id = 99
        db.insert("movie", (movie_id, "The Late Comedy", 2010))
        db.insert("castinfo", (999, 3, movie_id))
        db.insert("movietogenre", (999, movie_id, 1))
        report = mini_adb.refresh(["castinfo", "movietogenre", "movie"])
        assert report["rematerialized_relations"] > 0
        props = mini_adb.entity_properties(
            mini_adb.family("person", "genre"), 3
        )
        assert props.get(1) == 1.0  # Arnold now has one Comedy

    def test_refresh_updates_statistics(self, mini_adb):
        db = mini_adb.db
        before = mini_adb.statistics.get(
            mini_adb.family("person", "gender")
        ).selectivity("Female")
        db.insert("person", (100, "New Actress", "Female", 1990))
        mini_adb.refresh(["person"])
        after = mini_adb.statistics.get(
            mini_adb.family("person", "gender")
        ).selectivity("Female")
        assert after > before

    def test_refresh_updates_inverted_index(self, mini_adb):
        db = mini_adb.db
        db.insert("person", (101, "Brand New Star", "Male", 1985))
        mini_adb.refresh(["person"])
        postings = mini_adb.inverted.lookup("Brand New Star")
        assert len(postings) == 1

    def test_unrelated_change_is_cheap(self, mini_adb):
        report = mini_adb.refresh(["genre"])
        assert report["rematerialized_relations"] == 0

    def test_full_refresh(self, mini_adb):
        report = mini_adb.refresh()
        assert report["rematerialized_relations"] == len(
            mini_adb.discovery.recipes
        )
        assert report["recomputed_families"] == len(mini_adb.discovery.families)

    def test_discovery_works_after_refresh(self, mini_adb):
        from repro.core import SquidSystem

        db = mini_adb.db
        db.insert("person", (102, "Fresh Face", "Male", 1970))
        db.insert("castinfo", (1000, 102, 1))  # in Bruce Almighty
        mini_adb.refresh(["person", "castinfo"])
        squid = SquidSystem(mini_adb)
        result = squid.discover(["Fresh Face", "Jim Carrey"])
        assert set(result.entity_keys) == {102, 1}


def _mutate_imdb(db, tables) -> None:
    """Insert rows into each of ``tables`` (castinfo, the dimension fact
    movietogenre, the entity table movie).  One castinfo row gives an
    existing person a role they never held."""
    castinfo = db.relation("castinfo")
    held = set(zip(castinfo.column("person_id"), castinfo.column("role_id")))
    person, role = next(
        (p, r) for p in range(1, 50) for r in range(1, 9) if (p, r) not in held
    )
    movie = 5
    if "movie" in tables:
        movie = max(db.relation("movie").column("id")) + 1
        db.bulk_load("movie", [(movie, "A Fresh Release", 2021, 95, 1000, None)])
    if "castinfo" in tables:
        cast = max(castinfo.column("id")) + 1
        db.bulk_load(
            "castinfo",
            [(cast, 1, movie, 1), (cast + 1, 2, movie, 3), (cast + 2, person, 5, role)],
        )
    if "movietogenre" in tables:
        link = max(db.relation("movietogenre").column("id")) + 1
        db.bulk_load("movietogenre", [(link, movie, 1), (link + 1, 7, 2)])


def _assert_same_stats(got, want, label) -> None:
    assert type(got) is type(want), label
    assert got.entity_count == want.entity_count, label
    if isinstance(want, CategoricalStats):
        assert got.value_counts == want.value_counts, label
    elif isinstance(want, NumericStats):
        np.testing.assert_array_equal(got.sorted_values, want.sorted_values)
    else:
        assert isinstance(want, DerivedStats)
        assert list(got.strengths) == list(want.strengths), label
        for value, arr in want.strengths.items():
            assert got.strengths[value].dtype == arr.dtype, (label, value)
            np.testing.assert_array_equal(got.strengths[value], arr)


class TestRefreshMatchesBuild:
    @pytest.mark.parametrize(
        "changed",
        [["castinfo", "movietogenre", "movie"], ["movietogenre"], ["castinfo"]],
    )
    def test_refresh_equals_from_scratch_build(self, changed):
        size = imdb.ImdbSize.small()
        refreshed = AbductionReadyDatabase.build(imdb.generate(size), imdb.metadata())
        _mutate_imdb(refreshed.db, changed)
        report = refreshed.refresh(changed)
        assert report["rematerialized_relations"] > 0

        scratch_db = imdb.generate(size)
        _mutate_imdb(scratch_db, changed)
        scratch = AbductionReadyDatabase.build(scratch_db, imdb.metadata())

        names = [recipe.name for recipe in scratch.discovery.recipes]
        assert [recipe.name for recipe in refreshed.discovery.recipes] == names
        for name in names:
            got = list(refreshed.db.relation(name).rows())
            want = list(scratch.db.relation(name).rows())
            assert got == want, name
            assert [tuple(map(type, row)) for row in got] == [
                tuple(map(type, row)) for row in want
            ], name
        families = scratch.discovery.families
        assert [f.key for f in refreshed.discovery.families] == [f.key for f in families]
        for family in families:
            _assert_same_stats(
                refreshed.statistics.get(family), scratch.statistics.get(family), family.key
            )


class TestRecommendation:
    def test_borderline_detection(self, mini_squid):
        result = mini_squid.discover(["Jim Carrey", "Eddie Murphy"])
        borderline = borderline_decisions(result, factor=8.0)
        all_decisions = result.abduction.decisions
        assert len(borderline) <= len(all_decisions)

    def test_recommendations_come_from_result_set(self, mini_squid):
        result = mini_squid.discover(["Jim Carrey", "Eddie Murphy"])
        recs = recommend_examples(mini_squid, result, k=3)
        allowed = set(mini_squid.result_keys(result))
        for rec in recs:
            assert rec.entity_key in allowed
            assert rec.entity_key not in set(result.entity_keys)

    def test_recommendations_sorted_by_score(self, mini_squid):
        result = mini_squid.discover(["Jim Carrey", "Eddie Murphy"])
        recs = recommend_examples(mini_squid, result, k=5)
        scores = [rec.score for rec in recs]
        assert scores == sorted(scores, reverse=True)

    def test_recommendation_discriminates_borderline(self, people_adb):
        squid = SquidSystem(people_adb)
        # Tom Cruise + Tom Hanks share gender=Male (borderline: ψ = 0.5)
        result = squid.discover(["Tom Cruise", "Tom Hanks"])
        recs = recommend_examples(squid, result, k=5, borderline_factor=50.0)
        # any recommended female in the age range discriminates gender
        names = {rec.display for rec in recs}
        if names:
            assert all(rec.score > 0 for rec in recs)

    def test_k_limits_output(self, mini_squid):
        result = mini_squid.discover(["Jim Carrey", "Eddie Murphy"])
        recs = recommend_examples(mini_squid, result, k=1)
        assert len(recs) <= 1
