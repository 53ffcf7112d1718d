"""Tests for query construction from abduced filters (Q4/Q5 forms)."""

from __future__ import annotations

import pytest

from repro.core import SquidConfig, discover_contexts
from repro.core.base_query import (
    _AliasAllocator,
    build_adb_query,
    build_base_query,
    build_original_query,
)
from repro.sql import IntersectQuery, Op, Query, execute, format_query


def filters_for(adb, entity, keys, attrs, config=None):
    """Pick the discovered filters with the given attribute labels."""
    cs = discover_contexts(adb, entity, keys, config)
    by_attr = {}
    for filt in cs.filters:
        by_attr.setdefault(filt.family.attribute, []).append(filt)
    out = []
    for attr in attrs:
        out.extend(by_attr[attr])
    return out


class _ReferenceAllocator:
    """The original allocator: probes ``base_1, base_2, ...`` from 1 on
    every call (quadratic, kept as the oracle)."""

    def __init__(self):
        self._used = set()

    def fresh(self, base):
        if base not in self._used:
            self._used.add(base)
            return base
        i = 1
        while f"{base}_{i}" in self._used:
            i += 1
        alias = f"{base}_{i}"
        self._used.add(alias)
        return alias

    def reserve(self, name):
        self._used.add(name)


class TestAliasAllocator:
    def test_matches_the_linear_probe_on_thousands_of_filters(self):
        fast, reference = _AliasAllocator(), _ReferenceAllocator()
        # Reserved names collide with suffixes the probe will reach,
        # including one reserved after allocation has passed below it.
        calls = [("reserve", "castinfo_7"), ("reserve", "castinfo_8")]
        calls += [("fresh", "castinfo")] * 1500
        calls += [("reserve", "castinfo_1600"), ("reserve", "castinfo_3")]
        calls += [("fresh", "castinfo"), ("fresh", "movie")] * 1500
        calls += [("fresh", "castinfo_2")] * 3
        for op, name in calls:
            got = getattr(fast, op)(name)
            want = getattr(reference, op)(name)
            assert got == want, (op, name)


class TestBaseQuery:
    def test_minimal_pj_query(self, mini_adb):
        entity = mini_adb.metadata.entity("person")
        query = build_base_query(entity)
        assert format_query(query).startswith("SELECT DISTINCT person.name")
        assert len(query.tables) == 1


class TestAdbQueryConstruction:
    def test_direct_categorical(self, mini_adb):
        entity = mini_adb.metadata.entity("person")
        filters = filters_for(mini_adb, "person", [1, 2], ["gender"])
        query = build_adb_query(mini_adb, entity, filters)
        assert "person.gender = 'Male'" in format_query(query)

    def test_direct_numeric_range(self, mini_adb):
        entity = mini_adb.metadata.entity("person")
        filters = filters_for(mini_adb, "person", [1, 2], ["birth_year"])
        text = format_query(build_adb_query(mini_adb, entity, filters))
        assert "person.birth_year >= 1961" in text
        assert "person.birth_year <= 1962" in text

    def test_degenerate_range_collapses_to_eq(self, mini_adb):
        entity = mini_adb.metadata.entity("person")
        filters = filters_for(mini_adb, "person", [1], ["birth_year"])
        query = build_adb_query(mini_adb, entity, filters)
        assert query.predicates[0].op is Op.EQ

    def test_derived_join_via_adb_relation(self, mini_adb):
        entity = mini_adb.metadata.entity("person")
        filters = filters_for(mini_adb, "person", [1, 2], ["genre"])
        query = build_adb_query(mini_adb, entity, filters)
        text = format_query(query)
        assert "persontogenre" in text
        assert "genre.name = 'Comedy'" in text
        assert "count >= 2" in text

    def test_theta_one_omits_count_predicate(self, mini_adb):
        entity = mini_adb.metadata.entity("movie")
        filters = filters_for(mini_adb, "movie", [7, 8], ["person"])
        meryl = [f for f in filters if f.prop.label == "Meryl Streep"]
        query = build_adb_query(mini_adb, entity, meryl)
        assert "count" not in format_query(query)

    def test_same_family_twice_gets_aliases(self, mini_adb):
        entity = mini_adb.metadata.entity("movie")
        filters = filters_for(mini_adb, "movie", [8], ["person"])
        # Big Fish alone shares all three cast members
        assert len(filters) >= 2
        query = build_adb_query(mini_adb, entity, filters)
        aliased = [t for t in query.tables if t.name == "movietoperson"]
        assert len(aliased) == len(filters)
        assert len({t.alias for t in aliased}) == len(aliased)

    def test_select_key_prepends_key(self, mini_adb):
        entity = mini_adb.metadata.entity("person")
        query = build_adb_query(mini_adb, entity, [], select_key=True)
        assert [str(c) for c in query.select] == ["person.id", "person.name"]

    def test_executes_and_matches_examples(self, mini_adb, mini_movies_db):
        entity = mini_adb.metadata.entity("person")
        filters = filters_for(mini_adb, "person", [1, 2], ["genre"])
        query = build_adb_query(mini_adb, entity, filters)
        names = execute(mini_movies_db, query).single_column()
        assert sorted(names) == ["Eddie Murphy", "Jim Carrey"]


class TestOriginalQueryConstruction:
    def test_basic_only_has_no_group_by(self, mini_adb):
        entity = mini_adb.metadata.entity("person")
        filters = filters_for(mini_adb, "person", [1, 2], ["gender"])
        query = build_original_query(mini_adb, entity, filters)
        assert isinstance(query, Query)
        assert not query.group_by

    def test_single_derived_uses_having(self, mini_adb):
        entity = mini_adb.metadata.entity("person")
        filters = filters_for(mini_adb, "person", [1, 2], ["genre"])
        query = build_original_query(mini_adb, entity, filters)
        assert isinstance(query, Query)
        text = format_query(query)
        assert "GROUP BY person.id" in text
        assert "HAVING count(*) >= 2" in text
        assert "castinfo" in text and "movietogenre" in text

    def test_original_equals_adb_result(self, mini_adb, mini_movies_db):
        """Q4 (original schema) and Q5 (αDB) must agree — Example 2.2."""
        entity = mini_adb.metadata.entity("person")
        filters = filters_for(mini_adb, "person", [1, 2], ["genre"])
        adb_query = build_adb_query(mini_adb, entity, filters)
        orig_query = build_original_query(mini_adb, entity, filters)
        adb_names = set(execute(mini_movies_db, adb_query).single_column())
        orig_names = set(execute(mini_movies_db, orig_query).single_column())
        assert adb_names == orig_names

    def test_multiple_derived_produces_intersect(self, mini_adb):
        entity = mini_adb.metadata.entity("movie")
        filters = filters_for(mini_adb, "movie", [8], ["person"])
        assert len(filters) >= 2
        query = build_original_query(mini_adb, entity, filters)
        assert isinstance(query, IntersectQuery)

    def test_intersect_blocks_agree_with_adb_form(self, mini_adb, mini_movies_db):
        entity = mini_adb.metadata.entity("movie")
        filters = filters_for(mini_adb, "movie", [7, 8], ["person"])
        adb_query = build_adb_query(mini_adb, entity, filters)
        orig_query = build_original_query(mini_adb, entity, filters)
        assert set(execute(mini_movies_db, adb_query).single_column()) == set(
            execute(mini_movies_db, orig_query).single_column()
        )

    def test_intersect_blocks_equal_single_aggregate_queries(self, mini_adb):
        # Every INTERSECT block is the query the basic filters plus that
        # one aggregate filter give on their own (the shared basic part
        # is built once and each block continues its alias allocation).
        entity = mini_adb.metadata.entity("movie")
        filters = discover_contexts(mini_adb, "movie", [7, 8]).filters
        basic = [f for f in filters if f.family.kind.is_basic]
        derived = [f for f in filters if f.family.kind.is_derived]
        assert basic and len(derived) >= 2
        query = build_original_query(mini_adb, entity, basic + derived)
        assert isinstance(query, IntersectQuery)
        assert query.blocks == tuple(
            build_original_query(mini_adb, entity, basic + [agg])
            for agg in derived
        )

    def test_fact_attr_block(self, academics_squid):
        adb = academics_squid.adb
        entity = adb.metadata.entity("academics")
        filters = filters_for(adb, "academics", [101, 103], ["research.interest"])
        dm = [f for f in filters if f.prop.value == "data management"]
        query = build_original_query(adb, entity, dm)
        text = format_query(query)
        assert "research.interest = 'data management'" in text
        assert "research.aid = academics.id" in text
