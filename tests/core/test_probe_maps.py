"""The αDB's per-family probe maps against an index-backed reference.

``AbductionReadyDatabase`` answers ``entity_properties`` and friends from
stamped per-family maps.  The reference here probes the family's backing
relation through a hash index and builds one dict row by row per call —
the way the αDB answered before the maps existed.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core import AbductionReadyDatabase, SquidConfig
from repro.core.properties import FamilyKind
from repro.datasets import adult, dblp, imdb

from ..conftest import build_mini_movies_db
from .conftest import mini_movies_metadata

MISSING = "missing-key"


def indexed_properties(adb, family, key):
    """Reference probe: property values (-> θ) of one entity."""
    kind = family.kind
    if kind in (
        FamilyKind.DIRECT_CATEGORICAL,
        FamilyKind.DIRECT_NUMERIC,
        FamilyKind.FK_DIM,
    ):
        relation = adb.db.relation(family.entity)
        rid = relation.lookup_pk(key)
        if rid is None:
            return {}
        column = family.fk_column if kind is FamilyKind.FK_DIM else family.column
        value = relation.value(rid, column)
        return {} if value is None else {value: 1.0}
    if kind in (FamilyKind.FACT_DIM, FamilyKind.FACT_ATTR):
        index = adb.db.hash_index(family.fact_table, family.fact_entity_col)
        column = family.fact_dim_col if kind is FamilyKind.FACT_DIM else family.column
        store = adb.db.relation(family.fact_table).column(column)
        out = {}
        for rid in index.lookup(key):
            if store[rid] is not None:
                out[store[rid]] = 1.0
        return out
    index = adb.db.hash_index(family.derived_table, family.derived_entity_col)
    relation = adb.db.relation(family.derived_table)
    values = relation.column(family.derived_value_col)
    counts = relation.column("count")
    return {values[rid]: float(counts[rid]) for rid in index.lookup(key)}


def indexed_label(adb, family, value):
    """Reference dimension label: a primary-key probe per call."""
    if not family.value_is_ref:
        return str(value)
    relation = adb.db.relation(family.dim_table)
    rid = relation.lookup_pk(value)
    return str(value) if rid is None else str(relation.value(rid, family.dim_label))


def entity_keys(adb, table):
    relation = adb.db.relation(table)
    return list(relation.column(relation.schema.primary_key))


def build_mini():
    return AbductionReadyDatabase.build(
        build_mini_movies_db(), mini_movies_metadata(), SquidConfig(tau_a=2.0)
    )


BUILDERS = {
    "mini-imdb": build_mini,
    "imdb": lambda: AbductionReadyDatabase.build(
        imdb.generate(imdb.ImdbSize.small()), imdb.metadata()
    ),
    "dblp": lambda: AbductionReadyDatabase.build(
        dblp.generate(dblp.DblpSize.small()), dblp.metadata()
    ),
    "adult": lambda: AbductionReadyDatabase.build(
        adult.generate(adult.AdultSize.small()), adult.metadata()
    ),
}


@pytest.fixture(scope="module", params=sorted(BUILDERS))
def built_adb(request):
    return BUILDERS[request.param]()


class TestParity:
    def test_every_family_every_key(self, built_adb):
        adb = built_adb
        for spec in adb.metadata.entities:
            keys = entity_keys(adb, spec.table) + [MISSING]
            for family in adb.families_for(spec.table):
                want = [indexed_properties(adb, family, key) for key in keys]
                got = [adb.entity_properties(family, key) for key in keys]
                assert got == want, family.key
                assert adb.entity_properties_many(family, keys) == want, family.key
                assert [adb.association_total(family, key) for key in keys] == [
                    float(sum(props.values())) for props in want
                ], family.key

    def test_value_order_follows_rows(self, built_adb):
        adb = built_adb
        for spec in adb.metadata.entities:
            for family in adb.families_for(spec.table):
                for key in entity_keys(adb, spec.table)[:50]:
                    assert list(adb.entity_properties(family, key)) == list(
                        indexed_properties(adb, family, key)
                    ), (family.key, key)

    def test_dim_labels(self, built_adb):
        adb = built_adb
        for family in adb.discovery.families:
            if family.value_is_ref:
                values = entity_keys(adb, family.dim_table) + [987654321, MISSING]
            else:
                values = [1, "x", 2.5]
            for value in values:
                assert adb.dim_label_of(family, value) == indexed_label(
                    adb, family, value
                ), (family.key, value)

    def test_family_scans_count_map_builds(self, built_adb):
        adb = built_adb
        for family in adb.discovery.families:
            adb.family_map(family)
        scans = adb.family_scans
        for family in adb.discovery.families:
            adb.family_map(family)
        assert adb.family_scans == scans
        assert adb.probe_stats()["probe_families"] == len(adb.discovery.families)


def family_of(adb, entity, attribute):
    return next(f for f in adb.families_for(entity) if f.attribute == attribute)


class TestStamps:
    def test_insert_without_refresh_shows_on_next_probe(self):
        adb = build_mini()
        gender = family_of(adb, "person", "gender")
        genre = family_of(adb, "movie", "genre")
        assert genre.kind is FamilyKind.FACT_DIM
        assert adb.entity_properties(gender, 77) == {}
        assert adb.entity_properties(genre, 1) == indexed_properties(adb, genre, 1)

        adb.db.insert("person", (77, "Late Arrival", "Female", 1999))
        adb.db.insert("movietogenre", (777, 1, 3))
        assert adb.entity_properties(gender, 77) == {"Female": 1.0}
        assert 3 in adb.entity_properties(genre, 1)
        assert adb.entity_properties(genre, 1) == indexed_properties(adb, genre, 1)

    def test_refresh_rebuilds_lazily(self):
        adb = build_mini()
        for family in adb.discovery.families:
            adb.family_map(family)
        adb.db.insert("castinfo", (999, 3, 1))
        scans = adb.family_scans
        adb.refresh(["castinfo"])
        assert adb.family_scans == scans
        movie = family_of(adb, "person", "movie")
        assert 1 in adb.entity_properties(movie, 3)
        assert adb.family_scans == scans + 1

    @pytest.mark.parametrize(
        "changed", [["castinfo", "movietogenre", "movie"], ["person"]]
    )
    def test_maps_after_refresh_equal_a_fresh_build(self, changed):
        def mutate(db):
            if "movie" in changed:
                db.insert("movie", (99, "The Late Comedy", 2010))
                db.insert("castinfo", (999, 3, 99))
                db.insert("movietogenre", (999, 99, 1))
            if "person" in changed:
                db.insert("person", (100, "New Actress", "Female", 1990))

        refreshed = build_mini()
        for family in refreshed.discovery.families:
            refreshed.family_map(family)
            if family.value_is_ref:
                refreshed.dim_labels(family)
        mutate(refreshed.db)
        refreshed.refresh(changed)

        scratch_db = build_mini_movies_db()
        mutate(scratch_db)
        scratch = AbductionReadyDatabase.build(
            scratch_db, mini_movies_metadata(), SquidConfig(tau_a=2.0)
        )
        assert [f.key for f in refreshed.discovery.families] == [
            f.key for f in scratch.discovery.families
        ]
        for got, want in zip(refreshed.discovery.families, scratch.discovery.families):
            assert refreshed.family_map(got) == scratch.family_map(want), got.key
            if got.value_is_ref:
                assert refreshed.dim_labels(got) == scratch.dim_labels(want), got.key


def test_concurrent_first_fetches_see_whole_maps():
    """Threads that fault the same maps in at once never see a partly
    built map: each map is stored only when complete."""
    reference = BUILDERS["imdb"]()
    keys = {
        spec.table: entity_keys(reference, spec.table)[::7] + [MISSING]
        for spec in reference.metadata.entities
    }
    want = {
        family.key: [
            indexed_properties(reference, family, key)
            for key in keys[family.entity]
        ]
        for family in reference.discovery.families
    }
    adb = BUILDERS["imdb"]()  # same data, cold maps
    errors = []

    def probe():
        try:
            for family in adb.discovery.families:
                probe_keys = keys[family.entity]
                got = [adb.entity_properties(family, key) for key in probe_keys]
                if got != want[family.key]:
                    errors.append(family.key)
        except Exception as exc:  # surfaced by the assert below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=probe) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert adb.probe_stats()["probe_families"] == len(adb.discovery.families)
