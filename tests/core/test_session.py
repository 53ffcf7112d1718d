"""Batch discovery session: sharing, fan-out agreement, invalidation."""

from __future__ import annotations

import multiprocessing

import pytest

from repro.core import (
    DiscoverySession,
    SquidConfig,
    SquidSystem,
)
from repro.core.lookup import ExampleLookupError

from .test_probe_maps import indexed_label, indexed_properties

EXAMPLE_SETS = [
    ["Jim Carrey", "Eddie Murphy"],
    ["Arnold Schwarzenegger", "Sylvester Stallone"],
    ["Meryl Streep", "Ewan McGregor"],
    ["Jim Carrey"],
]


def outcomes_signature(outcomes):
    return [
        (o.result.sql, o.result.log_posterior, tuple(o.result.entity_keys))
        if o.ok
        else type(o.error).__name__
        for o in outcomes
    ]


class TestBatchDiscovery:
    def test_matches_sequential_discover(self, mini_squid):
        expected = [mini_squid.discover(s).sql for s in EXAMPLE_SETS]
        session = DiscoverySession(mini_squid)
        outcomes = session.discover_many(EXAMPLE_SETS)
        assert [o.result.sql for o in outcomes] == expected
        assert all(o.ok and o.error is None for o in outcomes)
        assert all(o.seconds > 0 for o in outcomes)

    def test_jobs_parallel_agree_with_sequential(self, mini_squid):
        serial = DiscoverySession(mini_squid, jobs=1).discover_many(EXAMPLE_SETS)
        threaded = DiscoverySession(mini_squid, jobs=3).discover_many(EXAMPLE_SETS)
        assert outcomes_signature(serial) == outcomes_signature(threaded)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="process executor needs fork",
    )
    def test_process_executor_agrees(self, mini_squid):
        serial = DiscoverySession(mini_squid, jobs=1).discover_many(EXAMPLE_SETS)
        session = DiscoverySession(mini_squid, jobs=2, executor="process")
        forked = session.discover_many(EXAMPLE_SETS)
        assert session.executor_used == "process"
        assert outcomes_signature(serial) == outcomes_signature(forked)

    def test_lookup_misses_become_outcome_errors(self, mini_squid):
        sets = [["Jim Carrey"], ["nobody-at-all"], ["Eddie Murphy"]]
        for jobs in (1, 2):
            outcomes = DiscoverySession(mini_squid, jobs=jobs).discover_many(sets)
            assert outcomes[0].ok and outcomes[2].ok
            assert not outcomes[1].ok
            assert isinstance(outcomes[1].error, ExampleLookupError)
            assert outcomes[1].examples == ["nobody-at-all"]

    def test_parallel_timings_report_cpu(self, mini_squid):
        outcomes = DiscoverySession(mini_squid, jobs=2).discover_many(
            EXAMPLE_SETS[:2]
        )
        for outcome in outcomes:
            aggregate = outcome.result.aggregate_timings
            assert aggregate is not None
            assert outcome.seconds == aggregate.cpu_seconds > 0

    def test_session_counters(self, mini_squid):
        session = DiscoverySession(mini_squid)
        session.discover_many(EXAMPLE_SETS)
        session.discover_many(EXAMPLE_SETS)
        stats = session.stats()
        assert stats["batches"] == 2
        assert stats["sets_discovered"] == 2 * len(EXAMPLE_SETS)
        assert stats["probe_family_scans"] > 0
        assert stats["probe_families"] > 0
        assert stats["last_batch_wall_seconds"] > 0

    def test_stats_expose_engine_routing_counters(self, mini_adb):
        """--stats plumbing: the sharded engine's single-vs-sharded
        routing and fan-out counters surface through session.stats() as
        engine_*."""
        system = SquidSystem(mini_adb, backend="sharded")
        session = DiscoverySession(system)
        session.warm()
        outcomes = session.discover_many(EXAMPLE_SETS[:2])
        system.result_keys(outcomes[0].result)  # materialise via the engine
        stats = session.stats()
        routed = stats["engine_single_blocks"] + stats["engine_sharded_blocks"]
        assert routed > 0
        assert "engine_shards_launched" in stats
        assert "engine_merge_ms" in stats

    def test_single_discover_uses_shared_state(self, mini_squid):
        session = DiscoverySession(mini_squid)
        result = session.discover(["Jim Carrey", "Eddie Murphy"])
        assert result.sql == mini_squid.discover(["Jim Carrey", "Eddie Murphy"]).sql
        assert session.adb is mini_squid.adb
        assert session.adb.probe_stats()["probe_family_scans"] > 0

    def test_warm_builds_views(self, mini_squid):
        session = DiscoverySession(mini_squid)
        assert session.warm() > 0

    def test_invalid_jobs_and_executor(self, mini_squid):
        with pytest.raises(ValueError):
            DiscoverySession(mini_squid, jobs=0)
        with pytest.raises(ValueError):
            DiscoverySession(mini_squid, executor="goroutine")

    def test_system_session_factory(self, mini_squid):
        session = mini_squid.session(jobs=2)
        assert isinstance(session, DiscoverySession)
        assert session.jobs == 2
        assert session.adb is mini_squid.adb


class TestProbeCachingAdb:
    """The αDB's stamped per-family probe maps, reached through a
    session (whose ``adb`` is the system's αDB)."""

    def test_probe_parity_across_all_families(self, mini_squid):
        """The family maps must answer every probe exactly like an
        index-backed probe of the relation they mirror."""
        adb = DiscoverySession(mini_squid).adb
        for spec in adb.metadata.entities:
            relation = adb.db.relation(spec.table)
            keys = list(relation.column(relation.schema.primary_key))
            for family in adb.families_for(spec.table):
                for key in keys + ["missing-key"]:
                    want = indexed_properties(adb, family, key)
                    assert adb.entity_properties(family, key) == want, (family, key)
                    assert adb.association_total(family, key) == \
                        float(sum(want.values()))

    def test_bulk_probe_parity(self, mini_squid):
        adb = DiscoverySession(mini_squid).adb
        for spec in adb.metadata.entities:
            relation = adb.db.relation(spec.table)
            keys = list(relation.column(relation.schema.primary_key))[:4]
            for family in adb.families_for(spec.table):
                assert adb.entity_properties_many(family, keys) == [
                    indexed_properties(adb, family, key) for key in keys
                ]

    def test_dim_label_parity(self, mini_squid):
        adb = DiscoverySession(mini_squid).adb
        for spec in adb.metadata.entities:
            for family in adb.families_for(spec.table):
                if not family.value_is_ref:
                    continue
                dim = adb.db.relation(family.dim_table)
                values = list(dim.column(dim.schema.primary_key)) + [987654]
                for value in values:
                    assert adb.dim_label_of(family, value) == indexed_label(
                        adb, family, value
                    )

    def test_mutation_invalidates_after_revalidate(self, mini_movies_db, mini_squid):
        """A base-table insert shows on the very next probe: the map's
        stamp no longer matches, so the fetch rebuilds it."""
        adb = mini_squid.adb
        family = next(
            f for f in adb.families_for("person") if f.attribute == "gender"
        )
        before = adb.entity_properties(family, 1)
        assert before == indexed_properties(adb, family, 1)
        scans = adb.family_scans
        mini_movies_db.insert("person", (99, "New Person", "Female", 1990))
        assert adb.entity_properties(family, 99) == {"Female": 1.0}
        assert adb.family_scans == scans + 1
        assert adb.entity_properties(family, 1) == before
        assert adb.family_scans == scans + 1

    def test_batch_revalidates_automatically(self, mini_movies_db, mini_squid):
        session = DiscoverySession(mini_squid)
        session.discover_many([["Jim Carrey"]])  # materialises family maps
        family = next(
            f
            for f in mini_squid.adb.families_for("person")
            if f.attribute == "gender"
        )
        mini_movies_db.insert("person", (98, "Someone New", "Female", 1970))
        # no batch boundary needed: the next probe sees the new row
        assert session.adb.entity_properties(family, 98) == {"Female": 1.0}
        session.discover_many([["Jim Carrey"]])
        assert session.adb.entity_properties(family, 98) == {"Female": 1.0}
