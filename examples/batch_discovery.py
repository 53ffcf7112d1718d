"""Batch discovery: many example sets through one warm session.

Builds the synthetic IMDb database, samples many example sets from the
benchmark workloads (the accuracy-curve shape of Figure 10), and
discovers them all in a single :class:`~repro.core.DiscoverySession` —
comparing against the naive per-example-set loop to show the
amortisation, and against ``jobs=2`` fan-out to show that parallel
candidate execution returns byte-identical queries.

Run with::

    python examples/batch_discovery.py [--jobs N] [--executor thread|process]
"""

from __future__ import annotations

import argparse
import time

from repro.core import DiscoverySession, SquidConfig, SquidSystem
from repro.datasets import imdb
from repro.eval.sampling import sample_example_sets
from repro.workloads import imdb_queries


def sample_workload_sets(squid: SquidSystem, runs_per_size: int = 5):
    """Accuracy-curve style example sets over every IMDb workload."""
    sets = []
    for workload in imdb_queries.build_registry():
        values = workload.ground_truth_examples(squid.adb.db)
        for size in (2, 4, 6):
            sets.extend(sample_example_sets(values, size, runs_per_size, 7))
    return sets


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument(
        "--executor", choices=("thread", "process"), default="thread"
    )
    args = parser.parse_args()

    print("building the IMDb αDB ...")
    db = imdb.generate(
        imdb.ImdbSize(persons=1000, movies=2000, companies=60, keywords=80)
    )
    squid = SquidSystem.build(db, imdb.metadata(), SquidConfig())
    sets = sample_workload_sets(squid)
    print(f"discovering {len(sets)} example sets\n")

    # -- the naive loop: one independent discovery per example set -----
    start = time.perf_counter()
    sequential = []
    for examples in sets:
        try:
            sequential.append(squid.discover(examples).sql)
        except Exception as exc:  # noqa: BLE001 - sets may miss the index
            sequential.append(type(exc).__name__)
    loop_seconds = time.perf_counter() - start

    # -- one batch session: warm views, shared probe maps, result cache
    session = DiscoverySession(SquidSystem(squid.adb))
    session.warm()
    start = time.perf_counter()
    outcomes = session.discover_many(sets)
    batch_seconds = time.perf_counter() - start
    batched = [
        o.result.sql if o.ok else type(o.error).__name__ for o in outcomes
    ]
    assert batched == sequential, "batch discovery must be output-identical"

    print(f"sequential loop : {loop_seconds * 1000:7.1f} ms")
    print(
        f"batch session   : {batch_seconds * 1000:7.1f} ms "
        f"({loop_seconds / batch_seconds:.2f}x)"
    )
    stats = session.stats()
    print(
        f"probe maps      : {stats['probe_families']} family maps, "
        f"{stats['probe_family_scans']} built"
    )

    # -- parallel fan-out: candidates run on a worker pool -------------
    fanout = DiscoverySession(
        SquidSystem(squid.adb), jobs=args.jobs, executor=args.executor
    )
    start = time.perf_counter()
    parallel = fanout.discover_many(sets)
    fanout_seconds = time.perf_counter() - start
    assert [
        o.result.sql if o.ok else type(o.error).__name__ for o in parallel
    ] == sequential, "fan-out must not change any result"
    print(
        f"jobs={args.jobs} ({fanout.executor_used:7s}): "
        f"{fanout_seconds * 1000:7.1f} ms — identical output"
    )

    ok = [o for o in outcomes if o.ok]
    print(f"\n{len(ok)}/{len(sets)} sets discovered; first abduced query:")
    print(ok[0].result.sql)


if __name__ == "__main__":
    main()
