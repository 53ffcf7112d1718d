"""Batch discovery session vs the sequential per-example-set loop.

The accuracy-curve workload (Figure 10 shape: every IMDb workload ×
example-set sizes × ``runs_per_size`` sampled sets) runs twice over
identically-generated, separately-built αDBs:

* **sequential** — the pre-session control flow: one ``evaluate_once``
  per sampled set, each run a separate ``SquidSystem.discover`` (the
  αDB's probe maps and column views fill in lazily on first use) that
  re-computes the workload's ground-truth keys;
* **session**   — the refactored driver: one warm
  :class:`~repro.core.session.DiscoverySession` serves every set;
  ``warm()`` builds the αDB's family probe maps and column/sorted views
  up front, and ground truth is computed once per curve.

Both sides produce identical accuracy numbers (asserted); the session
side must be measurably faster.  The ≥1.3x floor is enforced at the
``medium`` profile (the recorded reproduction scale); other profiles
just record the ratio.  A second case pins ``jobs=1`` / ``jobs=2``
agreement on the same workload, so the parallel fan-out path stays
output-identical to the reference loop.

The speedup compares the median time of each side over ``ROUNDS``
paired rounds (the side that runs first alternates), every round on
freshly built systems.  Each timed side starts from a collected heap
with the objects alive before it frozen out of the cyclic collector
(:func:`gc.freeze`), so neither side pays for full collections over
garbage the other side left behind or over the rest of the test
process; collections of what the timed side itself allocates still
count.
"""

from __future__ import annotations

import gc
import statistics
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

import pytest

from repro.core import DiscoverySession, SquidConfig, SquidSystem
from repro.core.lookup import ExampleLookupError
from repro.datasets import imdb
from repro.eval import emit, format_table
from repro.eval.runner import accuracy_curve, evaluate_once
from repro.eval.sampling import sample_example_sets
from repro.workloads import imdb_queries

from conftest import PROFILE, profile_sizes

EXAMPLE_SIZES = (2, 4, 6)
RUNS_PER_SIZE = 10
SEED = 7
SPEEDUP_FLOOR = 1.3
ROUNDS = 5


def _fresh_system() -> SquidSystem:
    """A cold system over freshly generated IMDb data (deterministic)."""
    size, _, _ = profile_sizes()
    return SquidSystem.build(imdb.generate(size), imdb.metadata(), SquidConfig())


@contextmanager
def _quiet_heap() -> Iterator[None]:
    """Collect, then keep every object alive so far out of the cyclic
    collector until the block ends."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def _sequential_curves(squid: SquidSystem) -> Tuple[Dict, float]:
    """The historical loop: evaluate_once per sampled example set."""
    registry = imdb_queries.build_registry()
    scores: Dict[Tuple[str, int], List[float]] = {}
    with _quiet_heap():
        start = time.perf_counter()
        for workload in registry:
            values = workload.ground_truth_examples(squid.adb.db)
            for size in EXAMPLE_SIZES:
                for examples in sample_example_sets(
                    values, size, RUNS_PER_SIZE, SEED
                ):
                    # Same error policy as the session arm: lookup misses
                    # are skipped, anything else must fail the benchmark
                    # loudly.
                    try:
                        score, _, _ = evaluate_once(squid, workload, examples)
                    except ExampleLookupError:
                        continue
                    scores.setdefault((workload.qid, size), []).append(
                        score.f_score
                    )
        elapsed = time.perf_counter() - start
    means = {
        key: sum(values) / len(values) for key, values in scores.items()
    }
    return means, elapsed


def _session_curves(squid: SquidSystem) -> Tuple[Dict, float, Dict]:
    """The batch driver: one warm session serves every curve."""
    registry = imdb_queries.build_registry()
    session = DiscoverySession(squid)
    means: Dict[Tuple[str, int], float] = {}
    with _quiet_heap():
        start = time.perf_counter()
        session.warm()
        for workload in registry:
            points = accuracy_curve(
                squid,
                workload,
                EXAMPLE_SIZES,
                runs_per_size=RUNS_PER_SIZE,
                seed=SEED,
                session=session,
            )
            for point in points:
                means[(workload.qid, point.num_examples)] = point.f_score
        elapsed = time.perf_counter() - start
    return means, elapsed, session.stats()


@pytest.mark.benchmark(group="batch-session")
def test_batch_session_speedup(benchmark):
    def run():
        sequential_runs, session_runs = [], []
        for round_no in range(ROUNDS):
            sides = [
                lambda: sequential_runs.append(
                    _sequential_curves(_fresh_system())
                ),
                lambda: session_runs.append(_session_curves(_fresh_system())),
            ]
            if round_no % 2:
                sides.reverse()
            for side in sides:
                side()
        return sequential_runs, session_runs

    sequential_runs, session_runs = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    sequential_scores = sequential_runs[0][0]
    session_scores, _, stats = session_runs[0]
    sequential_seconds = statistics.median(t for _, t in sequential_runs)
    session_seconds = statistics.median(t for _, t, _ in session_runs)
    speedup = sequential_seconds / session_seconds
    emit(
        "batch_session",
        format_table(
            [
                {
                    "profile": PROFILE,
                    "curves": len(session_scores),
                    "rounds": ROUNDS,
                    "sequential_s": round(sequential_seconds, 3),
                    "session_s": round(session_seconds, 3),
                    "speedup": round(speedup, 2),
                    "probe_family_scans": stats.get("probe_family_scans", 0),
                }
            ],
            title="Batch session vs sequential loop (IMDb accuracy curves)",
        ),
    )

    # Identical accuracy on every (workload, size) point: the session is
    # an execution strategy, never a semantics change.
    assert session_scores.keys() == sequential_scores.keys()
    for key, mean in sequential_scores.items():
        assert session_scores[key] == pytest.approx(mean), key
    # Every round computes the same numbers as the first.
    assert all(scores == sequential_scores for scores, _ in sequential_runs)
    assert all(scores == session_scores for scores, _, _ in session_runs)
    if PROFILE == "medium":
        assert speedup >= SPEEDUP_FLOOR, (
            f"batch session {session_seconds:.3f}s vs sequential "
            f"{sequential_seconds:.3f}s — speedup {speedup:.2f}x fell "
            f"below the {SPEEDUP_FLOOR}x floor"
        )


@pytest.mark.benchmark(group="batch-session")
def test_parallel_jobs_agree(benchmark):
    """--jobs 1 and --jobs 2 (thread fan-out) produce identical output."""

    def run():
        squid = _fresh_system()
        registry = imdb_queries.build_registry()
        example_sets = []
        for workload in list(registry)[:4]:
            values = workload.ground_truth_examples(squid.adb.db)
            example_sets.extend(sample_example_sets(values, 4, 3, SEED))
        serial = DiscoverySession(squid, jobs=1).discover_many(example_sets)
        threaded = DiscoverySession(squid, jobs=2).discover_many(example_sets)
        return serial, threaded

    serial, threaded = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(serial) == len(threaded) > 0
    for left, right in zip(serial, threaded):
        assert left.ok == right.ok
        if left.ok:
            assert left.result.sql == right.result.sql
            assert left.result.log_posterior == pytest.approx(
                right.result.log_posterior
            )
            assert left.result.entity_keys == right.result.entity_keys
