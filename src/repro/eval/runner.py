"""Per-figure experiment drivers.

Each function regenerates one table or figure of the paper's evaluation
section and returns plain data structures (lists of row dicts) that the
benchmark harnesses print and `EXPERIMENTS.md` records.  Keeping the
drivers here lets the pytest benchmarks, the examples, and ad-hoc scripts
share one implementation.

The sweep drivers (``accuracy_curve``, ``scalability_curve``,
``squid_qre``) discover through a shared
:class:`~repro.core.session.DiscoverySession` instead of looping over
``SquidSystem.discover``: one warm αDB (views and probe maps) and one
result cache serve every example set of the sweep, and a caller-provided
session (or ``SquidConfig(jobs=N)``) fans candidate work units across
workers without changing any reported number.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set

from ..core.config import SquidConfig
from ..core.lookup import ExampleLookupError
from ..core.session import BatchOutcome, DiscoverySession
from ..core.squid import SquidSystem
from ..relational.database import Database
from ..sql.counting import count_predicates
from ..workloads.registry import Workload, WorkloadRegistry
from .metrics import Accuracy, accuracy, is_instance_equivalent, masked_accuracy
from .sampling import sample_example_sets


def _session_for(
    squid: SquidSystem, session: Optional[DiscoverySession]
) -> tuple[DiscoverySession, bool]:
    """(session, owned): the caller's session, or a fresh warmed one.

    ``owned`` tells the driver it must ``close()`` the session on the
    way out — with the persistent worker pool a started session holds
    real resources (forked workers, a collector thread), so drivers must
    not leak the sessions they create themselves."""
    if session is not None:
        return session, False
    fresh = DiscoverySession(squid)
    fresh.warm()
    return fresh, True


def _raise_unless_lookup_error(outcome: BatchOutcome) -> bool:
    """True when the outcome holds a result; lookup misses are skipped
    (matching the historical per-loop ``except ExampleLookupError``),
    anything else propagates."""
    if outcome.ok:
        return True
    if isinstance(outcome.error, ExampleLookupError):
        return False
    assert outcome.error is not None
    raise outcome.error


@dataclass
class AccuracyPoint:
    """One (workload, example-set size) accuracy measurement."""

    qid: str
    num_examples: int
    precision: float
    recall: float
    f_score: float
    seconds: float
    runs: int


def evaluate_once(
    squid: SquidSystem,
    workload: Workload,
    examples: Sequence[str],
    config: Optional[SquidConfig] = None,
    mask: Optional[Set[Any]] = None,
) -> tuple[Accuracy, float, Any]:
    """Run one discovery and score it against the workload ground truth."""
    start = time.perf_counter()
    result = squid.discover(examples, config=config)
    elapsed = time.perf_counter() - start
    predicted = squid.result_keys(result)
    intended = workload.ground_truth_keys(squid.adb.db)
    score = masked_accuracy(predicted, intended, mask)
    return score, elapsed, result


def accuracy_curve(
    squid: SquidSystem,
    workload: Workload,
    example_sizes: Sequence[int],
    runs_per_size: int = 10,
    config: Optional[SquidConfig] = None,
    seed: int = 7,
    mask: Optional[Set[Any]] = None,
    examples_override: Optional[Sequence[str]] = None,
    session: Optional[DiscoverySession] = None,
) -> List[AccuracyPoint]:
    """Figure 10/13 style curve: accuracy vs number of examples.

    All example sets of one size discover in one batch; the ground-truth
    keys are computed once for the whole curve instead of once per run.
    """
    intended = workload.ground_truth_keys(squid.adb.db)
    if examples_override is not None:
        values = list(examples_override)
    else:
        values = workload.display_values(squid.adb.db, intended)
    session, owned = _session_for(squid, session)
    try:
        points: List[AccuracyPoint] = []
        for size in example_sizes:
            example_sets = sample_example_sets(
                values, size, runs_per_size, seed
            )
            if not example_sets:
                continue
            outcomes = session.discover_many(example_sets, config=config)
            precisions, recalls, fscores, times = [], [], [], []
            for outcome in outcomes:
                if not _raise_unless_lookup_error(outcome):
                    continue
                assert outcome.result is not None
                predicted = squid.result_keys(outcome.result)
                score = masked_accuracy(predicted, intended, mask)
                precisions.append(score.precision)
                recalls.append(score.recall)
                fscores.append(score.f_score)
                times.append(outcome.seconds)
            if not times:
                continue
            n = len(times)
            points.append(
                AccuracyPoint(
                    qid=workload.qid,
                    num_examples=size,
                    precision=sum(precisions) / n,
                    recall=sum(recalls) / n,
                    f_score=sum(fscores) / n,
                    seconds=sum(times) / n,
                    runs=n,
                )
            )
        return points
    finally:
        if owned:
            session.close()


def scalability_curve(
    squid: SquidSystem,
    registry: WorkloadRegistry,
    example_sizes: Sequence[int],
    runs_per_size: int = 3,
    seed: int = 11,
    session: Optional[DiscoverySession] = None,
) -> List[Dict[str, Any]]:
    """Figure 9 style: mean abduction time vs number of examples.

    For each size, every workload's sampled example sets go through one
    batch discovery, so sorted-view construction and repeated entity
    probes amortise across the whole registry.  One untimed warm-up
    batch runs before any size is timed, so the first point does not
    pay the lazy view and map builds alone.  The warm-up sets are drawn
    at the first size with another seed, and any set that a timed size
    also draws is dropped, so no timed set meets a warm result.
    """

    pools = [workload.ground_truth_examples(squid.adb.db) for workload in registry]

    def draw(size: int, draw_seed: int) -> List[List[str]]:
        example_sets: List[List[str]] = []
        for values in pools:
            example_sets.extend(
                sample_example_sets(values, size, runs_per_size, draw_seed)
            )
        return example_sets

    batches = [(size, draw(size, seed)) for size in example_sizes]
    timed = {frozenset(s) for _, example_sets in batches for s in example_sets}
    warmup = (
        [s for s in draw(example_sizes[0], seed + 1) if frozenset(s) not in timed]
        if example_sizes
        else []
    )
    session, owned = _session_for(squid, session)
    try:
        if warmup:
            for outcome in session.discover_many(warmup):
                _raise_unless_lookup_error(outcome)
        rows: List[Dict[str, Any]] = []
        for size, example_sets in batches:
            times = [
                outcome.seconds
                for outcome in session.discover_many(example_sets)
                if _raise_unless_lookup_error(outcome)
            ]
            if times:
                rows.append(
                    {
                        "num_examples": size,
                        "mean_seconds": sum(times) / len(times),
                        "runs": len(times),
                    }
                )
        return rows
    finally:
        if owned:
            session.close()


def query_runtime_comparison(
    squid: SquidSystem,
    registry: WorkloadRegistry,
    num_examples: int = 10,
    seed: int = 13,
) -> List[Dict[str, Any]]:
    """Figure 11: runtime of the abduced query vs the intended query."""
    rows: List[Dict[str, Any]] = []
    for workload in registry:
        values = workload.ground_truth_examples(squid.adb.db)
        example_sets = sample_example_sets(values, num_examples, 1, seed)
        if not example_sets:
            continue
        try:
            result = squid.discover(example_sets[0])
        except ExampleLookupError:
            continue
        # Timing comparisons bypass the shared result cache so both sides
        # measure a cold execution on the system's active backend.
        start = time.perf_counter()
        squid.execute(result.query, cached=False)
        abduced_seconds = time.perf_counter() - start
        if workload.query is not None:
            start = time.perf_counter()
            squid.execute(workload.query, cached=False)
            actual_seconds = time.perf_counter() - start
        else:
            start = time.perf_counter()
            workload.ground_truth_keys(squid.adb.db)
            actual_seconds = time.perf_counter() - start
        rows.append(
            {
                "qid": workload.qid,
                "actual_seconds": actual_seconds,
                "abduced_seconds": abduced_seconds,
            }
        )
    return rows


@dataclass
class QreOutcome:
    """Closed-world QRE comparison row (Figures 14/15)."""

    qid: str
    cardinality: int
    actual_predicates: int
    squid_predicates: Optional[int] = None
    squid_seconds: Optional[float] = None
    squid_f_score: Optional[float] = None
    squid_ieq: Optional[bool] = None
    talos_predicates: Optional[int] = None
    talos_seconds: Optional[float] = None
    talos_f_score: Optional[float] = None
    talos_ieq: Optional[bool] = None


def squid_qre(
    squid: SquidSystem,
    workload: Workload,
    config: Optional[SquidConfig] = None,
    session: Optional[DiscoverySession] = None,
) -> QreOutcome:
    """Run SQuID in the closed-world setting: entire output as examples.

    Passing one session across many workloads shares the warm αDB views
    and probe maps between their (large) whole-output example sets.
    """
    config = config or SquidConfig.optimistic()
    session, owned = _session_for(squid, session)
    try:
        db = squid.adb.db
        intended = workload.ground_truth_keys(db)
        examples = workload.ground_truth_examples(db)
        actual_preds = (
            count_predicates(workload.query)
            if workload.query is not None
            else 0
        )
        outcome = QreOutcome(
            qid=workload.qid,
            cardinality=len(intended),
            actual_predicates=actual_preds,
        )
        config = config.with_overrides(
            max_example_warn=max(config.max_example_warn, len(examples) + 1)
        )
        start = time.perf_counter()
        result = session.discover(examples, config=config)
        outcome.squid_seconds = time.perf_counter() - start
        predicted = squid.result_keys(result)
        outcome.squid_predicates = count_predicates(result.query)
        outcome.squid_f_score = accuracy(predicted, intended).f_score
        outcome.squid_ieq = is_instance_equivalent(predicted, intended)
        return outcome
    finally:
        if owned:
            session.close()


def dataset_statistics(databases: Dict[str, Database]) -> List[Dict[str, Any]]:
    """Figure 18 style dataset-description rows."""
    rows = []
    for name, db in databases.items():
        counts = db.row_counts()
        rows.append(
            {
                "dataset": name,
                "relations": len(counts),
                "total_rows": sum(counts.values()),
                "largest_relations": sorted(
                    counts.items(), key=lambda kv: -kv[1]
                )[:3],
            }
        )
    return rows
