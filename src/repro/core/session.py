"""Batch discovery sessions: amortise shared work across example sets.

The online pipeline's per-candidate stages (:mod:`repro.core.pipeline`)
only read the αDB, so many discoveries can share everything that is
expensive to assemble:

* the relation layer's cached numpy **column/sorted views** (``warm()``
  pre-builds them once instead of faulting them in per query);
* the formatted-SQL-keyed **query-result cache** of the system's
  backend (shared automatically — all work units execute through the
  same backend instance);
* the αDB's per-family **probe maps** (``adb.family_map``) that serve
  disambiguation and context discovery: the session uses the system's
  αDB itself, so its maps are the ones every other caller reads;
  ``warm()`` builds them all before the pool forks, and each map
  checks its relation's ``(uid, version)`` stamp when fetched, so a
  mutated relation's map is rebuilt on the next probe with no
  per-discovery revalidation pass.

On top of the sharing, independent (example set × candidate base query)
work units fan out across a configurable worker pool: ``jobs=N`` with
``executor="thread"`` (default; the numpy kernels release the GIL) or
``executor="process"`` (fork-based, true CPU parallelism; results are
pickled back).  ``jobs=1`` drives the exact sequential reference path,
so batch output is identical to calling ``SquidSystem.discover`` in a
loop.

The fan-out runs on a **persistent**
:class:`~repro.core.workers.WorkerPool`: the pool starts once (shipping
the warm αDB to forked workers via copy-on-write), is reused across
batches and concurrent async requests, and schedules every unit of one
example set onto the same worker with the parent's lookup state shipped
along — no child ever re-runs lookup.  :meth:`DiscoverySession.
discover_many_async` exposes the same batch semantics to asyncio callers
— the serving tier (:mod:`repro.serve`) drives many concurrent requests
through one session.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from .config import SquidConfig, validate_fanout
from .lookup import ExampleLookupError
from .pipeline import (
    LOOKUP_STAGE,
    DiscoveryResult,
    DiscoveryTimings,
    PipelineContext,
    check_example_count,
    discover_sequential,
    select_best,
)
from .workers import (
    ForkWorkerPool,
    WorkerPool,
    create_worker_pool,
    database_fingerprint,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .squid import SquidSystem


@dataclass
class BatchOutcome:
    """Result of one example set within a batch discovery."""

    examples: List[str]
    result: Optional[DiscoveryResult] = None
    error: Optional[Exception] = None
    """An :class:`ExampleLookupError` when no entity attribute contains
    the whole set; any other failure propagates out of the batch call."""

    seconds: float = 0.0
    """Per-set discovery cost: measured wall-clock on the sequential
    (``jobs=1``) path, summed per-stage CPU time under parallel fan-out
    (where per-set wall-clock is not observable; the batch-level wall is
    in :meth:`DiscoverySession.stats`)."""

    @property
    def ok(self) -> bool:
        """Whether discovery produced a result for this set."""
        return self.result is not None


class DiscoverySession:
    """Discover many example sets in one call over a shared warm αDB.

    Construct directly or via :meth:`SquidSystem.session`.  The session
    holds no αDB state of its own (``adb`` is the system's αDB), so one
    system can serve many concurrent sessions.
    """

    def __init__(
        self,
        system: "SquidSystem",
        jobs: Optional[int] = None,
        executor: Optional[str] = None,
    ) -> None:
        self.system = system
        self.jobs = system.config.jobs if jobs is None else jobs
        self.executor = executor or system.config.executor
        validate_fanout(self.jobs, self.executor)
        self.adb = system.adb
        self._backend = system.backend
        self.executor_used: Optional[str] = None
        """Pool flavour of the last parallel batch (None before one ran;
        'process' silently degrades to 'thread' where fork is missing)."""

        self.batches = 0
        self.sets_discovered = 0
        self.last_batch_wall_seconds = 0.0
        self.pool_starts = 0
        self.pool_restarts = 0

        self._pool: Optional[WorkerPool] = None
        self._pool_lock = threading.Lock()
        self._counter_lock = threading.Lock()
        self._async_executor: Optional[ThreadPoolExecutor] = None

    # ------------------------------------------------------------------
    # warm-up
    # ------------------------------------------------------------------
    def warm(self, tables: Optional[Sequence[str]] = None) -> int:
        """Pre-build the αDB state discovery would fault in lazily.

        Covers the relation layer's cached column/sorted views and the
        αDB's per-family probe maps, so batch workloads pay the one-time
        construction up front instead of inside the first (timed)
        discovery, and forked workers inherit them.  Returns the number
        of views and maps built or refreshed.  Unsortable object columns
        simply have no sorted view (``sorted_view`` returns None) and
        are skipped.
        """
        db = self.adb.db
        names = list(tables) if tables is not None else db.table_names()
        built = 0
        for name in names:
            relation = db.relation(name)
            for col in relation.schema.columns:
                relation.column_array(col.name)
                relation.sorted_view(col.name)
                built += 1
        for family in self.adb.discovery.families:
            self.adb.family_map(family)
            built += 1
        return built

    # ------------------------------------------------------------------
    # persistent worker pool
    # ------------------------------------------------------------------
    def start_pool(self) -> Optional[WorkerPool]:
        """Start the persistent pool now (idempotent; None when unused).

        Called implicitly by the first parallel batch; call it explicitly
        after :meth:`warm` so forked workers inherit the warm state in
        their copy-on-write snapshot (the serving tier does exactly
        that: warm → start_pool → accept requests)."""
        if self.jobs <= 1:
            return None
        return self._ensure_pool()

    def _ensure_pool(self) -> WorkerPool:
        with self._pool_lock:
            pool = self._pool
            if (
                pool is not None
                and not pool.closed
                and isinstance(pool, ForkWorkerPool)
                and pool.fingerprint != database_fingerprint(self.system.adb.db)
            ):
                # Forked workers hold a copy-on-write snapshot; base-data
                # mutations leave them stale, so restart on a new stamp.
                pool.close()
                pool = None
                self.pool_restarts += 1
            if pool is None or pool.closed:
                pool = create_worker_pool(
                    self.adb, self._backend, self.jobs, self.executor
                )
                pool.start()
                self.pool_starts += 1
                self._pool = pool
            return pool

    def close(self) -> None:
        """Shut down the persistent pool and the async offload executor.

        The session stays usable for sequential discovery afterwards; a
        later parallel batch simply starts a fresh pool."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
            executor, self._async_executor = self._async_executor, None
        if pool is not None:
            pool.close()
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "DiscoverySession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _offload_executor(self) -> ThreadPoolExecutor:
        """Bounded executor for the async path's blocking fragments
        (lookup and whole sequential discoveries)."""
        with self._pool_lock:
            if self._async_executor is None:
                self._async_executor = ThreadPoolExecutor(
                    max_workers=max(2, self.jobs),
                    thread_name_prefix="repro-session-async",
                )
            return self._async_executor

    # ------------------------------------------------------------------
    # discovery
    # ------------------------------------------------------------------
    def discover(
        self,
        examples: Sequence[str],
        config: Optional[SquidConfig] = None,
    ) -> DiscoveryResult:
        """One sequential discovery sharing this session's warm state."""
        config = config or self.system.config
        return discover_sequential(self.adb, self._backend, examples, config)

    def discover_many(
        self,
        example_sets: Sequence[Sequence[str]],
        config: Optional[SquidConfig] = None,
    ) -> List[BatchOutcome]:
        """Discover every example set; one :class:`BatchOutcome` each.

        Output is identical for any ``jobs``/``executor`` setting — the
        fan-out only changes *where* candidate work units run, never what
        they compute.  Sets whose examples match no entity attribute come
        back with ``error`` set instead of failing the whole batch.
        """
        config = config or self.system.config
        sets = [list(s) for s in example_sets]
        start = time.perf_counter()
        if self.jobs <= 1:
            outcomes = [self._discover_one(s, config) for s in sets]
        else:
            outcomes = self._discover_parallel(sets, config)
        self.last_batch_wall_seconds = time.perf_counter() - start
        with self._counter_lock:
            self.batches += 1
            self.sets_discovered += sum(1 for o in outcomes if o.ok)
        return outcomes

    def _discover_one(self, examples: List[str], config: SquidConfig) -> BatchOutcome:
        outcome = BatchOutcome(examples=examples)
        try:
            result = discover_sequential(self.adb, self._backend, examples, config)
        except ExampleLookupError as exc:
            outcome.error = exc
            return outcome
        outcome.result = result
        assert result.aggregate_timings is not None
        outcome.seconds = result.aggregate_timings.wall_seconds
        return outcome

    def _discover_parallel(
        self, sets: List[List[str]], config: SquidConfig
    ) -> List[BatchOutcome]:
        outcomes = [BatchOutcome(examples=s) for s in sets]
        contexts: Dict[int, PipelineContext] = {}
        units: List[Tuple[int, int]] = []
        # Shared per-set lookup stays in the caller: it is one inverted-
        # index probe, and doing it up front lets the fan-out see every
        # unit at once.
        for i, examples in enumerate(sets):
            check_example_count(examples, config)
            ctx = PipelineContext(
                adb=self.adb, backend=self._backend, config=config, examples=examples
            )
            try:
                LOOKUP_STAGE(ctx)
            except ExampleLookupError as exc:
                outcomes[i].error = exc
                continue
            assert ctx.matches is not None
            contexts[i] = ctx
            units.extend((i, j) for j in range(len(ctx.matches)))

        pool = self._ensure_pool()
        self.executor_used = pool.kind
        results = self._fan_out_pool(pool, units, contexts, sets, config)

        for i, ctx in contexts.items():
            assert ctx.matches is not None
            candidates = [results[(i, j)] for j in range(len(ctx.matches))]
            aggregate = DiscoveryTimings(
                lookup_seconds=ctx.timings.lookup_seconds
            )
            for candidate in candidates:
                aggregate.accumulate(candidate.timings)
            best = select_best(candidates)
            best.aggregate_timings = aggregate
            outcomes[i].result = best
            outcomes[i].seconds = aggregate.cpu_seconds
        return outcomes

    def _fan_out_pool(
        self,
        pool: WorkerPool,
        units: List[Tuple[int, int]],
        contexts: Dict[int, PipelineContext],
        sets: List[List[str]],
        config: SquidConfig,
    ) -> Dict[Tuple[int, int], DiscoveryResult]:
        tokens = {i: pool.new_token() for i in contexts}
        futures = {}
        for i, j in units:
            ctx = contexts[i]
            assert ctx.matches is not None
            futures[(i, j)] = pool.submit_unit(
                tokens[i], sets[i], j, config, ctx.matches
            )
        results: Dict[Tuple[int, int], DiscoveryResult] = {}
        try:
            for (i, j), future in futures.items():
                result = future.result()
                # Workers never re-run lookup; attribute the parent's
                # shared lookup time like every other fan-out path.
                result.timings.lookup_seconds = contexts[i].timings.lookup_seconds
                results[(i, j)] = result
        finally:
            pool.forget(list(tokens.values()))
        pool.note_batch_served()
        return results

    # ------------------------------------------------------------------
    # async discovery (the serving path)
    # ------------------------------------------------------------------
    async def discover_async(
        self,
        examples: Sequence[str],
        config: Optional[SquidConfig] = None,
    ) -> BatchOutcome:
        """One discovery as a coroutine; safe to run many concurrently.

        The blocking fragments (the shared lookup and — when no pool is
        active — the whole sequential discovery)
        run on a bounded offload executor; candidate units go through the
        persistent worker pool, whose futures await natively.  Results
        are identical to :meth:`discover_many`: the async path changes
        *where* units run, never what they compute.
        """
        config = config or self.system.config
        examples = list(examples)
        loop = asyncio.get_running_loop()
        outcome = BatchOutcome(examples=examples)
        if self.jobs <= 1:
            outcome = await loop.run_in_executor(
                self._offload_executor(), self._discover_one, examples, config
            )
            self._count_outcomes([outcome])
            return outcome

        def prepare() -> PipelineContext:
            check_example_count(examples, config)
            ctx = PipelineContext(
                adb=self.adb,
                backend=self._backend,
                config=config,
                examples=examples,
            )
            LOOKUP_STAGE(ctx)
            return ctx

        try:
            ctx = await loop.run_in_executor(self._offload_executor(), prepare)
        except ExampleLookupError as exc:
            outcome.error = exc
            self._count_outcomes([outcome])
            return outcome
        assert ctx.matches is not None
        pool = self._ensure_pool()
        self.executor_used = pool.kind
        token = pool.new_token()
        try:
            candidates = list(
                await asyncio.gather(
                    *(
                        asyncio.wrap_future(
                            pool.submit_unit(
                                token, examples, j, config, ctx.matches
                            )
                        )
                        for j in range(len(ctx.matches))
                    )
                )
            )
        finally:
            pool.forget([token])
        aggregate = DiscoveryTimings(lookup_seconds=ctx.timings.lookup_seconds)
        for candidate in candidates:
            candidate.timings.lookup_seconds = ctx.timings.lookup_seconds
            aggregate.accumulate(candidate.timings)
        best = select_best(candidates)
        best.aggregate_timings = aggregate
        outcome.result = best
        outcome.seconds = aggregate.cpu_seconds
        self._count_outcomes([outcome])
        return outcome

    async def discover_many_async(
        self,
        example_sets: Sequence[Sequence[str]],
        config: Optional[SquidConfig] = None,
    ) -> List[BatchOutcome]:
        """Discover every example set concurrently; same output order and
        same :class:`BatchOutcome` semantics as :meth:`discover_many`."""
        start = time.perf_counter()
        outcomes = list(
            await asyncio.gather(
                *(self.discover_async(s, config) for s in example_sets)
            )
        )
        self.last_batch_wall_seconds = time.perf_counter() - start
        with self._counter_lock:
            self.batches += 1
        return outcomes

    def _count_outcomes(self, outcomes: Sequence[BatchOutcome]) -> None:
        with self._counter_lock:
            self.sets_discovered += sum(1 for o in outcomes if o.ok)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Session counters: probe maps, query cache, engine routing."""
        out: Dict[str, Any] = {
            "batches": self.batches,
            "sets_discovered": self.sets_discovered,
            "last_batch_wall_seconds": self.last_batch_wall_seconds,
            "jobs": self.jobs,
            "executor": self.executor_used or self.executor,
        }
        out.update(self.adb.probe_stats())
        with self._pool_lock:
            pool = self._pool
        if pool is not None:
            out.update(pool.stats())
            out["pool_starts"] = self.pool_starts
            out["pool_restarts"] = self.pool_restarts
        cache = self.system.cache_stats()
        if cache is not None:
            out.update({f"cache_{k}": v for k, v in cache.items()})
        engine = self.system.backend_stats()
        if engine is not None:
            out.update({f"engine_{k}": v for k, v in engine.items()})
        return out
