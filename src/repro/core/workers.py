"""Persistent worker pools with worker-affine unit scheduling.

A per-batch executor would re-fork its workers for every batch, and
its forked children would re-run entity lookup once per (child ×
example set), because fork-inherited state cannot be seeded after the
fact.  This module avoids both with a pool that

* **starts once** and is reused across batches (and across the serving
  tier's concurrent requests) — the fork cost and the copy-on-write
  shipping of the warm αDB (materialised probe maps, prebuilt
  column/sorted views, the loaded execution backend) are paid a single
  time;
* schedules (example set × candidate base query) units **worker-affine**:
  every unit of one example set lands on the same worker, and the first
  unit carries the parent's lookup result with it, so lookup state is
  *never* recomputed in a child.  Counters prove it
  (``lookup_reruns`` stays 0; see :meth:`WorkerPool.stats`).

Two pool flavours share one interface and one scheduling policy:

* :class:`ForkWorkerPool` — ``fork()``-spawned processes, one request
  queue per worker (affinity is the queue), one shared result queue
  drained by a collector thread that resolves the submitters' futures;
* :class:`ThreadWorkerPool` — the same layout over threads, for
  platforms without ``fork`` and for workloads where the numpy kernels
  (which release the GIL) dominate.

Submission is thread-safe and returns :class:`concurrent.futures.Future`
objects, which also makes the pool directly awaitable from asyncio via
``asyncio.wrap_future`` — that is exactly how
:meth:`repro.core.session.DiscoverySession.discover_many_async` drives
it.
"""

from __future__ import annotations

import itertools
import multiprocessing
import threading
import time
from concurrent.futures import Future
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..parallel import (
    database_fingerprint,
    default_task_workers,
    fork_available,
    fork_state_handoff,
    inherited_fork_state,
)
from .config import SquidConfig
from .pipeline import DiscoveryResult, PipelineContext, run_candidate

__all__ = [
    "ForkWorkerPool",
    "ThreadWorkerPool",
    "WorkerPool",
    "create_worker_pool",
    "database_fingerprint",
    "default_pool_workers",
]

#: Per-worker cap on cached lookup states: a worker serving an endless
#: request stream must not grow its matches cache without bound.  Sized
#: far above any realistic number of concurrently in-flight sets.
MATCHES_CACHE_LIMIT = 512

_SHUTDOWN = None


class _WorkerCore:
    """The per-worker execution loop shared by both pool flavours.

    One instance lives in each worker (forked child or thread).  It
    caches lookup state by set token: the first unit of a set ships the
    parent's matches, later units (affine — same worker by construction)
    reuse them.  ``lookup_reruns`` counts the fallback where a unit
    arrives without matches and misses the cache; the scheduler's
    affinity makes that impossible short of cache eviction, and tests
    assert it stays 0.
    """

    def __init__(self, worker_id: int, adb: Any, backend: Any) -> None:
        self.worker_id = worker_id
        self.adb = adb
        self.backend = backend
        self._matches: "Dict[int, Any]" = {}
        self.units_run = 0
        self.sets_seen = 0
        self.lookup_reruns = 0

    def _matches_for(
        self,
        token: int,
        examples: List[str],
        config: SquidConfig,
        shipped: Optional[List[Any]],
    ) -> List[Any]:
        matches = self._matches.get(token)
        if matches is not None:
            return matches
        if shipped is not None:
            matches = shipped
            self.sets_seen += 1
        else:
            # Fallback only: affinity should have shipped the state.
            from .pipeline import LOOKUP_STAGE

            ctx = PipelineContext(
                adb=self.adb,
                backend=self.backend,
                config=config,
                examples=examples,
            )
            LOOKUP_STAGE(ctx)
            matches = ctx.matches
            self.lookup_reruns += 1
        while len(self._matches) >= MATCHES_CACHE_LIMIT:
            self._matches.pop(next(iter(self._matches)))
        self._matches[token] = matches
        return matches

    def run_unit(
        self,
        token: int,
        examples: List[str],
        cand_idx: int,
        config: SquidConfig,
        shipped: Optional[List[Any]],
    ) -> DiscoveryResult:
        matches = self._matches_for(token, examples, config, shipped)
        ctx = PipelineContext(
            adb=self.adb,
            backend=self.backend,
            config=config,
            examples=examples,
            match=matches[cand_idx],
        )
        result = run_candidate(ctx)
        self.units_run += 1
        return result

    def counters(self) -> Dict[str, int]:
        return {
            "units_run": self.units_run,
            "sets_seen": self.sets_seen,
            "lookup_reruns": self.lookup_reruns,
        }


def _fork_worker_main(worker_id: int, request_q, result_q) -> None:
    """Entry point of a forked pool worker (runs until sentinel).

    The warm (αDB, backend) pair arrives through the shared
    :func:`repro.parallel.fork_state_handoff` copy-on-write global —
    never pickled."""
    adb, backend = inherited_fork_state()
    core = _WorkerCore(worker_id, adb, backend)
    while True:
        message = request_q.get()
        if message is _SHUTDOWN:
            break
        req_id, token, examples, cand_idx, config, shipped = message
        try:
            result = core.run_unit(token, examples, cand_idx, config, shipped)
            result_q.put((req_id, True, result, worker_id, core.counters()))
        except Exception as exc:  # surfaced through the submitter's future
            result_q.put((req_id, False, exc, worker_id, core.counters()))


class WorkerPool:
    """Base: affinity scheduling, futures plumbing, counters.

    Subclasses provide ``_start_workers`` / ``_send`` / ``_stop_workers``;
    everything above the transport — token allocation, least-loaded
    worker assignment, the pending-future table — is shared.
    """

    kind: str = "abstract"

    def __init__(self, adb: Any, backend: Any, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.adb = adb
        self.backend = backend
        self.workers = workers
        self.started = False
        self.closed = False
        self.batches_served = 0
        self.fingerprint: Optional[Tuple[Tuple[str, int, int], ...]] = None

        self._lock = threading.Lock()
        self._req_ids = itertools.count()
        self._tokens = itertools.count()
        self._pending: Dict[int, Tuple[Future, int]] = {}
        self._affinity: Dict[int, int] = {}
        self._inflight_per_worker: List[int] = [0] * workers
        self._shipped_tokens: set = set()
        self._worker_counters: Dict[int, Dict[str, int]] = {}

    # -- transport hooks (subclass responsibility) ---------------------
    def _start_workers(self) -> None:
        raise NotImplementedError

    def _send(self, worker_id: int, message: Any) -> None:
        raise NotImplementedError

    def _stop_workers(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "WorkerPool":
        """Spawn the workers (idempotent)."""
        if self.started:
            return self
        self.fingerprint = database_fingerprint(self.adb.db)
        self._start_workers()
        self.started = True
        return self

    def close(self) -> None:
        """Stop the workers; pending futures are failed, not abandoned."""
        if self.closed:
            return
        with self._lock:
            # set under the lock so submit_unit's locked re-check and the
            # pending-clear below cannot interleave with a late submit
            self.closed = True
        if self.started:
            self._stop_workers()
        with self._lock:
            pending = list(self._pending.values())
            self._pending.clear()
        for future, _ in pending:
            if not future.done():
                future.set_exception(RuntimeError("worker pool closed"))

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def new_token(self) -> int:
        """A fresh set token (unique across the pool's whole lifetime)."""
        return next(self._tokens)

    def submit_unit(
        self,
        token: int,
        examples: Sequence[str],
        cand_idx: int,
        config: SquidConfig,
        matches: List[Any],
    ) -> "Future[DiscoveryResult]":
        """Schedule one (example set × candidate) unit; affine by token.

        The first unit of a token picks the least-loaded worker and ships
        ``matches`` (the parent's lookup state) along; every later unit of
        the same token rides to the same worker and ships nothing.
        """
        if not self.started or self.closed:
            raise RuntimeError("worker pool is not running")
        future: "Future[DiscoveryResult]" = Future()
        with self._lock:
            # Re-check under the lock: a monitor-triggered close() may
            # have failed-and-cleared _pending between the unlocked check
            # above and here; registering after that would leave this
            # future unresolvable.
            if self.closed:
                raise RuntimeError("worker pool is not running")
            req_id = next(self._req_ids)
            worker_id = self._affinity.get(token)
            if worker_id is None:
                worker_id = min(
                    range(self.workers),
                    key=lambda w: self._inflight_per_worker[w],
                )
                self._affinity[token] = worker_id
            shipped = None
            if token not in self._shipped_tokens:
                self._shipped_tokens.add(token)
                shipped = matches
            self._pending[req_id] = (future, worker_id)
            self._inflight_per_worker[worker_id] += 1
        self._send(
            worker_id,
            (req_id, token, list(examples), cand_idx, config, shipped),
        )
        return future

    def _resolve(
        self,
        req_id: int,
        ok: bool,
        payload: Any,
        worker_id: int,
        counters: Dict[str, int],
    ) -> None:
        with self._lock:
            entry = self._pending.pop(req_id, None)
            self._inflight_per_worker[worker_id] = max(
                0, self._inflight_per_worker[worker_id] - 1
            )
            self._worker_counters[worker_id] = counters
        future = entry[0] if entry is not None else None
        if future is None or future.done():
            return
        if ok:
            future.set_result(payload)
        else:
            future.set_exception(payload)

    def note_batch_served(self) -> None:
        """Record one completed batch.  ``batches_served`` is shared with
        the owning session's concurrent batch threads, so the bump runs
        under the pool's lock — callers must never mutate the counter
        directly (the invariant linter enforces this)."""
        with self._lock:
            self.batches_served += 1

    def forget(self, tokens: Sequence[int]) -> None:
        """Drop affinity bookkeeping for finished sets (workers bound
        their own caches; the parent-side maps are trimmed here)."""
        with self._lock:
            for token in tokens:
                self._affinity.pop(token, None)
                self._shipped_tokens.discard(token)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Pool counters, aggregated over the latest per-worker reports.

        ``pool_lookup_reruns`` is the headline number: worker-affine
        scheduling plus shipped lookup state keeps it at 0 (each rerun
        would be one redundant inverted-index probe in a child).
        """
        with self._lock:
            reports = list(self._worker_counters.values())
            inflight = sum(self._inflight_per_worker)
        return {
            "pool_workers": self.workers,
            "pool_kind_" + self.kind: 1,
            "pool_batches_served": self.batches_served,
            "pool_inflight": inflight,
            "pool_units_run": sum(r["units_run"] for r in reports),
            "pool_sets_shipped": sum(r["sets_seen"] for r in reports),
            "pool_lookup_reruns": sum(r["lookup_reruns"] for r in reports),
        }


class ForkWorkerPool(WorkerPool):
    """Fork-based pool: warm state ships via copy-on-write, once."""

    kind = "process"

    #: Seconds between worker-liveness checks of the monitor thread.
    MONITOR_INTERVAL = 0.2

    def __init__(self, adb: Any, backend: Any, workers: int) -> None:
        super().__init__(adb, backend, workers)
        self._mp = multiprocessing.get_context("fork")
        self._request_queues: List[Any] = []
        self._result_queue: Any = None
        self._processes: List[Any] = []
        self._collector: Optional[threading.Thread] = None
        self._monitor: Optional[threading.Thread] = None

    def _start_workers(self) -> None:
        self._result_queue = self._mp.SimpleQueue()
        with fork_state_handoff((self.adb, self.backend)):
            for worker_id in range(self.workers):
                request_q = self._mp.SimpleQueue()
                process = self._mp.Process(
                    target=_fork_worker_main,
                    args=(worker_id, request_q, self._result_queue),
                    daemon=True,
                )
                process.start()
                self._request_queues.append(request_q)
                self._processes.append(process)
        self._collector = threading.Thread(
            target=self._collect, name="repro-pool-collector", daemon=True
        )
        self._collector.start()
        self._monitor = threading.Thread(
            target=self._watch_workers, name="repro-pool-monitor", daemon=True
        )
        self._monitor.start()

    def _collect(self) -> None:
        while True:
            message = self._result_queue.get()
            if message is _SHUTDOWN:
                break
            self._resolve(*message)

    def _watch_workers(self) -> None:
        """Fail fast instead of hanging when a forked worker dies.

        A killed child (OOM, segfault) never reports back, so without
        this its submitters would block forever on their futures.  On
        death: the dead worker's pending futures get the error, and the
        pool closes (failing the rest) — the owning session starts a
        fresh pool on its next batch.
        """
        while not self.closed:
            for worker_id, process in enumerate(self._processes):
                if self.closed:
                    return
                if not process.is_alive():
                    self._on_worker_death(worker_id, process.exitcode)
                    return
            time.sleep(self.MONITOR_INTERVAL)

    def _on_worker_death(self, worker_id: int, exitcode: Any) -> None:
        with self._lock:
            dead = [
                (req_id, future)
                for req_id, (future, owner) in self._pending.items()
                if owner == worker_id
            ]
            for req_id, _ in dead:
                del self._pending[req_id]
        error = RuntimeError(
            f"pool worker {worker_id} died (exit code {exitcode})"
        )
        for _, future in dead:
            if not future.done():
                future.set_exception(error)
        self.close()

    def _send(self, worker_id: int, message: Any) -> None:
        self._request_queues[worker_id].put(message)

    def _stop_workers(self) -> None:
        for request_q in self._request_queues:
            request_q.put(_SHUTDOWN)
        for process in self._processes:
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
                process.join(timeout=1)
        self._result_queue.put(_SHUTDOWN)
        if self._collector is not None:
            self._collector.join(timeout=5)
        # the monitor exits on its own once ``closed`` is set; never join
        # it here — worker-death handling calls close() *from* it


class ThreadWorkerPool(WorkerPool):
    """Thread-based pool: same scheduling, shared-memory transport."""

    kind = "thread"

    def __init__(self, adb: Any, backend: Any, workers: int) -> None:
        super().__init__(adb, backend, workers)
        self._queues: List[Any] = []
        self._threads: List[threading.Thread] = []

    def _start_workers(self) -> None:
        import queue

        for worker_id in range(self.workers):
            request_q: "queue.Queue" = queue.Queue()
            thread = threading.Thread(
                target=self._thread_main,
                args=(worker_id, request_q),
                name=f"repro-pool-worker-{worker_id}",
                daemon=True,
            )
            thread.start()
            self._queues.append(request_q)
            self._threads.append(thread)

    def _thread_main(self, worker_id: int, request_q) -> None:
        core = _WorkerCore(worker_id, self.adb, self.backend)
        while True:
            message = request_q.get()
            if message is _SHUTDOWN:
                break
            req_id, token, examples, cand_idx, config, shipped = message
            try:
                result = core.run_unit(
                    token, examples, cand_idx, config, shipped
                )
                self._resolve(req_id, True, result, worker_id, core.counters())
            except Exception as exc:
                self._resolve(req_id, False, exc, worker_id, core.counters())

    def _send(self, worker_id: int, message: Any) -> None:
        self._queues[worker_id].put(message)

    def _stop_workers(self) -> None:
        for request_q in self._queues:
            request_q.put(_SHUTDOWN)
        for thread in self._threads:
            thread.join(timeout=5)


def create_worker_pool(
    adb: Any,
    backend: Any,
    workers: int,
    executor: str = "process",
) -> WorkerPool:
    """Pool factory: ``process`` (falling back where fork is missing) or
    ``thread``.  The returned pool is *not* started; call ``start()``
    after the αDB is warm so the fork snapshot ships the warm state."""
    if executor == "process" and fork_available():
        return ForkWorkerPool(adb, backend, workers)
    return ThreadWorkerPool(adb, backend, workers)


def default_pool_workers() -> int:
    """A sensible pool width: the machine's cores, capped at 8."""
    return default_task_workers()
