"""The three workloads, their output checks and their metrics.

``imdb-cold``   one closed-loop client: ``serve.sequential_response``
                (``SquidSystem.discover`` plus materialising the abduced
                query) over distinct example sets; the result cache
                overflows and the session's probe maps are not used.
``imdb-hot``    an open loop of seeded Poisson arrivals into
                ``DiscoveryServer.handle``, Zipf-skewed over a small pool
                of example sets, with at most two requests in flight.
``imdb-writes`` the same client, reading through the server's
                ``DiscoverySession`` (probe maps, revalidation); half-way
                through the measured time a batch of ``castinfo`` rows is
                inserted and ``adb.refresh(["castinfo"])`` runs on the
                request path.

Every run builds the system several times from the generated database and
reports the median set-up time; it then makes one write batch, warms the
caches, measures for the requested seconds, and checks every response
against the sequential reference on the ``interpreted`` engine with the
result cache off.
"""

from __future__ import annotations

import asyncio
import gc
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import serve
from repro.core import SquidConfig, SquidSystem
from repro.datasets import imdb
from repro.eval.metrics import accuracy, percentile

from . import inputs, tracing

WORKLOADS = ("imdb-cold", "imdb-hot", "imdb-writes")

#: Builds per run; ``setup_s`` is their median.
SETUP_REPS = 3

#: Untimed requests served before timing, so lazy state and caches fill.
WARMUP_SETS = 64

#: imdb-hot arrival rate (requests/s): about half of what one closed-loop
#: client reaches on the hot stream on a 2-vCPU machine.
HOT_RATE = 100.0

#: Concurrent requests admitted by the open-loop client.
MAX_IN_FLIGHT = 2

#: imdb-writes: write batches inside the measured time, evenly spaced in
#: time so that every run has the same number whatever the machine's
#: speed; and the most batches one run can apply.  One write costs about
#: 2 s; more of them leave too few reads for a steady 99th percentile.
WRITES_PER_RUN = 1
MAX_WRITES = 64

#: Every run makes one write batch before its warm-up and ends with
#: untimed write batches until it has made this many, so
#: ``write_p50_ms`` is a median of several taken at different times of
#: the run, on every workload.
MIN_WRITES = 3

#: Reads served and checked after the last write of a run.
VERIFY_SETS = 48

#: Example sets per intent whose answer quality makes up ``f1_mean``
#: (the first ones of the stream for each intent).  The same number for
#: every intent keeps the seed's intent mix out of the mean.
F1_SETS_PER_INTENT = 32


@dataclass
class Phase:
    """What one measured pass over a workload produced."""

    requests: List[Dict[str, Any]] = field(default_factory=list)
    responses: List[Dict[str, Any]] = field(default_factory=list)
    latency: List[float] = field(default_factory=list)
    """Seconds per read; in the open loop, from when it was due."""

    cpu: List[float] = field(default_factory=list)
    """Process CPU seconds per read: the time the process ran while the
    read was served, so time the host gave to other tenants is left out.
    In the open loop it includes the other request in flight."""

    busy: float = 0.0
    """Seconds the reads took (closed loop) or the schedule span (open)."""

    admission: List[float] = field(default_factory=list)
    lateness: List[float] = field(default_factory=list)
    writes: List[float] = field(default_factory=list)
    refresh: List[Dict[str, int]] = field(default_factory=list)
    write_points: List[int] = field(default_factory=list)
    """Number of reads served before each write."""

    checked: int = 0
    """Reads before this index were checked during the pass."""

    cache_before: Dict[str, int] = field(default_factory=dict)
    cache_after: Dict[str, int] = field(default_factory=dict)
    family_scans: int = 0
    failures: int = 0
    peak_rss_mb: float = 0.0


def canonical(response: Dict[str, Any]) -> str:
    """The byte form compared by every check: ``seconds`` dropped."""
    return serve.encode_response(
        {k: v for k, v in response.items() if k != "seconds"}
    )


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_system(system: SquidSystem) -> SquidSystem:
    """The sequential reference over the same αDB state."""
    return SquidSystem(system.adb, backend="interpreted", cache_size=0)


class SessionReads:
    """The part of a system ``serve.sequential_response`` uses (``discover``
    and ``backend``), with discovery through a session and its probe maps
    (``DiscoverySession.discover``) instead of the plain αDB."""

    def __init__(self, system: SquidSystem, session) -> None:
        self.backend = system.backend
        self.session = session

    def discover(self, examples, config=None):
        return self.session.discover(examples, config)


class Bench:
    """One workload's inputs and the procedures that run it."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 size: Optional[imdb.ImdbSize] = None) -> None:
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seconds = seconds
        self.source = inputs.make_database(size)
        self.intents = inputs.intents(self.source)
        self.truth = {intent.qid: intent.keys for intent in self.intents}
        partners = inputs.CastPartners(self.source)
        if workload == "imdb-hot":
            pool, self.skipped = inputs.example_sets(
                self.intents, partners, seed, "hot", inputs.HOT_POOL_SETS
            )
            self.warmup = pool
            self.arrivals = inputs.poisson_arrivals(HOT_RATE, seconds, seed)
            draws = inputs.zipf_draws(len(pool), len(self.arrivals), seed)
            self.stream = [pool[i] for i in draws]
            self.f1_sets = pool
        else:
            sets, self.skipped = inputs.example_sets(
                self.intents, partners, seed, workload,
                WARMUP_SETS + inputs.STREAM_SETS,
            )
            self.warmup = sets[:WARMUP_SETS]
            self.stream = sets[WARMUP_SETS:]
            self.arrivals = []
            self.f1_sets = stratified(self.stream, F1_SETS_PER_INTENT)
        self.batches = inputs.write_batches(
            self.source, self.intents, seed, MAX_WRITES
        )

    def schedule(self) -> Dict[str, Any]:
        """Requests, arrival times and writes this seed gives."""
        return {
            "warmup": [examples for _, examples in self.warmup],
            "stream": [examples for _, examples in self.stream],
            "arrivals": [round(at, 9) for at in self.arrivals],
            "writes": self.batches,
        }

    # ------------------------------------------------------------------
    # set-up
    # ------------------------------------------------------------------
    def build(self) -> Tuple[SquidSystem, serve.DiscoveryServer, float]:
        """One set-up on a fresh copy of the seeded data: the αDB build
        plus the server's warm-up (data copying is not timed)."""
        db = inputs.clone_database(self.source)
        gc.collect()
        start = time.perf_counter()
        system = SquidSystem.build(db, imdb.metadata(), SquidConfig())
        server = serve.DiscoveryServer(system)
        return system, server, time.perf_counter() - start

    def setup(self, reps: int) -> Tuple[SquidSystem, serve.DiscoveryServer, List[float]]:
        """Build ``reps`` times; keep the last system."""
        samples: List[float] = []
        system = server = None
        for _ in range(reps):
            if server is not None:
                server.close()
            system = server = None  # free the previous build first
            system, server, seconds = self.build()
            samples.append(seconds)
        return system, server, samples

    # ------------------------------------------------------------------
    # measured passes
    # ------------------------------------------------------------------
    def reader(self, system, server):
        """What a closed-loop read is served by: the system itself on
        imdb-cold, the server's session on imdb-writes."""
        if self.workload == "imdb-writes":
            return SessionReads(system, server.session)
        return system

    def warm(self, system, server) -> None:
        """Serve the warm-up sets once (untimed)."""
        if self.workload != "imdb-hot":
            reader = self.reader(system, server)
            for i, (_, examples) in enumerate(self.warmup):
                serve.sequential_response(reader, inputs.request(-1 - i, examples))
            return

        async def serve_all():
            for i, (_, examples) in enumerate(self.warmup):
                await server.handle(inputs.request(-1 - i, examples))

        run_async(serve_all(), None)

    def run(self, system, server, replay: Optional[Phase] = None,
            tracer: Optional[tracing.Tracer] = None,
            verify: bool = True) -> Phase:
        """One write batch, the warm-up, then one measured pass.
        ``replay`` repeats its reads and writes exactly (the traced run
        repeats the untraced one) instead of running for
        :attr:`seconds`."""
        phase = Phase()
        self.write(system, phase, tracer)
        self.warm(system, server)
        phase.cache_before = dict(system.cache_stats() or {})
        scans_before = server.session.adb.family_scans
        if self.workload == "imdb-hot":
            run_async(self._open_hot(server, phase, tracer), tracer)
        else:
            ref = reference_system(system) if verify else None
            self._closed(system, server, phase, replay, tracer, ref)
        phase.peak_rss_mb = peak_rss_mb()
        phase.cache_after = dict(system.cache_stats() or {})
        phase.family_scans = server.session.adb.family_scans - scans_before
        return phase

    async def _open_hot(self, server, phase: Phase, tracer) -> None:
        admission = asyncio.Semaphore(MAX_IN_FLIGHT)
        slots: List[Any] = [None] * len(self.stream)

        async def one(i: int, request, due: float) -> None:
            async with admission:
                begin = time.perf_counter()
                cpu = time.process_time()
                root = tracer.span("request", request=i + 1) if tracer else nullcontext()
                with root:
                    response = await server.handle(request)
                    serve.encode_response(response)
                cpu = time.process_time() - cpu
                end = time.perf_counter()
            slots[i] = (request, response, end - due, cpu, begin - due, end)

        tasks = []
        origin = time.perf_counter() + 0.01
        for i, ((_, examples), at) in enumerate(zip(self.stream, self.arrivals)):
            due = origin + at
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            phase.lateness.append(time.perf_counter() - due)
            tasks.append(asyncio.ensure_future(one(i, inputs.request(i + 1, examples), due)))
        await asyncio.gather(*tasks)
        last = origin
        for request, response, latency, cpu, waited, end in slots:
            phase.requests.append(request)
            phase.responses.append(response)
            phase.latency.append(latency)
            phase.cpu.append(cpu)
            phase.admission.append(waited)
            last = max(last, end)
        phase.busy = last - (origin + self.arrivals[0]) if self.arrivals else 0.0

    def _closed(self, system, server, phase: Phase, replay: Optional[Phase],
                tracer, ref) -> None:
        """One client, one read at a time; on imdb-writes
        :data:`WRITES_PER_RUN` write batches, evenly spaced over the
        measured time.  Stops after :attr:`seconds` of reads and writes,
        or where ``replay`` stopped."""
        reader = self.reader(system, server)
        elapsed = 0.0  # reads and writes; phase.busy counts reads only
        start_writes = len(phase.writes)
        for i, (_, examples) in enumerate(self.stream):
            if replay is None:
                if elapsed >= self.seconds:
                    break
                made = len(phase.writes) - start_writes
                due = (self.workload == "imdb-writes" and made < WRITES_PER_RUN
                       and elapsed >= self.seconds * (made + 1) / (WRITES_PER_RUN + 1))
            else:
                if i >= len(replay.requests):
                    break
                due = i in replay.write_points[start_writes:]
            if due:
                if ref is not None:
                    # Check the reads since the last write against the
                    # reference over the same αDB state, before it moves.
                    phase.failures += self.check(
                        ref, phase.requests[phase.checked:], phase.responses[phase.checked:]
                    )
                    phase.checked = len(phase.requests)
                elapsed += self.write(system, phase, tracer)
            request = inputs.request(i + 1, examples)
            root = tracer.span("request", request=i + 1) if tracer else nullcontext()
            start = time.perf_counter()
            cpu = time.process_time()
            with root:
                try:
                    response = serve.sequential_response(reader, request)
                except Exception as exc:  # counted as a failed read
                    response = {"id": request["id"], "ok": False, "error": repr(exc)}
                serve.encode_response(response)
            cpu = time.process_time() - cpu
            seconds = time.perf_counter() - start
            phase.requests.append(request)
            phase.responses.append(response)
            phase.latency.append(seconds)
            phase.cpu.append(cpu)
            phase.busy += seconds
            elapsed += seconds
        else:
            raise RuntimeError("read stream ran dry; raise STREAM_SETS")

    def write(self, system, phase: Phase, tracer) -> float:
        """Apply the run's next write batch and refresh the αDB; returns
        its duration and records it in ``phase``."""
        index = len(phase.writes)
        if index >= len(self.batches):
            raise RuntimeError("write schedule ran dry; raise MAX_WRITES")
        start = time.perf_counter()
        inputs.apply_batch(system.adb.db, self.batches[index])
        with tracer.span("adb.refresh") if tracer else nullcontext():
            report = system.adb.refresh(["castinfo"])
        elapsed = time.perf_counter() - start
        phase.writes.append(elapsed)
        phase.refresh.append(report)
        phase.write_points.append(len(phase.requests))
        return elapsed

    def top_up_writes(self, system, phase: Phase) -> None:
        """Untimed write batches after the measured reads, up to
        :data:`MIN_WRITES` in the run."""
        while len(phase.writes) < MIN_WRITES:
            self.write(system, phase, None)

    def serve_and_check(self, system, server, phase: Phase, ref) -> Tuple[int, int]:
        """Serve :data:`VERIFY_SETS` further sets of the stream through the
        workload's path and check them against ``ref``.  Returns (reads
        served, failures)."""
        offset = len(phase.requests)
        if self.workload == "imdb-hot":
            sets = self.warmup[:VERIFY_SETS]
        else:
            sets = self.stream[offset:offset + VERIFY_SETS]
        requests = [inputs.request(offset + i + 1, ex) for i, (_, ex) in enumerate(sets)]
        if self.workload != "imdb-hot":
            reader = self.reader(system, server)
            responses = [serve.sequential_response(reader, r) for r in requests]
        else:
            async def serve_all():
                return [await server.handle(r) for r in requests]

            responses = run_async(serve_all(), None)
        return len(requests), self.check(ref, requests, responses)

    # ------------------------------------------------------------------
    # checks
    # ------------------------------------------------------------------
    def check(self, ref, requests: Sequence[Dict[str, Any]],
              responses: Sequence[Dict[str, Any]]) -> int:
        """Failed operations: error responses, exceptions and responses
        that differ from the sequential reference."""
        failures = 0
        memo: Dict[Tuple[str, ...], Dict[str, Any]] = {}
        for request, response in zip(requests, responses):
            key = tuple(request["examples"])
            try:
                expected = memo.get(key)
                if expected is None:
                    expected = serve.sequential_response(ref, dict(request, id=None))
                    memo[key] = expected
                ok = response.get("ok") is True and canonical(response) == canonical(
                    dict(expected, id=request["id"])
                )
            except Exception as exc:  # a crash in the reference is a failure too
                print(f"reference failed on {key}: {exc!r}", file=sys.stderr)
                ok = False
            if not ok:
                failures += 1
                if failures <= 3:
                    print(f"mismatch on request {request['id']}", file=sys.stderr)
        return failures

    def check_from_scratch(self, system, server, phase: Phase) -> Tuple[int, int]:
        """imdb-writes: the reads after the last write, plus
        :data:`VERIFY_SETS` more, against a from-scratch build on the
        seeded data with the same batches applied.  Returns (extra reads
        served, failures)."""
        db = inputs.clone_database(self.source)
        for batch in self.batches[: len(phase.writes)]:
            inputs.apply_batch(db, batch)
        config = SquidConfig(backend="interpreted", query_cache_size=0)
        scratch = SquidSystem.build(db, imdb.metadata(), config)
        last = phase.write_points[-1] if phase.write_points else 0
        failures = self.check(scratch, phase.requests[last:], phase.responses[last:])
        served, more = self.serve_and_check(system, server, phase, scratch)
        return served, failures + more

    def f1_mean(self, system) -> float:
        """Mean F-score of the abduced queries on :attr:`f1_sets` against
        the registry ground truth (untimed)."""
        ref = reference_system(system)
        scores = []
        for qid, examples in self.f1_sets:
            result = ref.discover(examples)
            scores.append(accuracy(ref.result_keys(result), self.truth[qid]).f_score)
        return statistics.fmean(scores)

    def invariants(self, phase: Phase) -> List[str]:
        """Workload-design violations of one measured pass."""
        return design_violations(
            self.workload,
            served=[tuple(r["examples"]) for r in phase.requests],
            evictions=phase.cache_after.get("evictions", 0)
            - phase.cache_before.get("evictions", 0),
            rematerialized=[r["rematerialized_relations"] for r in phase.refresh],
            lateness=phase.lateness,
        )


def stratified(sets: Sequence[Tuple[str, List[str]]],
               per_intent: int) -> List[Tuple[str, List[str]]]:
    """The first ``per_intent`` sets of each intent in ``sets``, grouped
    by intent."""
    by_intent: Dict[str, List[Tuple[str, List[str]]]] = {}
    for qid, examples in sets:
        chosen = by_intent.setdefault(qid, [])
        if len(chosen) < per_intent:
            chosen.append((qid, examples))
    short = [qid for qid, chosen in by_intent.items() if len(chosen) < per_intent]
    if short:
        raise RuntimeError(f"fewer than {per_intent} example sets for {short}")
    return [pair for qid in sorted(by_intent) for pair in by_intent[qid]]


def design_violations(workload: str, served: Sequence[Tuple[str, ...]],
                      evictions: int, rematerialized: Sequence[int],
                      lateness: Sequence[float]) -> List[str]:
    """What makes a pass unfit to stand for its workload:

    * imdb-cold must overflow the result cache and never repeat a set;
    * imdb-hot must not evict once warm;
    * imdb-writes must rematerialise derived relations on every write;
    * the open-loop generator must send on time (median lateness under
      one mean inter-arrival gap).
    """
    out = []
    if workload == "imdb-cold":
        if evictions <= 0:
            out.append("imdb-cold: the result cache never evicted")
        if len(set(map(frozenset, served))) != len(served):
            out.append("imdb-cold: an example set repeated")
    if workload == "imdb-hot":
        if evictions != 0:
            out.append(f"imdb-hot: {evictions} evictions after warm-up")
        if lateness and statistics.median(lateness) > 1.0 / HOT_RATE:
            out.append("imdb-hot: the open-loop generator ran late")
    if workload == "imdb-writes":
        if not rematerialized or min(rematerialized) <= 0:
            out.append("imdb-writes: a write rematerialised nothing")
    return out


def run_async(coro, tracer: Optional[tracing.Tracer]):
    """Run ``coro`` on a fresh event loop; the traced run's loop carries
    span context into executor threads."""
    factory = tracing.context_loop_factory if tracer else None
    with asyncio.Runner(loop_factory=factory) as runner:
        return runner.run(coro)


def quantile_ms(samples: Sequence[float], q: float) -> float:
    return 1000.0 * percentile(samples, q)
