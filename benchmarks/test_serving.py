"""Serving: concurrent requests vs the sequential loop.

A :class:`~repro.serve.DiscoveryServer` answers a large distinct request
stream ``CONCURRENCY``-way concurrent over generated IMDb data,
byte-compared against :func:`~repro.serve.sequential_response`.  The
byte-identity assertion runs at every profile — it is the serving
correctness contract.  The concurrent-vs-sequential speedup is recorded
(≈1.1x at ``medium`` with the default thread pool: per-request wall is a
few milliseconds and largely GIL-bound, so overlap buys little on one
process) and gated only against a generous regression floor — a drop
below it means concurrency went *serialised* (a lock held across a
request, a pool deadlock), which is the failure mode worth catching.
A synthetic request stream replays the same contract on a
:mod:`repro.synth` scenario.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List

import pytest

from repro.core import SquidConfig, SquidSystem
from repro.datasets import imdb
from repro.eval import emit, format_table, latency_summary
from repro.eval.sampling import sample_example_sets
from repro.serve import (
    DiscoveryServer,
    encode_response,
    replay_requests,
    sequential_response,
)
from repro.synth import (
    default_scenario_config,
    generate_scenario,
    request_stream,
    sequential_responses as synth_sequential_responses,
)
from repro.workloads import imdb_queries

from conftest import PROFILE, profile_sizes

SEED = 11
JOBS = 2
#: Regression floor, not a speed target: concurrent admission must never
#: serialise (ratios land ≈1.0–1.2 on an idle machine; a lock held
#: across requests or a deadlocked pool lands far below).
SERVE_SPEEDUP_FLOOR = 0.6
CONCURRENCY = 8


def _fresh_system() -> SquidSystem:
    size, _, _ = profile_sizes()
    # analyze=True: every served query passes the plan-verifier gate, so
    # the smoke also exercises the gate's memo under concurrency.
    return SquidSystem.build(
        imdb.generate(size), imdb.metadata(), SquidConfig(analyze=True)
    )


@pytest.mark.benchmark(group="serving")
def test_concurrent_serving_byte_identical_and_fast(benchmark):
    def run():
        squid = _fresh_system()
        registry = imdb_queries.build_registry()
        sets: List[List[str]] = []
        for workload in registry:
            values = workload.ground_truth_examples(squid.adb.db)
            for size in (2, 4, 6, 8):
                sets.extend(sample_example_sets(values, size, 2, SEED))
        requests = [
            {"id": i, "examples": s} for i, s in enumerate(sets)
        ]
        expected = [
            encode_response(sequential_response(squid, r)) for r in requests
        ]
        server = DiscoveryServer(squid, jobs=JOBS)

        async def one_at_a_time():
            responses = []
            for request in requests:
                responses.append(await server.handle(request))
            return responses

        async def concurrent():
            admission = asyncio.Semaphore(CONCURRENCY)

            async def admit(request):
                async with admission:
                    return await server.handle(request)

            return await asyncio.gather(*(admit(r) for r in requests))

        # untimed warm-up: fault caches in once so neither arm absorbs
        # one-time construction cost
        asyncio.run(one_at_a_time())
        start = time.perf_counter()
        sequential_responses = asyncio.run(one_at_a_time())
        sequential_s = time.perf_counter() - start
        start = time.perf_counter()
        concurrent_responses = asyncio.run(concurrent())
        concurrent_s = time.perf_counter() - start
        latencies = [r["seconds"] for r in concurrent_responses]
        server.close()
        return (
            expected,
            sequential_responses,
            sequential_s,
            concurrent_responses,
            concurrent_s,
            latencies,
        )

    (
        expected,
        sequential_responses,
        sequential_s,
        concurrent_responses,
        concurrent_s,
        latencies,
    ) = benchmark.pedantic(run, rounds=1, iterations=1)

    def canonical(response: Dict) -> str:
        response = dict(response)
        response.pop("seconds", None)
        return encode_response(response)

    speedup = sequential_s / concurrent_s
    emit(
        "serving_concurrency",
        format_table(
            [
                {
                    "profile": PROFILE,
                    "requests": len(expected),
                    "concurrency": CONCURRENCY,
                    "sequential_s": round(sequential_s, 3),
                    "concurrent_s": round(concurrent_s, 3),
                    "speedup": round(speedup, 2),
                    **latency_summary(latencies),
                }
            ],
            title=f"Concurrent serving ({CONCURRENCY}-way) vs sequential "
            "request loop (IMDb)",
        ),
    )
    # ≥ 8 concurrent requests, byte-identical to the sequential loop and
    # to the blocking reference responses — at every profile.
    assert len(expected) >= CONCURRENCY
    assert [canonical(r) for r in sequential_responses] == expected
    assert [canonical(r) for r in concurrent_responses] == expected
    assert speedup >= SERVE_SPEEDUP_FLOOR, (
        f"concurrent serving {concurrent_s:.3f}s vs sequential loop "
        f"{sequential_s:.3f}s — ratio {speedup:.2f}x fell below the "
        f"{SERVE_SPEEDUP_FLOOR}x regression floor (concurrent admission "
        f"appears serialised)"
    )


@pytest.mark.benchmark(group="serving")
@pytest.mark.parametrize("scenario_seed", [0, 8])
def test_synthetic_request_stream_replay(benchmark, scenario_seed):
    """Serving over synthetic traffic: a seed-deterministic scenario's
    intents replayed through the concurrent server must be byte-identical
    to the sequential reference loop — the same contract as the IMDb
    stream, exercised on schemas/data that never existed before this
    seed."""

    def run():
        scenario = generate_scenario(default_scenario_config(scenario_seed))
        squid = SquidSystem.build(
            scenario.db, scenario.metadata, SquidConfig(analyze=True)
        )
        requests = list(
            request_stream(scenario, count=3 * len(scenario.intents))
        )
        expected = synth_sequential_responses(squid, requests)
        server = DiscoveryServer(squid, jobs=JOBS)
        start = time.perf_counter()
        responses = asyncio.run(
            replay_requests(server, requests, max_pending=CONCURRENCY)
        )
        elapsed = time.perf_counter() - start
        server.close()
        return scenario.name, requests, expected, responses, elapsed

    name, requests, expected, responses, elapsed = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    def canonical(response: Dict) -> str:
        response = dict(response)
        response.pop("seconds", None)
        return encode_response(response)

    emit(
        "serving_synth",
        format_table(
            [
                {
                    "scenario": name,
                    "requests": len(requests),
                    "concurrency": CONCURRENCY,
                    "concurrent_s": round(elapsed, 3),
                    "throughput_req_per_s": round(len(requests) / elapsed, 1),
                }
            ],
            title="Synthetic request-stream replay through the "
            "concurrent server",
        ),
    )
    assert len(requests) >= CONCURRENCY
    assert [r["id"] for r in responses] == [r["id"] for r in requests]
    assert [canonical(r) for r in responses] == expected
