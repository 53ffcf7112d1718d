"""The benchmark's own checks: design invariants, determinism, tracing.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.core import pipeline
from repro.datasets import imdb

from perfbench import bench, inputs, metrics, tracing

ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# workload-design invariants
# ----------------------------------------------------------------------
def test_cold_needs_evictions_and_distinct_sets():
    fine = bench.design_violations("imdb-cold", [("a", "b"), ("a", "c")], 3, [], [])
    assert fine == []
    no_evictions = bench.design_violations("imdb-cold", [("a", "b")], 0, [], [])
    assert any("never evicted" in v for v in no_evictions)
    repeated = bench.design_violations("imdb-cold", [("a", "b"), ("b", "a")], 3, [], [])
    assert any("repeated" in v for v in repeated)


def test_hot_needs_zero_evictions_and_a_punctual_generator():
    assert bench.design_violations("imdb-hot", [], 0, [], [0.0001] * 5) == []
    evicting = bench.design_violations("imdb-hot", [], 2, [], [])
    assert any("evictions" in v for v in evicting)
    late = bench.design_violations("imdb-hot", [], 0, [], [1.0] * 5)
    assert any("late" in v for v in late)


def test_writes_need_rematerialisation():
    assert bench.design_violations("imdb-writes", [], 0, [28, 28], []) == []
    assert bench.design_violations("imdb-writes", [], 0, [28, 0], [])
    assert bench.design_violations("imdb-writes", [], 0, [], [])


# ----------------------------------------------------------------------
# seeding
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def schedules():
    """Schedules of every workload for seeds 1, 1 again and 2."""
    size = imdb.ImdbSize.small()
    return {
        (workload, seed, copy): json.dumps(
            bench.Bench(workload, seed, 2.0, size).schedule(), sort_keys=True
        ).encode()
        for workload in bench.WORKLOADS
        for seed, copy in ((1, 0), (1, 1), (2, 0))
    }


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_same_seed_same_schedule(schedules, workload):
    assert schedules[(workload, 1, 0)] == schedules[(workload, 1, 1)]


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_other_seed_other_schedule(schedules, workload):
    assert schedules[(workload, 1, 0)] != schedules[(workload, 2, 0)]


def test_stream_never_repeats_a_set():
    size = imdb.ImdbSize.small()
    db = inputs.make_database(size)
    sets, _ = inputs.example_sets(
        inputs.intents(db), inputs.CastPartners(db), 3, "cold", 2000
    )
    assert len({frozenset(examples) for _, examples in sets}) == len(sets)


def test_f1_sets_take_the_same_number_per_intent():
    sets = [("b", ["1"]), ("a", ["2"]), ("b", ["3"]), ("a", ["4"]), ("b", ["5"])]
    assert bench.stratified(sets, 2) == [
        ("a", ["2"]), ("a", ["4"]), ("b", ["1"]), ("b", ["3"])
    ]
    with pytest.raises(RuntimeError):
        bench.stratified(sets, 3)


def test_clone_gives_fresh_relations():
    db = inputs.make_database(imdb.ImdbSize.small())
    copy = inputs.clone_database(db)
    for name in db.table_names():
        assert list(copy.relation(name).rows()) == list(db.relation(name).rows())
        assert copy.relation(name).uid != db.relation(name).uid


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
def test_self_time_subtracts_the_union_of_children():
    spans = [
        tracing.Span(1, 0, 1, "request", 0, 100),
        tracing.Span(2, 1, 1, "a", 10, 40),
        tracing.Span(3, 1, 1, "b", 30, 60),  # overlaps a
        tracing.Span(4, 2, 1, "c", 15, 20),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {1: 50, 2: 25, 3: 30, 4: 5}


def test_uninstall_restores_every_binding():
    before = {(m.__name__, a): getattr(m, a) for m, a, _, _ in tracing.FUNCTIONS}
    tracer = tracing.Tracer()
    tracer.install_functions()
    assert pipeline.discover_contexts is not before[(pipeline.__name__, "discover_contexts")]
    tracer.uninstall()
    after = {(m.__name__, a): getattr(m, a) for m, a, _, _ in tracing.FUNCTIONS}
    assert after == before


def test_executor_work_is_parented_to_its_request():
    tracer = tracing.Tracer()
    worker = tracer.wrap(lambda: threading.current_thread().name, "work")

    async def one(request_id):
        with tracer.span("request", request=request_id):
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(pool, worker)

    async def both():
        return await asyncio.gather(one(1), one(2))

    with ThreadPoolExecutor(max_workers=2) as pool:
        bench.run_async(both(), tracer)
    by_id = {span.span_id: span for span in tracer.spans}
    work = [span for span in tracer.spans if span.name == "work"]
    assert len(work) == 2
    for span in work:
        assert by_id[span.parent].name == "request"
        assert by_id[span.parent].request == span.request


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(bench.WORKLOADS)
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    assert declared == [(m.name, m.unit, m.better) for m in metrics.END_TO_END]
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert declared == [(m.name, m.unit, m.better) for m in metrics.PER_LAYER]


# ----------------------------------------------------------------------
# a whole run
# ----------------------------------------------------------------------
def test_short_writes_run_checks_clean():
    """Reads, writes, the per-segment and from-scratch checks and the
    metrics of a short imdb-writes run on the small database."""
    from perfbench import cli

    run = bench.Bench("imdb-writes", 5, 0.5, imdb.ImdbSize.small())
    values, attempted, failed, violations, report = cli.measure(run)
    assert failed == 0 and violations == []
    assert report["writes"] == bench.MIN_WRITES
    assert attempted == report["requests"] + bench.VERIFY_SETS + bench.MIN_WRITES
    assert {m.name for m in metrics.END_TO_END} <= set(values)


def test_traced_writes_run_replays_reads_and_writes():
    """The traced pass makes its writes before the same reads as the
    untraced pass and answers byte-identically."""
    from perfbench import cli

    run = bench.Bench("imdb-writes", 5, 0.5, imdb.ImdbSize.small())
    values, attempted, failed, violations, report = cli.measure_traced(run)
    assert failed == 0 and violations == []
    assert attempted >= report["requests"] + 2  # the early write and one in the run
    assert values["adb.refresh.rematerialized"] > 0
