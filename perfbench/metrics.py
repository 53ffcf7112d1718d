"""Metric catalogue and the arithmetic that turns passes into metrics.

Each per-layer metric names the module it measures and the end-to-end
metric and workload it should move; ``BENCHMARK.json`` lists the same
names, units and directions (a test keeps the two in step).  Per-layer
times are self time per request in milliseconds; counts are per request
unless the name says otherwise.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, NamedTuple, Sequence

from . import tracing
from .bench import Phase, quantile_ms


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str = ""
    """End-to-end metric and workload this layer metric should move."""


END_TO_END = (
    Metric("p50_ms", "ms", "lower"),
    Metric("p99_cpu_ms", "ms", "lower"),
    Metric("throughput_rps", "1/s", "higher"),
    Metric("f1_mean", "ratio", "higher"),
    Metric("write_p50_ms", "ms", "lower"),
    Metric("peak_rss_mb", "MiB", "lower"),
    Metric("setup_s", "s", "lower"),
)

PER_LAYER = (
    # repro.core.adb build phases (one traced build) -> setup_s, all
    Metric("adb.build.discover_s", "s", "lower", "setup_s on every workload"),
    Metric("adb.build.materialize_s", "s", "lower", "setup_s on every workload"),
    Metric("adb.build.statistics_s", "s", "lower", "setup_s on every workload"),
    Metric("adb.build.inverted_s", "s", "lower", "setup_s on every workload"),
    # repro.core.adb refresh (per refresh) -> write_p50_ms, imdb-writes
    Metric("adb.refresh.ms", "ms", "lower", "write_p50_ms on imdb-writes"),
    Metric("adb.refresh.rematerialized", "count", "lower", "write_p50_ms on imdb-writes"),
    Metric("adb.refresh.families", "count", "lower", "write_p50_ms on imdb-writes"),
    # repro.core.lookup
    Metric("lookup.ms", "ms", "lower", "p50_ms on imdb-cold"),
    Metric("lookup.candidates", "count", "lower", "p50_ms on imdb-cold"),
    # repro.core.disambiguation
    Metric("disambiguation.ms", "ms", "lower", "p99_cpu_ms on imdb-cold"),
    # repro.core.context
    Metric("context.ms", "ms", "lower", "p50_ms and throughput_rps on imdb-cold"),
    Metric("context.filters", "count", "lower", "p50_ms and throughput_rps on imdb-cold"),
    # repro.core.abduction
    Metric("abduction.ms", "ms", "lower", "p50_ms on imdb-cold"),
    Metric("abduction.selected_ratio", "ratio", "higher", "p50_ms on imdb-cold"),
    # repro.core.pipeline.prune_redundant
    Metric("prune.ms", "ms", "lower", "p99_cpu_ms on imdb-cold"),
    Metric("prune.probes", "count", "lower", "p99_cpu_ms on imdb-cold"),
    Metric("prune.dropped_ratio", "ratio", "higher", "p99_cpu_ms on imdb-cold"),
    # repro.core.base_query
    Metric("base_query.ms", "ms", "lower", "p50_ms on imdb-cold"),
    Metric("base_query.calls", "count", "lower", "p50_ms on imdb-cold"),
    # repro.core.pipeline: discover_sequential's own time
    Metric("pipeline.ms", "ms", "lower", "p50_ms on imdb-cold"),
    # repro.sql.engine and its result cache
    Metric("engine.execute.ms", "ms", "lower", "p99_cpu_ms on imdb-cold"),
    Metric("engine.execute.calls", "count", "lower", "p99_cpu_ms on imdb-cold"),
    Metric("engine.cache.ms", "ms", "lower", "p50_ms on imdb-writes and imdb-hot"),
    Metric("engine.cache.hit_rate", "ratio", "higher", "p50_ms on imdb-writes and imdb-hot"),
    Metric("engine.cache.evictions", "count", "lower", "p50_ms on imdb-cold and imdb-hot"),
    Metric("engine.cache.invalidations", "count", "lower", "throughput_rps on imdb-writes"),
    Metric("engine.async.wait_ms", "ms", "lower", "p99_wall_ms (report line) on imdb-hot (serving path only)"),
    # repro.core.session
    Metric("session.discover.wait_ms", "ms", "lower", "p99_cpu_ms on imdb-writes and imdb-hot"),
    Metric("session.probe.family_scans", "count", "lower", "throughput_rps on imdb-writes"),
    # repro.serve
    Metric("serve.handle.ms", "ms", "lower", "p99_cpu_ms on imdb-writes and imdb-hot"),
    Metric("serve.encode.ms", "ms", "lower", "p99_cpu_ms on imdb-writes and imdb-hot"),
    Metric("serve.admission_wait_ms", "ms", "lower", "p99_wall_ms (report line) on imdb-hot (open loop only)"),
    # the benchmark's own view
    Metric("unattributed.share", "ratio", "lower", "p50_ms on every workload"),
    Metric("loadgen.lateness_p99_ms", "ms", "lower", "p99_wall_ms (report line) on imdb-hot (open loop only)"),
    Metric("trace.overhead_ms", "ms", "lower", "none: traced minus untraced p50_ms"),
)

#: Span names whose self time is reported as ``<name>.ms`` per request.
_SELF_TIME = {
    "lookup": "lookup.ms",
    "disambiguation": "disambiguation.ms",
    "context": "context.ms",
    "abduction": "abduction.ms",
    "prune": "prune.ms",
    "base_query": "base_query.ms",
    "pipeline": "pipeline.ms",
    "engine.execute": "engine.execute.ms",
    "engine.cache": "engine.cache.ms",
    "engine.async": "engine.async.wait_ms",
    "session.discover": "session.discover.wait_ms",
    "serve.handle": "serve.handle.ms",
    "serve.encode": "serve.encode.ms",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(phase: Phase, setup: Sequence[float], f1: float) -> Dict[str, float]:
    """The end-to-end metrics of one untraced pass."""
    return {
        "p50_ms": quantile_ms(phase.latency, 50),
        "p99_cpu_ms": quantile_ms(phase.cpu, 99),
        "throughput_rps": _ratio(len(phase.latency), phase.busy),
        "f1_mean": f1,
        "write_p50_ms": 1000.0 * statistics.median(phase.writes),
        "peak_rss_mb": phase.peak_rss_mb,
        "setup_s": statistics.median(setup),
    }


def per_layer(plain: Phase, traced: Phase, spans: List[tracing.Span]) -> Dict[str, float]:
    """The per-layer metrics of a traced pass (``traced``) that replayed
    the untraced pass ``plain``."""
    requests = len(traced.requests)
    rows = tracing.summarize([span for span in spans if span.request > 0])

    def per_request(value: float) -> float:
        return _ratio(value, requests)

    def row(name: str) -> Dict[str, float]:
        return rows.get(name, tracing.EMPTY_ROW)

    out: Dict[str, float] = {}
    for span_name, metric in _SELF_TIME.items():
        out[metric] = per_request(row(span_name)["self_ms"])

    build = {span.name: span for span in spans if span.name.startswith("adb.build.")}
    for phase_name in ("discover", "materialize", "statistics", "inverted"):
        span = build.get(f"adb.build.{phase_name}")
        out[f"adb.build.{phase_name}_s"] = (span.end - span.start) / 1e9 if span else 0.0
    refresh = [span for span in spans if span.name == "adb.refresh"]
    out["adb.refresh.ms"] = (
        statistics.fmean((s.end - s.start) / 1e6 for s in refresh) if refresh else 0.0
    )
    reports = traced.refresh
    out["adb.refresh.rematerialized"] = (
        statistics.fmean(r["rematerialized_relations"] for r in reports) if reports else 0.0
    )
    out["adb.refresh.families"] = (
        statistics.fmean(r["recomputed_families"] for r in reports) if reports else 0.0
    )

    out["lookup.candidates"] = per_request(row("lookup")["count"])
    out["context.filters"] = per_request(row("context")["count"])
    out["abduction.selected_ratio"] = _ratio(row("abduction")["count"], row("abduction")["extra"])
    probes = row("engine.cache")["in_prune"]
    out["prune.probes"] = per_request(probes)
    out["prune.dropped_ratio"] = _ratio(row("prune")["count"], probes)
    out["base_query.calls"] = per_request(row("base_query")["calls"])
    out["engine.execute.calls"] = per_request(row("engine.execute")["calls"])

    delta = {k: traced.cache_after.get(k, 0) - traced.cache_before.get(k, 0)
             for k in ("hits", "misses", "evictions", "invalidations")}
    out["engine.cache.hit_rate"] = _ratio(delta["hits"], delta["hits"] + delta["misses"])
    out["engine.cache.evictions"] = per_request(delta["evictions"])
    out["engine.cache.invalidations"] = per_request(delta["invalidations"])
    out["session.probe.family_scans"] = per_request(traced.family_scans)
    out["serve.admission_wait_ms"] = (
        1000.0 * statistics.fmean(traced.admission) if traced.admission else 0.0
    )

    roots = row("request")
    out["unattributed.share"] = _ratio(roots["self_ms"], roots["total_ms"])
    out["loadgen.lateness_p99_ms"] = quantile_ms(plain.lateness, 99) if plain.lateness else 0.0
    out["trace.overhead_ms"] = quantile_ms(traced.latency, 50) - quantile_ms(plain.latency, 50)
    return out
