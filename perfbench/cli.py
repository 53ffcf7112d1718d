"""Command line of the benchmark: one workload, one JSON result line."""

from __future__ import annotations

import argparse
import gc
import json
import sys

from . import bench, metrics, tracing


def measure(bench_obj):
    """Untraced run: end-to-end metrics plus (attempted, failed, violations)."""
    system, server, setup = bench_obj.setup(bench.SETUP_REPS)
    try:
        f1 = bench_obj.f1_mean(system)
        phase = bench_obj.run(system, server)
        failed = phase.failures + bench_obj.check(
            bench.reference_system(system),
            phase.requests[phase.checked:], phase.responses[phase.checked:],
        )
        bench_obj.top_up_writes(system, phase)
        if bench_obj.workload == "imdb-writes":
            extra, more = bench_obj.check_from_scratch(system, server, phase)
        else:
            extra, more = bench_obj.serve_and_check(
                system, server, phase, bench.reference_system(system)
            )
        failed += more
        attempted = len(phase.requests) + extra + len(phase.writes)
        values = metrics.end_to_end(phase, setup, f1)
        report = {
            "requests": len(phase.latency),
            "p99_wall_ms": bench.quantile_ms(phase.latency, 99),
            "writes": len(phase.writes),
            "setup_samples": len(setup),
            "f1_sets": len(bench_obj.f1_sets),
            "skipped_sets": bench_obj.skipped,
        }
        return values, attempted, failed, bench_obj.invariants(phase), report
    finally:
        server.close()


def measure_traced(bench_obj):
    """Untraced pass, then the same requests traced on a fresh build."""
    system, server, _ = bench_obj.setup(1)
    try:
        plain = bench_obj.run(system, server)
        failed = plain.failures + bench_obj.check(
            bench.reference_system(system),
            plain.requests[plain.checked:], plain.responses[plain.checked:],
        )
    finally:
        server.close()
    del system, server
    gc.collect()

    tracer = tracing.Tracer()
    tracer.install_functions()
    try:
        system, server, _ = bench_obj.build()
        tracer.install_system(system, server)
        try:
            traced = bench_obj.run(
                system, server, replay=plain, tracer=tracer, verify=False
            )
        finally:
            server.close()
    finally:
        tracer.uninstall()
    differ = sum(
        bench.canonical(a) != bench.canonical(b)
        for a, b in zip(plain.responses, traced.responses)
    ) + abs(len(plain.responses) - len(traced.responses))
    if differ:
        print(f"perfbench: {differ} traced responses differ from untraced", file=sys.stderr)
    failed += differ
    attempted = len(plain.requests) + len(plain.writes)
    values = metrics.per_layer(plain, traced, tracer.spans)
    report = {"requests": len(traced.requests), "spans": len(tracer.spans)}
    return values, attempted, failed, bench_obj.invariants(plain), report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one perfbench workload.")
    parser.add_argument("--workload", required=True, choices=bench.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    bench_obj = bench.Bench(args.workload, args.seed, args.seconds)
    if args.trace:
        values, attempted, failed, violations, report = measure_traced(bench_obj)
        catalogue = metrics.PER_LAYER
    else:
        values, attempted, failed, violations, report = measure(bench_obj)
        catalogue = metrics.END_TO_END
    for violation in violations:
        print(f"perfbench: {violation}", file=sys.stderr)
    report.update(workload=args.workload, seed=args.seed, violations=violations)
    print(json.dumps({"report": report}, sort_keys=True))
    result = {
        "correct": failed == 0 and not violations,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in catalogue},
    }
    print(json.dumps(result))
    return 0
