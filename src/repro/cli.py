"""Command-line interface for the SQuID reproduction.

Five subcommands cover the interactive workflow::

    repro-squid discover --dataset imdb --examples "Tom Cruise;Nicole Kidman"
    repro-squid batch --dataset imdb --input sets.txt --jobs 4 --stats
    repro-squid serve --dataset imdb --jobs 4 --mode http --port 8080
    repro-squid workloads --dataset dblp
    repro-squid stats --dataset adult

``batch`` reads one example set per line (semicolon-separated values;
blank lines and ``#`` comments are skipped, ``-`` reads stdin) and
discovers them all in one :class:`~repro.core.session.DiscoverySession`,
sharing the warm αDB views and result cache and fanning candidate work
across ``--jobs`` workers.

``serve`` keeps that warm session resident and answers concurrent
discovery requests on an asyncio loop — JSON-lines over stdin/stdout by
default (all logging goes to stderr so stdout stays protocol-clean), or
a minimal HTTP endpoint with ``--mode http`` (see :mod:`repro.serve` and
``docs/serving.md``).

(or ``python -m repro.cli ...`` without the console script).
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import time
from typing import List, Optional, Sequence

from .core.config import SquidConfig
from .core.lookup import ExampleLookupError
from .core.pipeline import TooManyExamplesError
from .core.recommend import recommend_examples
from .core.squid import SquidSystem
from .datasets import adult, dblp, imdb
from .sql.engine import DEFAULT_BACKEND, available_backends
from .eval.reporting import format_table
from .workloads import adult_queries, dblp_queries, imdb_queries

_PROFILES = ("small", "base")

#: Request errors ``discover`` and ``batch`` report as one stderr line
#: (exit code 2) instead of a traceback.
_REQUEST_ERRORS = (ExampleLookupError, TooManyExamplesError)


def _build_dataset(name: str, profile: str):
    """(database, metadata, workload registry) for one dataset name.

    Besides the three paper datasets, ``synth`` (or ``synth:SEED``)
    materialises a synthetic scenario from :mod:`repro.synth` — its
    sampled ground-truth intents become the workload registry."""
    if name == "synth" or name.startswith("synth:"):
        from .synth import default_scenario_config, generate_scenario

        _, _, seed_text = name.partition(":")
        try:
            seed = int(seed_text) if seed_text else 0
        except ValueError:
            raise SystemExit(f"bad synth seed {seed_text!r} (use synth:123)")
        scenario = generate_scenario(default_scenario_config(seed))
        return scenario.db, scenario.metadata, scenario.registry()
    if name == "imdb":
        size = imdb.ImdbSize.small() if profile == "small" else imdb.ImdbSize.base()
        db = imdb.generate(size)
        return db, imdb.metadata(), imdb_queries.build_registry()
    if name == "dblp":
        size = dblp.DblpSize.small() if profile == "small" else dblp.DblpSize.base()
        db = dblp.generate(size)
        return db, dblp.metadata(), dblp_queries.build_registry()
    if name == "adult":
        size = adult.AdultSize.small() if profile == "small" else adult.AdultSize.base()
        db = adult.generate(size)
        return db, adult.metadata(), adult_queries.generate_queries(db, count=20)
    raise SystemExit(
        f"unknown dataset {name!r} (choose imdb, dblp, adult, or synth[:SEED])"
    )


def _squid_config(args: argparse.Namespace) -> SquidConfig:
    """Build the run configuration from the shared CLI knobs."""
    return SquidConfig(
        rho=args.rho,
        tau_a=args.tau_a,
        backend=args.backend,
        shards=args.shards,
        jobs=args.jobs,
        executor=args.executor,
        analyze=args.analyze,
    )


def _print_run_stats(squid: SquidSystem, session=None) -> None:
    """The ``--stats`` report: cache, engine routing, session counters."""
    rows = []
    cache = squid.cache_stats()
    if cache is not None:
        rows += [{"counter": f"cache_{k}", "value": v} for k, v in cache.items()]
    engine = squid.backend_stats()
    if engine is not None:
        rows += [{"counter": f"engine_{k}", "value": v} for k, v in engine.items()]
    if session is not None:
        rows += [
            {"counter": k, "value": v}
            for k, v in session.stats().items()
            if not k.startswith(("cache_", "engine_"))
        ]
    if rows:
        print("\n" + format_table(rows, title="run statistics"))


def _cmd_discover(args: argparse.Namespace) -> int:
    db, metadata, _ = _build_dataset(args.dataset, args.profile)
    examples = [part.strip() for part in args.examples.split(";") if part.strip()]
    if not examples:
        print("no examples given (use --examples 'A;B;C')", file=sys.stderr)
        return 2
    config = _squid_config(args)
    start = time.perf_counter()
    squid = SquidSystem.build(db, metadata, config)
    build_seconds = time.perf_counter() - start

    session = squid.session() if args.jobs > 1 else None
    start = time.perf_counter()
    try:
        if session is not None:
            outcome = session.discover_many([examples])[0]
            if outcome.error is not None:
                raise outcome.error
            result = outcome.result
        else:
            result = squid.discover(examples)
    except _REQUEST_ERRORS as exc:
        print(f"discover: {exc}", file=sys.stderr)
        if session is not None:
            session.close()
        return 2
    discover_seconds = time.perf_counter() - start

    print(f"offline αDB build: {build_seconds:.2f}s; discovery: "
          f"{discover_seconds * 1000:.1f}ms "
          f"[backend: {squid.backend_name}]\n")
    print(result.explain())
    print("\nabduced query (αDB form):")
    print(result.sql)
    print("\nequivalent query on the original schema:")
    print(result.original_sql)
    values = squid.result_values(result)
    print(f"\nresult ({len(values)} tuples):")
    for value in sorted(map(str, values))[: args.limit]:
        print(f"  {value}")
    if len(values) > args.limit:
        print(f"  ... ({len(values) - args.limit} more)")
    if args.recommend:
        suggestions = recommend_examples(squid, result, k=args.recommend)
        if suggestions:
            print("\nsuggested additional examples (sharpen borderline filters):")
            for rec in suggestions:
                why = ", ".join(rec.discriminates) or "diversity"
                print(f"  {rec.display}  [{why}]")
    if args.show_stats:
        _print_run_stats(squid, session)
    if session is not None:
        session.close()
    return 0


def _read_example_sets(path: str) -> List[List[str]]:
    """Parse a batch input file: one semicolon-separated set per line."""
    if path == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    sets: List[List[str]] = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        examples = [part.strip() for part in line.split(";") if part.strip()]
        if examples:
            sets.append(examples)
    return sets


def _cmd_batch(args: argparse.Namespace) -> int:
    sets = _read_example_sets(args.input)
    if not sets:
        print("no example sets in input (one 'A;B;C' line per set)",
              file=sys.stderr)
        return 2
    db, metadata, _ = _build_dataset(args.dataset, args.profile)
    config = _squid_config(args)
    start = time.perf_counter()
    squid = SquidSystem.build(db, metadata, config)
    build_seconds = time.perf_counter() - start

    session = squid.session()
    session.warm()
    try:
        outcomes = session.discover_many(sets)
    except _REQUEST_ERRORS as exc:
        print(f"batch: {exc}", file=sys.stderr)
        session.close()
        return 2
    wall = session.last_batch_wall_seconds
    ok = sum(1 for o in outcomes if o.ok)
    print(
        f"offline αDB build: {build_seconds:.2f}s; batch of {len(sets)} "
        f"example sets: {wall * 1000:.1f}ms total "
        f"({ok} discovered, {len(sets) - ok} failed) "
        f"[backend: {squid.backend_name}, jobs: {session.jobs}, "
        f"executor: {session.executor_used or 'sequential'}]\n"
    )
    for i, outcome in enumerate(outcomes):
        label = "; ".join(outcome.examples)
        if not outcome.ok:
            print(f"[{i}] {label}\n    ERROR: {outcome.error}")
            continue
        result = outcome.result
        cardinality = len(squid.result_keys(result))
        print(
            f"[{i}] {label}  ({outcome.seconds * 1000:.1f}ms, "
            f"{cardinality} tuples)"
        )
        print("    " + result.sql.replace("\n", "\n    "))
    if args.show_stats:
        _print_run_stats(squid, session)
    session.close()
    return 0 if ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the async serving loop (stdio JSON-lines or HTTP)."""
    from .serve import DiscoveryServer, serve_http_forever, serve_stdio

    log = sys.stderr
    db, metadata, _ = _build_dataset(args.dataset, args.profile)
    config = _squid_config(args)
    start = time.perf_counter()
    squid = SquidSystem.build(db, metadata, config)
    server = DiscoveryServer(squid, jobs=args.jobs, executor=args.executor)
    print(
        f"αDB built and session warmed in {time.perf_counter() - start:.2f}s "
        f"[backend: {squid.backend_name}, jobs: {server.session.jobs}, "
        f"executor: {server.session.executor}, mode: {args.mode}]",
        file=log,
        flush=True,
    )
    try:
        if args.mode == "http":
            asyncio.run(serve_http_forever(server, args.host, args.port, log))
        else:
            served = asyncio.run(
                serve_stdio(server, max_pending=args.max_pending)
            )
            print(f"served {served} requests", file=log, flush=True)
    except KeyboardInterrupt:
        print("interrupted", file=log, flush=True)
    finally:
        if args.show_stats:
            from .eval.reporting import format_table

            rows = [
                {"counter": key, "value": value}
                for key, value in server.stats_snapshot().items()
            ]
            print(format_table(rows, title="serving statistics"), file=log)
        server.close()
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    """Synthetic scenarios: generate / fuzz / replay-corpus."""
    from .synth import (
        default_corpus_dir,
        default_scenario_config,
        entry_passes,
        fuzz_seeds,
        generate_scenario,
        load_corpus,
        parse_seed_range,
    )

    if args.mode == "generate":
        rows = []
        for seed in parse_seed_range(args.seeds):
            scenario = generate_scenario(default_scenario_config(seed))
            summary = scenario.summary()
            example_sets = summary.pop("example_sets")
            rows.append(summary)
            if args.verbose:
                for intent, examples in zip(scenario.intents, example_sets):
                    print(
                        f"{scenario.name}/{intent.index}: "
                        f"{intent.spec.describe()}  "
                        f"(|GT|={len(intent.ground_truth)}, "
                        f"examples: {'; '.join(examples)})"
                    )
        print(format_table(rows, title="synthetic scenarios"))
        return 0

    if args.mode == "fuzz":
        corpus_dir = None
        if args.write_failures:
            corpus_dir = args.corpus or str(default_corpus_dir())
        report = fuzz_seeds(
            parse_seed_range(args.seeds),
            strict_gt=args.strict_gt,
            corpus_dir=corpus_dir,
            progress=print if args.verbose else None,
        )
        print(report.summary())
        return 0 if report.ok else 1

    # replay-corpus
    entries = load_corpus(args.corpus or None)
    if not entries:
        print("corpus is empty — nothing to replay")
        return 0
    failed = 0
    for entry in entries:
        ok = entry_passes(entry)
        status = "ok" if ok else "FAIL"
        print(
            f"[{status}] {entry.entry_id} (kind: {entry.kind}, "
            f"expect: {entry.expect})"
        )
        if not ok:
            failed += 1
    print(f"{len(entries) - failed}/{len(entries)} corpus entries hold")
    return 1 if failed else 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    db, _, registry = _build_dataset(args.dataset, args.profile)
    rows = []
    for workload in registry:
        rows.append(
            {
                "qid": workload.qid,
                "cardinality": workload.cardinality(db),
                "joins": workload.num_joins,
                "selections": workload.num_selections,
                "description": workload.description[:60],
            }
        )
    print(format_table(rows, title=f"{args.dataset} benchmark workloads"))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    db, metadata, _ = _build_dataset(args.dataset, args.profile)
    squid = SquidSystem.build(db, metadata)
    summary = squid.adb.size_summary()
    rows = [{"metric": key, "value": value} for key, value in summary.items()]
    print(format_table(rows, title=f"{args.dataset} αDB statistics"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-squid",
        description="SQuID reproduction: query intent discovery by example",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_options(cmd: argparse.ArgumentParser) -> None:
        """Knobs shared by the single-set and batch discovery commands."""
        cmd.add_argument("--profile", choices=_PROFILES, default="small")
        cmd.add_argument("--rho", type=float, default=0.1)
        cmd.add_argument("--tau-a", dest="tau_a", type=float, default=5.0)
        cmd.add_argument("--backend", choices=available_backends(),
                         default=DEFAULT_BACKEND,
                         help="query execution engine")
        cmd.add_argument("--shards", type=int, default=0,
                         help="shard workers of the sharded engine "
                              "(0 = auto: cores, capped at 8)")
        cmd.add_argument("--jobs", type=int, default=1,
                         help="worker-pool width for candidate fan-out")
        cmd.add_argument("--executor", choices=("thread", "process"),
                         default="thread",
                         help="worker pool flavour when --jobs > 1")
        cmd.add_argument("--analyze", action="store_true",
                         help="statically verify every query before "
                              "execution (repro.analysis plan-verifier "
                              "gate; rejections and warnings show up as "
                              "engine_analyze_* counters under --stats)")
        cmd.add_argument("--stats", dest="show_stats", action="store_true",
                         help="print cache/engine/session counters after "
                              "discovery")

    discover = sub.add_parser("discover", help="abduce a query from examples")
    discover.add_argument("--dataset", required=True)
    discover.add_argument("--examples", required=True,
                          help="semicolon-separated example values")
    discover.add_argument("--limit", type=int, default=25)
    discover.add_argument("--recommend", type=int, default=0,
                          help="also suggest N further examples")
    add_run_options(discover)
    discover.set_defaults(func=_cmd_discover)

    batch = sub.add_parser(
        "batch", help="discover many example sets in one shared session"
    )
    batch.add_argument("--dataset", required=True)
    batch.add_argument("--input", required=True,
                       help="file of example sets, one 'A;B;C' line per set "
                            "('-' reads stdin)")
    add_run_options(batch)
    batch.set_defaults(func=_cmd_batch)

    serve = sub.add_parser(
        "serve", help="serve concurrent discovery requests (stdio or HTTP)"
    )
    serve.add_argument("--dataset", required=True)
    serve.add_argument("--mode", choices=("stdio", "http"), default="stdio",
                       help="JSON-lines over stdin/stdout (default) or a "
                            "minimal HTTP endpoint")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="HTTP port (0 picks a free one)")
    serve.add_argument("--max-pending", type=int, default=64,
                       help="stdio: concurrently admitted requests")
    add_run_options(serve)
    serve.set_defaults(func=_cmd_serve, jobs=2)

    workloads = sub.add_parser("workloads", help="list benchmark queries")
    workloads.add_argument("--dataset", required=True)
    workloads.add_argument("--profile", choices=_PROFILES, default="small")
    workloads.set_defaults(func=_cmd_workloads)

    stats = sub.add_parser("stats", help="show αDB statistics")
    stats.add_argument("--dataset", required=True)
    stats.add_argument("--profile", choices=_PROFILES, default="small")
    stats.set_defaults(func=_cmd_stats)

    synth = sub.add_parser(
        "synth",
        help="synthetic scenarios: generate, differential-fuzz all "
             "engines, or replay the regression corpus",
    )
    synth.add_argument("mode", choices=("generate", "fuzz", "replay-corpus"))
    synth.add_argument("--seeds", default="0:20",
                       help="seed range 'N:M' (half-open) or a single seed")
    synth.add_argument("--strict-gt", dest="strict_gt", action="store_true",
                       help="treat abduced-vs-ground-truth mismatches as "
                            "failures (off by default: abduction may "
                            "legitimately generalise beyond an example draw)")
    synth.add_argument("--corpus", default=None,
                       help="corpus directory (default: tests/corpus)")
    synth.add_argument("--no-write", dest="write_failures",
                       action="store_false",
                       help="fuzz: do not write minimized repros to the "
                            "corpus directory")
    synth.add_argument("--verbose", action="store_true",
                       help="per-scenario progress / intent detail")
    synth.set_defaults(func=_cmd_synth)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
