"""The verifier's no-false-positive contract, plus self-lint and the
pinning regressions for the violations the linter originally surfaced.

Zero-false-positive sweep: every checked-in workload query, every
checked-in corpus scenario's intent queries, and a differential fuzz
sweep (whose harness now runs every engine behind the gate and asserts
a fully clean verdict per sampled/abduced query) must produce no
verifier findings.  CI's fuzz job extends the sweep to 200 seeds.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import errors_of, format_diagnostics, verify_query
from repro.analysis.lint import lint_paths
from repro.core.workers import WorkerPool
from repro.datasets import adult, dblp, imdb
from repro.sql.engine import available_backends, create_backend
from repro.synth import ScenarioMaskError, generate_scenario, load_corpus
from repro.synth.harness import KIND_ANALYSIS, fuzz_seeds
from repro.workloads import adult_queries, dblp_queries, imdb_queries

SRC = Path(__file__).resolve().parents[2] / "src"


# -- the codebase passes its own linter ----------------------------------
def test_src_tree_lints_clean():
    findings = lint_paths([str(SRC)])
    assert findings == [], "\n" + format_diagnostics(findings)


# -- pinning regressions for the violations the linter caught ------------
def test_every_engine_exposes_stats():
    # LINT004 originally flagged interpreted/vectorized/sqlite (and the
    # caching wrapper) as stats-less; the full surface is now mandatory.
    db = imdb.generate(imdb.ImdbSize.small())
    for name in available_backends():
        backend = create_backend(name, db)
        stats = backend.stats()
        assert isinstance(stats, dict), name
        backend.close()


def test_worker_pool_counter_mutates_through_a_locked_method():
    # LINT001 originally flagged `pool.batches_served += 1` in
    # session.py — a reach-around of the pool's lock.  The locked
    # accessor is now the only path.
    pool = WorkerPool.__new__(WorkerPool)
    pool.batches_served = 0
    import threading

    pool._lock = threading.Lock()
    pool.note_batch_served()
    pool.note_batch_served()
    assert pool.batches_served == 2


# -- zero false positives over checked-in workloads ----------------------
def _sweep(db, workloads):
    for workload in workloads:
        if workload.query is None:
            continue
        diags = verify_query(db, workload.query)
        assert errors_of(diags) == [], (
            f"{workload.qid}:\n{format_diagnostics(diags)}"
        )
        if workload.cardinality(db) > 0:
            # A non-empty ground truth is a well-formed plan: even the
            # warnings must stay quiet.
            assert diags == [], (
                f"{workload.qid}:\n{format_diagnostics(diags)}"
            )


def test_imdb_workloads_verify_clean():
    db = imdb.generate(imdb.ImdbSize.small())
    _sweep(db, imdb_queries.build_registry().all())


def test_dblp_workloads_verify_clean():
    db = dblp.generate(dblp.DblpSize.small())
    _sweep(db, dblp_queries.build_registry().all())


def test_adult_workloads_verify_clean():
    db = adult.generate(adult.AdultSize.small())
    registry = adult_queries.generate_queries(db, count=10)
    _sweep(db, registry.all())


# -- zero false positives over the checked-in corpus ---------------------
def test_corpus_scenario_intents_verify_clean():
    entries = load_corpus()
    assert entries, "checked-in corpus is missing"
    for entry in entries:
        try:
            scenario = generate_scenario(entry.config)
        except ScenarioMaskError:
            continue
        for intent in scenario.intents:
            diags = verify_query(scenario.db, intent.query)
            assert diags == [], (
                f"{entry.entry_id} intent {intent.index}:\n"
                f"{format_diagnostics(diags)}"
            )


# -- the fuzz harness asserts the same thing end-to-end ------------------
def test_fuzz_sweep_reports_no_analysis_failures():
    report = fuzz_seeds(range(0, 6))
    analysis = [f for f in report.failures if f.kind == KIND_ANALYSIS]
    assert analysis == [], "\n".join(str(f) for f in analysis)
    assert report.ok, "\n".join(str(f) for f in report.failures)
