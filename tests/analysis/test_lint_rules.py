"""Invariant-linter unit tests: one positive and one negative snippet
per LINT code, fed through :func:`repro.analysis.lint.lint_sources` —
the exact pipeline ``tools/lint_repro.py`` and CI run over real files.
"""

from __future__ import annotations

import textwrap

from repro.analysis.lint import LINT_CODES, lint_sources


def lint(source: str, path: str = "src/mod.py"):
    return lint_sources({path: textwrap.dedent(source)})


def codes(diagnostics) -> set:
    return {d.code for d in diagnostics}


def test_catalog_covers_all_six_rules():
    assert set(LINT_CODES) == {f"LINT{i:03d}" for i in range(1, 7)}


def test_clean_file_lints_clean():
    assert lint("x = 1\n") == []


def test_lint000_syntax_error():
    diags = lint("def broken(:\n")
    assert codes(diags) == {"LINT000"}


# -- LINT001: lock discipline around shared counters ---------------------
LOCKED_COUNTER = """
    import threading

    class Pool:
        def __init__(self):
            self._lock = threading.Lock()
            self.batches_served = 0

        def note_batch_served(self):
            with self._lock:
                self.batches_served += 1
"""


def test_lint001_unlocked_counter_mutation_fires():
    source = LOCKED_COUNTER + (
        "\n"
        "        def sneaky(self):\n"
        "            self.batches_served += 1\n"
    )
    diags = lint(source)
    assert codes(diags) == {"LINT001"}
    assert "outside" in diags[0].message


def test_lint001_locked_mutation_is_clean():
    assert lint(LOCKED_COUNTER) == []


def test_lint001_cross_object_reacharound_fires():
    source = LOCKED_COUNTER + (
        "\n"
        "    def caller(pool):\n"
        "        pool.batches_served += 1\n"
    )
    diags = lint(source)
    assert codes(diags) == {"LINT001"}
    assert "reaches" in diags[0].message


def test_lint001_container_counter_needs_the_lock_too():
    source = """
        import threading

        class Telemetry:
            def __init__(self):
                self._lock = threading.Lock()
                self.per_engine = {}

            def bump(self, engine):
                self.per_engine[engine] += 1
    """
    assert codes(lint(source)) == {"LINT001"}


# -- LINT002: version-stamp bumps on mutation ----------------------------
def test_lint002_mutation_without_bump_fires():
    source = """
        class Relation:
            def __init__(self):
                self._rows = []
                self._version = 0

            def insert(self, row):
                self._rows.append(row)
    """
    diags = lint(source)
    assert codes(diags) == {"LINT002"}
    assert "_version" in diags[0].message


def test_lint002_bumped_mutation_is_clean():
    source = """
        class Relation:
            def __init__(self):
                self._rows = []
                self._version = 0

            def insert(self, row):
                self._rows.append(row)
                self._version += 1
    """
    assert lint(source) == []


def test_lint002_cache_fills_need_no_bump():
    source = """
        class Relation:
            def __init__(self):
                self._array_cache = {}
                self._version = 0

            def column_array(self, name):
                self._array_cache[name] = name
                return self._array_cache[name]
    """
    assert lint(source) == []


# -- LINT003: (uid, version) stamp pairing -------------------------------
def test_lint003_bare_version_read_fires():
    source = """
        def stamp(relation):
            return relation.version
    """
    diags = lint(source)
    assert codes(diags) == {"LINT003"}
    assert "uid" in diags[0].message


def test_lint003_paired_read_is_clean():
    source = """
        def stamp(relation):
            return (relation.uid, relation.version)
    """
    assert lint(source) == []


# -- LINT004: ExecutionBackend contract ----------------------------------
def test_lint004_missing_stats_fires():
    source = """
        class ExecutionBackend:
            name = "abstract"

        class HalfBackend(ExecutionBackend):
            name = "half"

            def execute(self, query):
                return None
    """
    diags = lint(source)
    assert codes(diags) == {"LINT004"}
    assert "stats" in diags[0].message


def test_lint004_missing_name_fires():
    source = """
        class ExecutionBackend:
            name = "abstract"

        class Anonymous(ExecutionBackend):
            def execute(self, query):
                return None

            def stats(self):
                return {}
    """
    diags = lint(source)
    assert codes(diags) == {"LINT004"}
    assert "name" in diags[0].message


def test_lint004_full_surface_is_clean():
    source = """
        class ExecutionBackend:
            name = "abstract"

        class Complete(ExecutionBackend):
            name = "complete"

            def execute(self, query):
                return None

            def stats(self):
                return {}
    """
    assert lint(source) == []


def test_lint004_inherited_surface_counts():
    source = """
        class ExecutionBackend:
            name = "abstract"

        class Base(ExecutionBackend):
            name = "base"

            def execute(self, query):
                return None

            def stats(self):
                return {}

        class Derived(Base):
            pass
    """
    assert lint(source) == []


def test_lint004_abstract_intermediates_are_exempt():
    source = """
        from abc import ABC, abstractmethod

        class ExecutionBackend(ABC):
            name = "abstract"

            @abstractmethod
            def execute(self, query):
                ...
    """
    assert lint(source) == []


# -- LINT005: seeded randomness in synth paths ---------------------------
def test_lint005_global_rng_in_synth_fires():
    source = """
        import random

        def sample():
            return random.randint(0, 10)
    """
    diags = lint(source, path="src/repro/synth/bad.py")
    assert codes(diags) == {"LINT005"}


def test_lint005_clock_call_in_synth_fires():
    source = """
        import time

        def jitter():
            return time.time()
    """
    assert codes(lint(source, path="src/repro/synth/bad.py")) == {"LINT005"}


def test_lint005_seeded_rng_is_clean():
    source = """
        import random

        def sample(seed):
            return random.Random(seed).randint(0, 10)
    """
    assert lint(source, path="src/repro/synth/good.py") == []


def test_lint005_only_applies_to_synth_paths():
    source = """
        import random

        def sample():
            return random.randint(0, 10)
    """
    assert lint(source, path="src/repro/eval/free.py") == []


# -- LINT006: copy-on-write warm state -----------------------------------
def test_lint006_worker_mutating_warm_state_fires():
    source = """
        def _fork_worker_main(adb, unit):
            adb.db.bulk_load("movies", unit.rows)
    """
    diags = lint(source)
    assert codes(diags) == {"LINT006"}
    assert "warm state" in diags[0].message


def test_lint006_worker_assignment_into_warm_state_fires():
    source = """
        class _WorkerCore:
            def run(self, unit):
                self.adb.lookup = unit.lookup
    """
    assert codes(lint(source)) == {"LINT006"}


def test_lint006_read_only_worker_is_clean():
    source = """
        def _fork_worker_main(adb, unit):
            relation = adb.db.relation("movies")
            return relation.row(0)
    """
    assert lint(source) == []


def test_lint006_parent_scope_mutations_are_fine():
    source = """
        def parent_refresh(adb, rows):
            adb.db.bulk_load("movies", rows)
    """
    assert lint(source) == []


# -- driver ---------------------------------------------------------------
def test_findings_sort_by_location():
    source = """
        import random

        def late():
            return random.random()

        def early(relation):
            return relation.version
    """
    diags = lint(source, path="src/repro/synth/mixed.py")
    lines = [int(d.span.rsplit(":", 1)[1]) for d in diags]
    assert lines == sorted(lines)
    assert codes(diags) == {"LINT003", "LINT005"}
