"""The differential fuzz harness over all engines and the abduction loop.

Per scenario, the harness:

1. differential-tests the *ground-truth* intent query on the original
   database across every registered engine (interpreted, vectorized,
   sqlite, sharded), asserting byte-identical canonical results;
2. runs each intent's example set through the full discovery pipeline
   (offline αDB build + the five online stages);
3. differential-tests the *abduced* query (display form and keyed form)
   on the αDB across the same engines;
4. asserts the abduced output covers the examples (abduction's
   correctness contract: every example is in the result); and
5. compares the abduced result set against the known ground truth,
   recording precision/recall — a hard failure only under
   ``strict_gt``, because abduction legitimately generalises beyond an
   example draw.

Every engine additionally runs behind the :mod:`repro.analysis` plan
verifier (an :class:`~repro.analysis.AnalyzingBackend` gate), and every
query the harness touches — sampled intents and abduced forms alike —
must verify *fully clean*: any diagnostic at all, warning included, is
an ``analysis`` failure.  That is the verifier's no-false-positive
guarantee, fuzzed on every CI run.

Failures carry the scenario seed + intent index, which is all the
shrinker needs: :func:`fuzz_seeds` minimizes each failing scenario
(dropping intents, tables, columns, conditions while the same failure
kind reproduces) and writes the result to the regression corpus.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..analysis import format_diagnostics, verify_query
from ..analysis.gate import AnalyzingBackend
from ..core.config import SquidConfig
from ..core.squid import SquidSystem
from ..relational import Database
from ..sql.ast import AnyQuery
from ..sql.engine import BACKENDS, ExecutionBackend, create_backend
from ..sql.formatter import format_query
from ..sql.result import ResultSet
from .config import ScenarioConfig
from .scenario import (
    Scenario,
    ScenarioMaskError,
    default_scenario_config,
    generate_scenario,
)

#: All four engine routes, reference first.  ``sorted(BACKENDS)`` would
#: also work; the explicit order keeps failure output stable and makes
#: the acceptance criterion ("all four routes") greppable.
ENGINE_ORDER: Tuple[str, ...] = (
    "interpreted",
    "vectorized",
    "sqlite",
    "sharded",
)
REFERENCE_ENGINE = ENGINE_ORDER[0]

#: Failure kinds the harness emits.
KIND_GENERATION = "generation"
KIND_ERROR = "error"
KIND_DIVERGENCE = "engine_divergence"
KIND_COVERAGE = "coverage"
KIND_GROUND_TRUTH = "ground_truth"
KIND_ANALYSIS = "analysis"


def canonical_result(result: ResultSet) -> bytes:
    """The byte form of a result set the engines must agree on:
    column labels plus rows sorted by repr (engines make no ordering
    promises, but must return the same multiset with the same Python
    value types — ``repr`` surfaces type drift like 1 vs True)."""
    rows = sorted(result.rows, key=repr)
    return repr((tuple(result.columns), rows)).encode("utf-8")


def _digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()[:12]


@dataclass(frozen=True)
class ScenarioFailure:
    """One assertion the harness saw fail."""

    seed: int
    kind: str
    detail: str
    intent_index: Optional[int] = None

    def __str__(self) -> str:
        where = (
            f"seed {self.seed}"
            if self.intent_index is None
            else f"seed {self.seed} intent {self.intent_index}"
        )
        return f"[{self.kind}] {where}: {self.detail}"


@dataclass
class ScenarioReport:
    """Outcome of differential-testing one scenario."""

    seed: int
    intents: int = 0
    comparisons: int = 0
    """Engine-pair byte-identity comparisons performed."""

    gt_exact: int = 0
    """Intents whose abduced result equals the ground truth exactly."""

    gt_precision: float = 1.0
    gt_recall: float = 1.0
    """Averages over the scenario's intents (1.0 when empty)."""

    failures: List[ScenarioFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class FuzzReport:
    """Aggregate of a fuzzing run over many seeds."""

    engines: Tuple[str, ...]
    scenarios: int = 0
    intents: int = 0
    comparisons: int = 0
    gt_exact: int = 0
    failures: List[ScenarioFailure] = field(default_factory=list)
    corpus_entries: List[str] = field(default_factory=list)
    """Paths of minimized repro entries written this run."""

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"{self.scenarios} scenarios, {self.intents} intents "
            f"differential-tested across {len(self.engines)} engine routes "
            f"({', '.join(self.engines)})",
            f"{self.comparisons} byte-identity comparisons, "
            f"{self.gt_exact}/{self.intents} intents matched ground truth "
            "exactly",
        ]
        if self.failures:
            lines.append(f"{len(self.failures)} FAILURES:")
            lines += [f"  {failure}" for failure in self.failures]
        else:
            lines.append("no divergences")
        if self.corpus_entries:
            lines.append("minimized repros written:")
            lines += [f"  {path}" for path in self.corpus_entries]
        return "\n".join(lines)


class DifferentialHarness:
    """Differential-tests one scenario across every engine route."""

    def __init__(
        self,
        scenario: Scenario,
        squid_config: Optional[SquidConfig] = None,
        strict_gt: bool = False,
        engines: Tuple[str, ...] = ENGINE_ORDER,
    ) -> None:
        unknown = set(engines) - set(BACKENDS)
        if unknown:
            raise ValueError(f"unknown engines: {sorted(unknown)}")
        if engines[0] != REFERENCE_ENGINE:
            raise ValueError(
                f"engines must lead with the reference ({REFERENCE_ENGINE!r})"
            )
        self.scenario = scenario
        self.squid_config = squid_config or SquidConfig()
        self.strict_gt = strict_gt
        self.engines = engines

    # ------------------------------------------------------------------
    def _backends(self, db: Database) -> Dict[str, ExecutionBackend]:
        """One backend per engine route, each behind the plan-verifier
        gate."""
        return {
            name: AnalyzingBackend(create_backend(name, db))
            for name in self.engines
        }

    def _verify_plan(
        self,
        db: Database,
        query: AnyQuery,
        label: str,
        report: ScenarioReport,
        intent_index: Optional[int],
    ) -> None:
        """Assert the plan verifier is fully clean on ``query``.

        Every query the harness sees is legitimately sampled or abduced,
        so *any* diagnostic — warning included — is a verifier false
        positive and recorded as an ``analysis`` failure."""
        diagnostics = verify_query(db, query)
        if diagnostics:
            report.failures.append(
                ScenarioFailure(
                    seed=self.scenario.seed,
                    kind=KIND_ANALYSIS,
                    intent_index=intent_index,
                    detail=(
                        f"plan verifier flagged {label}: "
                        f"{format_diagnostics(diagnostics)} "
                        f"for {format_query(query)}"
                    ),
                )
            )

    def _differential(
        self,
        backends: Dict[str, ExecutionBackend],
        query: AnyQuery,
        label: str,
        report: ScenarioReport,
        intent_index: Optional[int],
    ) -> Optional[ResultSet]:
        """Run ``query`` on every engine; record divergences from the
        reference.  Returns the reference result (None if it errored)."""
        try:
            reference = backends[REFERENCE_ENGINE].execute(query)
        except Exception as exc:
            report.failures.append(
                ScenarioFailure(
                    seed=self.scenario.seed,
                    kind=KIND_ERROR,
                    intent_index=intent_index,
                    detail=f"{REFERENCE_ENGINE} failed on {label}: "
                    f"{type(exc).__name__}: {exc}",
                )
            )
            return None
        expected = canonical_result(reference)
        for name in self.engines[1:]:
            try:
                got = canonical_result(backends[name].execute(query))
            except Exception as exc:
                report.failures.append(
                    ScenarioFailure(
                        seed=self.scenario.seed,
                        kind=KIND_ERROR,
                        intent_index=intent_index,
                        detail=f"{name} failed on {label}: "
                        f"{type(exc).__name__}: {exc}",
                    )
                )
                continue
            report.comparisons += 1
            if got != expected:
                report.failures.append(
                    ScenarioFailure(
                        seed=self.scenario.seed,
                        kind=KIND_DIVERGENCE,
                        intent_index=intent_index,
                        detail=(
                            f"{name} != {REFERENCE_ENGINE} on {label} "
                            f"({_digest(got)} vs {_digest(expected)}): "
                            f"{format_query(query)}"
                        ),
                    )
                )
        return reference

    # ------------------------------------------------------------------
    def run(self) -> ScenarioReport:
        scenario = self.scenario
        report = ScenarioReport(seed=scenario.seed, intents=len(scenario.intents))
        if not scenario.intents:
            return report

        original_backends = self._backends(scenario.db)
        squid = SquidSystem.build(
            scenario.db, scenario.metadata, self.squid_config
        )
        adb_backends = self._backends(squid.adb.db)

        precisions: List[float] = []
        recalls: List[float] = []
        for intent in scenario.intents:
            k = intent.index
            # (1) the known ground-truth query, on the original schema
            self._verify_plan(
                scenario.db,
                intent.query,
                f"ground-truth query of intent {k}",
                report,
                k,
            )
            self._differential(
                original_backends,
                intent.query,
                f"ground-truth query of intent {k}",
                report,
                k,
            )
            # (2) the full discovery pipeline
            try:
                result = squid.discover(list(intent.examples))
            except Exception as exc:
                report.failures.append(
                    ScenarioFailure(
                        seed=scenario.seed,
                        kind=KIND_ERROR,
                        intent_index=k,
                        detail=f"discover({list(intent.examples)!r}) raised "
                        f"{type(exc).__name__}: {exc}",
                    )
                )
                continue
            # (3) the abduced query, display and keyed form, on the αDB
            self._verify_plan(
                squid.adb.db,
                result.query,
                f"abduced query of intent {k}",
                report,
                k,
            )
            self._verify_plan(
                squid.adb.db,
                result.keyed_query,
                f"abduced keyed query of intent {k}",
                report,
                k,
            )
            display_result = self._differential(
                adb_backends,
                result.query,
                f"abduced query of intent {k}",
                report,
                k,
            )
            keyed_result = self._differential(
                adb_backends,
                result.keyed_query,
                f"abduced keyed query of intent {k}",
                report,
                k,
            )
            if display_result is None or keyed_result is None:
                continue
            # (4) example coverage
            values = set(display_result.single_column())
            missing = [e for e in intent.examples if e not in values]
            if missing:
                report.failures.append(
                    ScenarioFailure(
                        seed=scenario.seed,
                        kind=KIND_COVERAGE,
                        intent_index=k,
                        detail=f"abduced result misses examples {missing!r}",
                    )
                )
                continue
            # (5) ground-truth comparison
            abduced_keys = {row[0] for row in keyed_result.rows}
            truth = intent.ground_truth_keys
            overlap = len(abduced_keys & truth)
            precision = overlap / len(abduced_keys) if abduced_keys else 0.0
            recall = overlap / len(truth) if truth else 1.0
            precisions.append(precision)
            recalls.append(recall)
            if abduced_keys == truth:
                report.gt_exact += 1
            elif self.strict_gt:
                report.failures.append(
                    ScenarioFailure(
                        seed=scenario.seed,
                        kind=KIND_GROUND_TRUTH,
                        intent_index=k,
                        detail=(
                            f"abduced {len(abduced_keys)} keys vs "
                            f"{len(truth)} ground truth "
                            f"(precision {precision:.2f}, recall {recall:.2f})"
                            f" for {intent.spec.describe()}"
                        ),
                    )
                )
        if precisions:
            report.gt_precision = sum(precisions) / len(precisions)
            report.gt_recall = sum(recalls) / len(recalls)
        return report


# ----------------------------------------------------------------------
# fuzz driver
# ----------------------------------------------------------------------
def parse_seed_range(text: str) -> range:
    """``"0:200"`` → range(0, 200); ``"17"`` → range(17, 18)."""
    raw = text.strip()
    if ":" in raw:
        start_text, _, stop_text = raw.partition(":")
        start, stop = int(start_text), int(stop_text)
        if stop <= start:
            raise ValueError(f"empty seed range {text!r}")
        return range(start, stop)
    seed = int(raw)
    return range(seed, seed + 1)


def run_scenario_config(
    config: ScenarioConfig,
    squid_config: Optional[SquidConfig] = None,
    strict_gt: bool = False,
    engines: Tuple[str, ...] = ENGINE_ORDER,
) -> ScenarioReport:
    """Generate + differential-test one scenario config.

    Generation problems (including mask errors) become a single
    ``generation`` failure instead of raising, so the fuzz loop and the
    corpus replayer treat them uniformly."""
    try:
        scenario = generate_scenario(config)
    except ScenarioMaskError:
        raise
    except Exception as exc:
        report = ScenarioReport(seed=config.seed)
        report.failures.append(
            ScenarioFailure(
                seed=config.seed,
                kind=KIND_GENERATION,
                detail=f"{type(exc).__name__}: {exc}",
            )
        )
        return report
    return DifferentialHarness(
        scenario, squid_config=squid_config, strict_gt=strict_gt, engines=engines
    ).run()


def fuzz_seeds(
    seeds: Iterable[int],
    base_config: Optional[ScenarioConfig] = None,
    squid_config: Optional[SquidConfig] = None,
    strict_gt: bool = False,
    engines: Tuple[str, ...] = ENGINE_ORDER,
    corpus_dir: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> FuzzReport:
    """Differential-fuzz a seed range; optionally write minimized repros.

    ``base_config`` carries non-default sampler knobs (its ``seed`` field
    is replaced per scenario).  When ``corpus_dir`` is set, every failing
    scenario is shrunk (see :func:`repro.synth.corpus.shrink_config`) and
    written there as a replayable JSON entry."""
    from .corpus import CorpusEntry, shrink_config, write_entry

    report = FuzzReport(engines=tuple(engines))
    written: set = set()
    for seed in seeds:
        config = (
            base_config.with_seed(seed)
            if base_config is not None
            else default_scenario_config(seed)
        )
        scenario_report = run_scenario_config(
            config, squid_config=squid_config, strict_gt=strict_gt, engines=engines
        )
        report.scenarios += 1
        report.intents += scenario_report.intents
        report.comparisons += scenario_report.comparisons
        report.gt_exact += scenario_report.gt_exact
        report.failures += scenario_report.failures
        if progress is not None:
            status = "ok" if scenario_report.ok else (
                f"FAIL ({len(scenario_report.failures)})"
            )
            progress(
                f"seed {seed}: {scenario_report.intents} intents, "
                f"{scenario_report.comparisons} comparisons, {status}"
            )
        if corpus_dir is None:
            continue
        for failure in scenario_report.failures:
            key = (failure.seed, failure.kind, failure.intent_index)
            if key in written:
                continue
            written.add(key)
            minimized = shrink_config(
                config,
                lambda candidate, _f=failure: _reproduces(
                    candidate, _f, squid_config, strict_gt, engines
                ),
                focus_intent=failure.intent_index,
            )
            entry = CorpusEntry(
                entry_id=_entry_id(failure),
                kind=failure.kind,
                seed=failure.seed,
                intent_index=failure.intent_index,
                detail=failure.detail,
                expect="fail",
                config=minimized,
            )
            path = write_entry(entry, corpus_dir)
            report.corpus_entries.append(str(path))
            if progress is not None:
                progress(f"  minimized repro -> {path}")
    return report


def _entry_id(failure: ScenarioFailure) -> str:
    suffix = "" if failure.intent_index is None else f"-i{failure.intent_index}"
    return f"seed{failure.seed}-{failure.kind}{suffix}"


def _reproduces(
    config: ScenarioConfig,
    failure: ScenarioFailure,
    squid_config: Optional[SquidConfig],
    strict_gt: bool,
    engines: Tuple[str, ...],
) -> bool:
    """Whether ``config`` still triggers ``failure``'s kind (for the
    shrinker).  Mask errors mean the candidate broke the scenario."""
    try:
        candidate_report = run_scenario_config(
            config, squid_config=squid_config, strict_gt=strict_gt, engines=engines
        )
    except ScenarioMaskError:
        return False
    return any(f.kind == failure.kind for f in candidate_report.failures)
