"""The staged online discovery pipeline (Figure 4).

The paper's online module is a fixed five-stage sequence — entity lookup,
disambiguation, semantic-context discovery, abduction, query construction.
This module makes each stage an explicit, independently-testable object
operating on a :class:`PipelineContext`:

* :class:`LookupStage` runs once per example set and produces the
  candidate base queries (one :class:`~repro.core.lookup.EntityMatch`
  per entity type containing all examples);
* :class:`DisambiguationStage`, :class:`ContextStage`,
  :class:`AbductionStage` and :class:`ConstructionStage` run once per
  candidate; a candidate's context is forked off the shared one with
  :meth:`PipelineContext.for_candidate`.

Carving the stages out of ``SquidSystem.discover`` is what enables the
batch/parallel layer: a (example set × candidate base query) pair is an
independent work unit that :class:`~repro.core.session.DiscoverySession`
can fan out across a worker pool, while :class:`SquidSystem` keeps the
exact sequential semantics by driving the same stages in a loop.

Every stage records the CPU time it spent into the context's
:class:`DiscoveryTimings` (summed per-stage time; the wall clock of a
whole discovery is measured separately by the driver, so concurrent
candidate fan-out cannot overstate end-to-end latency).
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from typing import Any, List, Optional, Sequence

from ..sql.ast import AnyQuery, Query
from ..sql.engine import ExecutionBackend
from ..sql.formatter import format_query
from .abduction import AbductionResult, abduce
from .base_query import build_adb_query, build_original_query
from .config import SquidConfig
from .context import ContextSet, discover_contexts
from .disambiguation import DisambiguationResult, disambiguate
from .lookup import EntityMatch, lookup_examples
from .metadata import EntitySpec


@dataclass
class DiscoveryTimings:
    """Per-stage timings of one discovery call.

    The five stage fields hold *summed CPU time*: each stage accounts the
    time it actually spent computing, and ``accumulate`` adds candidates
    together.  Under parallel candidate fan-out summed stage time can
    exceed the elapsed time, so the end-to-end latency is tracked
    separately in ``wall_seconds`` (measured by whichever driver —
    ``SquidSystem.discover`` or ``DiscoverySession`` — owns the clock).
    """

    lookup_seconds: float = 0.0
    disambiguation_seconds: float = 0.0
    context_seconds: float = 0.0
    abduction_seconds: float = 0.0
    construction_seconds: float = 0.0

    wall_seconds: float = 0.0
    """Measured wall-clock of the discovery this timing describes (0.0 on
    per-candidate timings, which only ever run on one worker)."""

    @property
    def cpu_seconds(self) -> float:
        """Summed per-stage compute time (>= wall under concurrency)."""
        return (
            self.lookup_seconds
            + self.disambiguation_seconds
            + self.context_seconds
            + self.abduction_seconds
            + self.construction_seconds
        )

    @property
    def total_seconds(self) -> float:
        """Backward-compatible alias for :attr:`cpu_seconds`."""
        return self.cpu_seconds

    def accumulate(self, other: "DiscoveryTimings") -> None:
        """Add ``other``'s per-stage CPU times (lookup excluded: it is
        shared across candidate base queries and counted once by the
        caller; ``wall_seconds`` is never summed — it is measured)."""
        self.disambiguation_seconds += other.disambiguation_seconds
        self.context_seconds += other.context_seconds
        self.abduction_seconds += other.abduction_seconds
        self.construction_seconds += other.construction_seconds


@dataclass
class DiscoveryResult:
    """Everything SQuID inferred for one example set."""

    entity: EntitySpec
    entity_keys: List[Any]
    contexts: ContextSet
    abduction: AbductionResult
    query: Query
    """The abduced SPJ query over the αDB (Q5 form), selecting the
    display attribute."""

    keyed_query: Query
    """Same query additionally projecting the entity key (for metrics)."""

    original_query: AnyQuery
    """Equivalent SPJAI query over the original schema (Q4 form)."""

    timings: DiscoveryTimings
    """CPU time of *this* candidate's pipeline (lookup is shared)."""

    disambiguation: Optional[DisambiguationResult] = None
    log_posterior: float = 0.0

    aggregate_timings: Optional[DiscoveryTimings] = None
    """Set on the winning result only: summed CPU time across *all*
    candidate base queries — including the ones that lost the posterior
    comparison.  Sequential drivers additionally record the call's
    measured ``wall_seconds``; under parallel batch fan-out per-set wall
    clock is not observable (sets interleave on the workers), so it
    stays 0.0 there and the batch-level wall lives in
    ``DiscoverySession.stats()['last_batch_wall_seconds']``."""

    @property
    def sql(self) -> str:
        """SQL text of the abduced αDB query."""
        return format_query(self.query)

    @property
    def original_sql(self) -> str:
        """SQL text of the original-schema SPJAI rendering."""
        return format_query(self.original_query)

    def explain(self) -> str:
        """Human-readable abduction report (filters kept vs dropped)."""
        lines = [f"entity: {self.entity.table} ({len(self.entity_keys)} examples)"]
        for decision in self.abduction.decisions:
            verdict = "KEEP" if decision.included else "drop"
            filt = decision.filt
            lines.append(
                f"  [{verdict}] {filt.notation()} "
                f"ψ={filt.selectivity:.4f} "
                f"Pr(φ)={decision.prior.prior:.4f} "
                f"include={decision.include_score:.3e} "
                f"exclude={decision.exclude_score:.3e}"
            )
        return "\n".join(lines)


@dataclass
class PipelineContext:
    """Mutable per-item state flowing through the discovery stages.

    One context per example set carries the shared lookup result; each
    candidate base query then gets its own fork (``for_candidate``) so
    candidates never share mutable state and can run concurrently.
    """

    adb: Any
    """The αDB (or a probe-caching proxy around it) stages read from."""

    backend: ExecutionBackend
    """Execution backend used by construction-time pruning probes."""

    config: SquidConfig
    examples: List[str]

    # -- populated by LookupStage (shared across candidates) -----------
    matches: Optional[List[EntityMatch]] = None

    # -- per-candidate state (set by for_candidate / candidate stages) --
    match: Optional[EntityMatch] = None
    resolution: Optional[DisambiguationResult] = None
    keys: Optional[List[Any]] = None
    contexts: Optional[ContextSet] = None
    abduction: Optional[AbductionResult] = None
    selected: Optional[List[Any]] = None
    """Filters surviving abduction (after the optional pruning pass)."""

    query: Optional[Query] = None
    keyed_query: Optional[Query] = None
    original_query: Optional[AnyQuery] = None

    timings: DiscoveryTimings = field(default_factory=DiscoveryTimings)

    def for_candidate(self, match: EntityMatch) -> "PipelineContext":
        """Fork an independent per-candidate context off this one.

        The shared lookup time is attributed to every candidate, matching
        the pre-pipeline accounting."""
        return PipelineContext(
            adb=self.adb,
            backend=self.backend,
            config=self.config,
            examples=self.examples,
            match=match,
            timings=DiscoveryTimings(lookup_seconds=self.timings.lookup_seconds),
        )

    def to_result(self) -> DiscoveryResult:
        """Assemble the DiscoveryResult of a fully-run candidate context."""
        assert self.match is not None and self.abduction is not None
        return DiscoveryResult(
            entity=self.match.entity,
            entity_keys=self.keys or [],
            contexts=self.contexts,
            abduction=self.abduction,
            query=self.query,
            keyed_query=self.keyed_query,
            original_query=self.original_query,
            timings=self.timings,
            disambiguation=self.resolution,
            log_posterior=self.abduction.log_posterior(),
        )


class Stage(ABC):
    """One pipeline stage: mutates a context, accounts its own time."""

    name: str = "stage"
    timing_field: str = ""

    def __call__(self, ctx: PipelineContext) -> PipelineContext:
        start = time.perf_counter()
        self.run(ctx)
        elapsed = time.perf_counter() - start
        if self.timing_field:
            setattr(
                ctx.timings,
                self.timing_field,
                getattr(ctx.timings, self.timing_field) + elapsed,
            )
        return ctx

    @abstractmethod
    def run(self, ctx: PipelineContext) -> None:
        """Perform the stage's work on ``ctx``."""


class LookupStage(Stage):
    """Entity lookup (§6.1): examples -> candidate base queries."""

    name = "lookup"
    timing_field = "lookup_seconds"

    def run(self, ctx: PipelineContext) -> None:
        ctx.matches = lookup_examples(ctx.adb, ctx.examples)


class DisambiguationStage(Stage):
    """Entity disambiguation (§6.1.1): pick the most similar assignment."""

    name = "disambiguation"
    timing_field = "disambiguation_seconds"

    def run(self, ctx: PipelineContext) -> None:
        assert ctx.match is not None
        ctx.resolution = disambiguate(ctx.adb, ctx.match, ctx.config)
        ctx.keys = ctx.resolution.keys


class ContextStage(Stage):
    """Semantic context discovery (§6.1.2) over the resolved entities."""

    name = "context"
    timing_field = "context_seconds"

    def run(self, ctx: PipelineContext) -> None:
        assert ctx.match is not None and ctx.keys is not None
        ctx.contexts = discover_contexts(
            ctx.adb, ctx.match.entity.table, ctx.keys, ctx.config
        )


class AbductionStage(Stage):
    """Query abduction (Algorithm 1) over the discovered contexts."""

    name = "abduction"
    timing_field = "abduction_seconds"

    def run(self, ctx: PipelineContext) -> None:
        assert ctx.contexts is not None and ctx.keys is not None
        ctx.abduction = abduce(ctx.contexts.filters, len(ctx.keys), ctx.config)


class ConstructionStage(Stage):
    """Query construction: αDB SPJ form plus the original-schema SPJAI."""

    name = "construction"
    timing_field = "construction_seconds"

    def run(self, ctx: PipelineContext) -> None:
        assert ctx.match is not None and ctx.abduction is not None
        entity = ctx.match.entity
        selected = ctx.abduction.selected
        if ctx.config.prune_redundant_filters and len(selected) > 1:
            selected = prune_redundant(ctx.adb, ctx.backend, entity, selected)
        ctx.selected = list(selected)
        ctx.keyed_query = build_adb_query(
            ctx.adb, entity, selected, select_key=True
        )
        # The display query is the keyed one without its leading key
        # column: same tables, aliases, joins and predicates.
        ctx.query = replace(ctx.keyed_query, select=ctx.keyed_query.select[1:])
        ctx.original_query = build_original_query(ctx.adb, entity, selected)


def prune_redundant(adb, backend: ExecutionBackend, entity, selected):
    """Occam's-razor pass: drop filters that do not change the result.

    Filters are probed most-common-first (descending selectivity): a broad
    filter subsumed by a sharper one contributes nothing to the result set
    and only inflates the query.  Each probe is one αDB query, so the pass
    costs O(|ϕ|) executions (mostly cache hits when a result cache wraps
    the backend).
    """
    current = list(selected)
    baseline = backend.execute(
        build_adb_query(adb, entity, current, select_key=True)
    ).as_set()
    for filt in sorted(selected, key=lambda f: -f.selectivity):
        if len(current) <= 1:
            break
        trial = [f for f in current if f is not filt]
        result = backend.execute(
            build_adb_query(adb, entity, trial, select_key=True)
        ).as_set()
        if result == baseline:
            current = trial
    return current


#: Stage instances are stateless; module-level singletons are shared.
LOOKUP_STAGE = LookupStage()

#: The per-candidate stage sequence of Figure 4 (after shared lookup).
CANDIDATE_STAGES = (
    DisambiguationStage(),
    ContextStage(),
    AbductionStage(),
    ConstructionStage(),
)


def run_candidate(ctx: PipelineContext) -> DiscoveryResult:
    """Run the per-candidate stages on a forked context; return the result.

    This is the independent work unit the batch session fans out: it only
    touches the (read-only) αDB, the execution backend, and its own
    context.
    """
    for stage in CANDIDATE_STAGES:
        stage(ctx)
    return ctx.to_result()


def discover_sequential(
    adb,
    backend: ExecutionBackend,
    examples: Sequence[str],
    config: SquidConfig,
) -> DiscoveryResult:
    """One full sequential discovery: shared lookup, every candidate in
    order, winner by log posterior.

    This is the reference control flow ``SquidSystem.discover`` exposes;
    the batch session reuses it verbatim on its ``jobs=1`` path so
    sequential and batch discovery cannot drift apart.
    """
    examples = list(examples)
    check_example_count(examples, config)
    wall_start = time.perf_counter()
    ctx = PipelineContext(
        adb=adb, backend=backend, config=config, examples=examples
    )
    LOOKUP_STAGE(ctx)
    assert ctx.matches is not None
    aggregate = DiscoveryTimings(lookup_seconds=ctx.timings.lookup_seconds)
    best: Optional[DiscoveryResult] = None
    for match in ctx.matches:
        candidate_ctx = ctx.for_candidate(match)
        candidate = run_candidate(candidate_ctx)
        aggregate.accumulate(candidate_ctx.timings)
        if best is None or candidate.log_posterior > best.log_posterior:
            best = candidate
    assert best is not None
    aggregate.wall_seconds = time.perf_counter() - wall_start
    best.aggregate_timings = aggregate
    return best


def select_best(candidates: Sequence[DiscoveryResult]) -> DiscoveryResult:
    """The candidate with the highest unnormalised log posterior.

    Valid base queries carry equal priors (§4.3); ties break toward the
    earlier candidate, matching the original sequential loop.
    """
    best: Optional[DiscoveryResult] = None
    for candidate in candidates:
        if best is None or candidate.log_posterior > best.log_posterior:
            best = candidate
    assert best is not None
    return best


class TooManyExamplesError(ValueError):
    """More examples than the QBE few-examples cap allows."""


def check_example_count(examples: Sequence[str], config: SquidConfig) -> None:
    """Enforce the QBE few-examples cap (shared by system and session)."""
    if len(examples) > config.max_example_warn:
        raise TooManyExamplesError(
            f"{len(examples)} examples provided; QBE expects few "
            f"(cap: {config.max_example_warn})"
        )
