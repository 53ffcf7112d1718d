"""Scenario assembly: config → plan → database → metadata → intents.

:func:`generate_scenario` is the one entry point, and it is a *pure
function* of its :class:`ScenarioConfig`: the same config produces a
byte-identical scenario (schema, rows, intents, example sets) in any
process, thread, or fork — the seed-stability tests assert this on the
:meth:`Scenario.fingerprint`.

Shrinker masks are applied *after* full generation: the full plan, full
rows, and full intent list are always sampled first, then masks project
them down.  A masked scenario therefore contains the exact tuples and
intent draws of its parent, which is what lets the corpus shrinker drop
tables/columns/conditions while a failure keeps reproducing.  Masks that
break a surviving intent's references (or empty its ground truth) raise
:class:`ScenarioMaskError` — the shrinker treats that as a rejected
step.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from ..core.metadata import AdbMetadata
from ..relational import Database
from ..workloads.registry import Workload, WorkloadRegistry
from .config import ScenarioConfig
from .data_gen import build_database, project_rows, sample_rows
from .intents import (
    IntentSpec,
    SyntheticIntent,
    _ground_truth,
    derive_examples,
    sample_intent_specs,
)
from .schema_gen import SchemaPlan, sample_schema


class ScenarioMaskError(ValueError):
    """A shrinker mask produced an unusable scenario (unknown names,
    an intent left referencing dropped tables, or empty ground truth)."""


def default_scenario_config(seed: int = 0) -> ScenarioConfig:
    """The fuzzer's default sampler configuration at ``seed``.

    Deliberately tiny (tens of entity rows, a handful of tables): one
    scenario must build its αDB and differential-run four engines in
    well under a second, so seed ranges in the hundreds stay cheap."""
    return ScenarioConfig(seed=seed)


@dataclass(frozen=True)
class Scenario:
    """One fully-materialised synthetic scenario."""

    config: ScenarioConfig
    plan: SchemaPlan
    db: Database
    metadata: AdbMetadata
    intents: Tuple[SyntheticIntent, ...]

    @property
    def seed(self) -> int:
        return self.config.seed

    @property
    def name(self) -> str:
        suffix = "-min" if self.config.is_masked else ""
        return f"synth-{self.seed}{suffix}"

    # ------------------------------------------------------------------
    # determinism probes
    # ------------------------------------------------------------------
    def canonical_payload(self) -> Dict[str, Any]:
        """Everything that must be byte-stable for one config, as plain
        data: schemas, every row, and every realised intent."""
        schemas = []
        for schema in self.plan.table_schemas():
            schemas.append(
                {
                    "table": schema.name,
                    "columns": [
                        (c.name, c.ctype.value, c.nullable)
                        for c in schema.columns
                    ],
                    "primary_key": schema.primary_key,
                    "foreign_keys": [
                        (fk.column, fk.ref_table, fk.ref_column)
                        for fk in schema.foreign_keys
                    ],
                }
            )
        rows = {
            name: list(self.db.relation(name).rows())
            for name in sorted(self.db.table_names())
        }
        return {
            "seed": self.seed,
            "schemas": schemas,
            "rows": rows,
            "intents": [intent.to_dict() for intent in self.intents],
        }

    def fingerprint(self) -> str:
        """SHA-256 over the canonical payload's repr."""
        blob = repr(self.canonical_payload()).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def summary(self) -> Dict[str, Any]:
        """Small human-facing description (the CLI ``generate`` report)."""
        return {
            "scenario": self.name,
            "tables": len(self.db.table_names()),
            "rows": self.db.total_rows(),
            "intents": len(self.intents),
            "example_sets": [list(i.examples) for i in self.intents],
            "fingerprint": self.fingerprint()[:16],
        }

    # ------------------------------------------------------------------
    # workload-registry wiring
    # ------------------------------------------------------------------
    def registry(self) -> WorkloadRegistry:
        """The scenario's intents as a benchmark workload registry —
        interchangeable with the IMDb/DBLP/Adult registries everywhere
        a registry is consumed (CLI, eval loops, serving drivers)."""
        registry = WorkloadRegistry("synth", [])
        registry.extend(
            self._workload(intent) for intent in self.intents
        )
        return registry

    def _workload(self, intent: SyntheticIntent) -> Workload:
        joins, selections = intent.spec.counts()
        return Workload(
            qid=f"SY{self.seed}-{intent.index}",
            dataset="synth",
            description=intent.spec.describe(),
            entity_table=intent.spec.entity,
            entity_key="id",
            display="name",
            query=intent.query,
            num_joins=joins,
            num_selections=selections,
        )


def _masked_spec(
    spec: IntentSpec,
    intent_index: int,
    drop_conditions: Tuple[Tuple[int, int], ...],
) -> IntentSpec:
    dropped = {j for k, j in drop_conditions if k == intent_index}
    if not dropped:
        return spec
    unknown = dropped - set(range(len(spec.conditions)))
    if unknown:
        raise ScenarioMaskError(
            f"intent {intent_index} has no conditions {sorted(unknown)}"
        )
    conditions = tuple(
        cond
        for j, cond in enumerate(spec.conditions)
        if j not in dropped
    )
    return IntentSpec(entity=spec.entity, conditions=conditions)


def generate_scenario(config: ScenarioConfig) -> Scenario:
    """Materialise the scenario described by ``config``."""
    full_plan = sample_schema(config.schema, config.seed)
    full_rows = sample_rows(full_plan, config.data, config.seed)
    full_db = build_database(full_plan, full_rows, name=f"synth-{config.seed}")
    specs = sample_intent_specs(
        full_plan, full_db, config.intents, config.seed
    )

    if config.drop_tables or config.drop_columns:
        try:
            plan = full_plan.masked(config.drop_tables, config.drop_columns)
        except ValueError as exc:
            raise ScenarioMaskError(str(exc)) from None
        rows = project_rows(full_plan, plan, full_rows)
        db = build_database(plan, rows, name=f"synth-{config.seed}-min")
    else:
        plan, db = full_plan, full_db

    if config.keep_intents is None:
        kept = list(range(len(specs)))
    else:
        unknown = set(config.keep_intents) - set(range(len(specs)))
        if unknown:
            raise ScenarioMaskError(
                f"keep_intents references missing intents {sorted(unknown)}"
            )
        kept = sorted(set(config.keep_intents))

    intents: List[SyntheticIntent] = []
    for k in kept:
        spec = _masked_spec(specs[k], k, config.drop_conditions)
        try:
            spec.validate_against(plan)
        except KeyError as exc:
            raise ScenarioMaskError(
                f"intent {k} references dropped schema: {exc}"
            ) from None
        ground_truth = _ground_truth(db, spec)
        if not ground_truth:
            raise ScenarioMaskError(f"intent {k} has empty ground truth")
        examples = derive_examples(
            k, spec, ground_truth, db, config.intents, config.seed
        )
        if not examples:
            raise ScenarioMaskError(f"intent {k} yields no examples")
        intents.append(
            SyntheticIntent(
                index=k,
                spec=spec,
                query=spec.query(),
                ground_truth=ground_truth,
                examples=examples,
            )
        )

    metadata = plan.metadata()
    metadata.validate(db)
    return Scenario(
        config=config,
        plan=plan,
        db=db,
        metadata=metadata,
        intents=tuple(intents),
    )
