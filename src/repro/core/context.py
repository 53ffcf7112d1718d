"""Semantic context discovery (§6.1.2) and filter construction.

Given the resolved example entities, this module derives the semantic
contexts X = {x1, x2, ...} the probabilistic model reasons over:

* **basic categorical** — all examples share value v → (⟨A, v, ⊥⟩, |E|);
* **basic numeric** — the tightest range → (⟨A, [vmin, vmax], ⊥⟩, |E|)
  (minimal valid filter, Definition 3.2);
* **derived** — all examples associated with value v → (⟨A, v, θmin⟩, |E|)
  where θmin is the weakest association strength among the examples.

Each context is paired with its minimal valid filter, annotated with the
precomputed selectivity and domain coverage the priors need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .adb import AbductionReadyDatabase
from .config import SquidConfig
from .properties import (
    FamilyKind,
    Filter,
    PropertyFamily,
    SemanticContext,
    SemanticProperty,
)
from .statistics import CategoricalStats, DerivedStats, NumericStats


@dataclass
class ContextSet:
    """Discovered contexts and their minimal valid filters for one entity."""

    entity: str
    example_count: int
    contexts: List[SemanticContext]
    filters: List[Filter]
    """``filters[i]`` encodes ``contexts[i]`` (the paper's φi ↔ xi)."""


def discover_contexts(
    adb: AbductionReadyDatabase,
    entity_table: str,
    entity_keys: Sequence[Any],
    config: Optional[SquidConfig] = None,
) -> ContextSet:
    """Derive all semantic contexts shared by the example entities."""
    config = config or adb.config
    keys = list(entity_keys)
    contexts: List[SemanticContext] = []
    filters: List[Filter] = []
    for family in adb.families_for(entity_table):
        found = _family_contexts(adb, family, keys, config)
        for prop in found:
            context = SemanticContext(prop=prop, example_count=len(keys))
            contexts.append(context)
            filters.append(_make_filter(adb, prop))
    return ContextSet(
        entity=entity_table,
        example_count=len(keys),
        contexts=contexts,
        filters=filters,
    )


def _family_contexts(
    adb: AbductionReadyDatabase,
    family: PropertyFamily,
    keys: Sequence[Any],
    config: SquidConfig,
) -> List[SemanticProperty]:
    """Contexts contributed by a single property family."""
    per_example = adb.entity_properties_many(family, keys)
    if not all(per_example):
        # some example lacks the property entirely -> no valid filter here
        return []

    if family.kind is FamilyKind.DIRECT_NUMERIC:
        values = [next(iter(props)) for props in per_example]
        vmin, vmax = min(values), max(values)
        if config.numeric_slack > 0.0:
            span = (vmax - vmin) or abs(vmin) or 1.0
            vmin -= span * config.numeric_slack
            vmax += span * config.numeric_slack
        return [SemanticProperty(family=family, value=(vmin, vmax), theta=None)]

    if family.kind.is_basic:
        shared = set(per_example[0])
        for props in per_example[1:]:
            shared &= set(props)
        if shared:
            return [
                SemanticProperty(
                    family=family,
                    value=value,
                    theta=None,
                    label=adb.dim_label_of(family, value),
                )
                for value in sorted(shared, key=repr)
            ]
        return _disjunctive_context(adb, family, per_example, config)

    # derived family: shared values with θmin = weakest association
    shared = set(per_example[0])
    for props in per_example[1:]:
        shared &= set(props)
    if config.normalize_association:
        totals = [float(sum(props.values())) or 1.0 for props in per_example]
    out = []
    for value in sorted(shared, key=repr):
        thetas = [props[value] for props in per_example]
        if config.normalize_association:
            thetas = [t / total for t, total in zip(thetas, totals)]
        out.append(
            SemanticProperty(
                family=family,
                value=value,
                theta=min(thetas),
                label=adb.dim_label_of(family, value),
            )
        )
    return out


def _disjunctive_context(
    adb: AbductionReadyDatabase,
    family: PropertyFamily,
    per_example: List[Dict[Any, float]],
    config: SquidConfig,
) -> List[SemanticProperty]:
    """Footnote 7: a value-set filter when no single value is shared.

    Only single-valued categorical kinds qualify (one value per entity);
    the observed value union is the minimal valid disjunction.
    """
    if config.max_disjunction < 2:
        return []
    if family.kind not in (FamilyKind.DIRECT_CATEGORICAL, FamilyKind.FK_DIM):
        return []
    values = frozenset(next(iter(props)) for props in per_example)
    if len(values) < 2 or len(values) > config.max_disjunction:
        return []
    labels = sorted(adb.dim_label_of(family, v) for v in values)
    return [
        SemanticProperty(
            family=family,
            value=values,  # type: ignore[arg-type]
            theta=None,
            label="{" + ", ".join(labels) + "}",
        )
    ]


def _make_filter(adb: AbductionReadyDatabase, prop: SemanticProperty) -> Filter:
    """Annotate a property with its selectivity and domain coverage."""
    family = prop.family
    stats = adb.statistics.get(family)
    if family.kind is FamilyKind.DIRECT_NUMERIC:
        assert isinstance(stats, NumericStats)
        low, high = prop.value  # type: ignore[misc]
        return Filter(
            prop=prop,
            selectivity=stats.selectivity(low, high),
            domain_coverage=stats.coverage(low, high),
        )
    if family.kind.is_basic:
        assert isinstance(stats, CategoricalStats)
        if isinstance(prop.value, frozenset):
            return Filter(
                prop=prop,
                selectivity=stats.selectivity_in(sorted(prop.value, key=repr)),
                domain_coverage=stats.coverage(sorted(prop.value, key=repr)),
            )
        return Filter(
            prop=prop,
            selectivity=stats.selectivity(prop.value),
            domain_coverage=stats.coverage([prop.value]),
        )
    assert isinstance(stats, DerivedStats)
    theta = prop.theta if prop.theta is not None else 1.0
    if adb.config.normalize_association or _is_normalized(theta, stats, prop.value):
        selectivity = _normalized_selectivity(adb, family, prop.value, theta, stats)
    else:
        selectivity = stats.selectivity(prop.value, theta)
    return Filter(
        prop=prop,
        selectivity=selectivity,
        domain_coverage=stats.coverage([prop.value]),
    )


def _is_normalized(theta: float, stats: DerivedStats, value: Any) -> bool:
    """Heuristic: fractional θ < 1 implies the normalised mode produced it."""
    return 0.0 < theta < 1.0


def _normalized_selectivity(
    adb: AbductionReadyDatabase,
    family: PropertyFamily,
    value: Any,
    theta: float,
    stats: DerivedStats,
) -> float:
    """Selectivity under normalised association strengths.

    The precomputed per-value strength arrays store raw counts, so the
    normalised variant recomputes the share of entities whose *fraction*
    of associations to ``value`` is at least θ, from the family's probe
    map (one pass over its entities; only the case-study configuration
    uses it).
    """
    n = adb.entity_count(family.entity)
    if n == 0:
        return 0.0
    satisfied = 0
    for props in adb.family_map(family).values():
        hit = props.get(value)
        if hit is None:
            continue
        total = float(sum(props.values()))
        if total > 0 and hit / total >= theta:
            satisfied += 1
    return satisfied / n
