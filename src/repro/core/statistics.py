"""Selectivity precomputation — the αDB's "smart selectivity" store (§5).

For every property family the offline module precomputes what the online
abduction needs to evaluate ψ(φ) in O(log n) or O(1):

* categorical-like families (direct categorical, fk-dim, fact-dim) — the
  number of entities per value;
* numeric families — the sorted value array, so any range selectivity is
  two binary searches (the paper's prefix trick
  ψ(φ⟨A,(l,h]⟩) = ψ(φ⟨A,[min,h]⟩) − ψ(φ⟨A,[min,l]⟩));
* derived families — per value, the sorted array of association strengths
  across entities, so ψ(φ⟨A,v,θ⟩) is one binary search.

Selectivity is always relative to the entity count |Q*(D)| (the base query
returns every entity).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..relational.database import Database
from ..sql.engine.kernels import factorize
from .properties import FamilyKind, PropertyFamily


@dataclass
class CategoricalStats:
    """Per-value entity counts for a categorical-like family."""

    entity_count: int
    value_counts: Dict[Any, int]

    def selectivity(self, value: Any) -> float:
        """ψ of ``attribute = value``."""
        if self.entity_count == 0:
            return 0.0
        return self.value_counts.get(value, 0) / self.entity_count

    def selectivity_in(self, values: Sequence[Any]) -> float:
        """ψ of a disjunction over categorical values (upper bound: sum)."""
        if self.entity_count == 0:
            return 0.0
        total = sum(self.value_counts.get(v, 0) for v in set(values))
        return min(1.0, total / self.entity_count)

    @property
    def domain_size(self) -> int:
        """Number of distinct values in the active domain."""
        return len(self.value_counts)

    def coverage(self, values: Sequence[Any]) -> float:
        """Fraction of the active domain covered by ``values``."""
        if not self.value_counts:
            return 1.0
        return min(1.0, len(set(values)) / len(self.value_counts))


@dataclass
class NumericStats:
    """Sorted values of a numeric family (one entry per entity)."""

    entity_count: int
    sorted_values: np.ndarray

    def selectivity(self, low: float, high: float) -> float:
        """ψ of ``low <= attribute <= high`` (inclusive both sides)."""
        if self.entity_count == 0 or self.sorted_values.size == 0:
            return 0.0
        hi = int(np.searchsorted(self.sorted_values, high, side="right"))
        lo = int(np.searchsorted(self.sorted_values, low, side="left"))
        return (hi - lo) / self.entity_count

    def prefix_selectivity(self, value: float) -> float:
        """ψ of ``attribute <= value`` — the precomputed prefix form."""
        if self.entity_count == 0:
            return 0.0
        hi = int(np.searchsorted(self.sorted_values, value, side="right"))
        return hi / self.entity_count

    @property
    def domain_min(self) -> Optional[float]:
        """Smallest observed value."""
        return float(self.sorted_values[0]) if self.sorted_values.size else None

    @property
    def domain_max(self) -> Optional[float]:
        """Largest observed value."""
        return float(self.sorted_values[-1]) if self.sorted_values.size else None

    def coverage(self, low: float, high: float) -> float:
        """Fraction of the active domain span covered by [low, high]."""
        lo, hi = self.domain_min, self.domain_max
        if lo is None or hi is None or hi == lo:
            return 1.0
        return min(1.0, max(0.0, (high - low) / (hi - lo)))


@dataclass
class DerivedStats:
    """Per-value sorted association strengths for a derived family."""

    entity_count: int
    strengths: Dict[Any, np.ndarray]
    """value -> ascending array of θ across the entities holding it."""

    def selectivity(self, value: Any, theta: float) -> float:
        """ψ of ``associated with value at strength >= theta``."""
        if self.entity_count == 0:
            return 0.0
        arr = self.strengths.get(value)
        if arr is None or arr.size == 0:
            return 0.0
        lo = int(np.searchsorted(arr, theta, side="left"))
        return (arr.size - lo) / self.entity_count

    @property
    def domain_size(self) -> int:
        """Number of distinct values the family takes."""
        return len(self.strengths)

    def coverage(self, values: Sequence[Any]) -> float:
        """Fraction of the active value domain covered."""
        if not self.strengths:
            return 1.0
        return min(1.0, len(set(values)) / len(self.strengths))


FamilyStats = object  # union of the three stats classes


class StatisticsStore:
    """All per-family statistics, keyed by (entity, attribute)."""

    def __init__(self) -> None:
        self._stats: Dict[Tuple[str, str], FamilyStats] = {}

    def get(self, family: PropertyFamily) -> FamilyStats:
        """Statistics for one family (raises KeyError if not computed)."""
        return self._stats[family.key]

    def put(self, family: PropertyFamily, stats: FamilyStats) -> None:
        """Store statistics for one family."""
        self._stats[family.key] = stats

    def __contains__(self, family: PropertyFamily) -> bool:
        return family.key in self._stats

    def __len__(self) -> int:
        return len(self._stats)


def compute_statistics(
    database: Database,
    families: Sequence[PropertyFamily],
    entity_counts: Dict[str, int],
) -> StatisticsStore:
    """Precompute selectivity statistics for every family."""
    store = StatisticsStore()
    for family in families:
        n = entity_counts[family.entity]
        if family.kind is FamilyKind.DIRECT_NUMERIC:
            store.put(family, _numeric_stats(database, family, n))
        elif family.kind in (FamilyKind.DIRECT_CATEGORICAL, FamilyKind.FK_DIM):
            store.put(family, _direct_categorical_stats(database, family, n))
        elif family.kind in (FamilyKind.FACT_DIM, FamilyKind.FACT_ATTR):
            store.put(family, _fact_dim_stats(database, family, n))
        else:
            store.put(family, _derived_stats(database, family, n))
    return store


def _numeric_stats(
    database: Database, family: PropertyFamily, entity_count: int
) -> NumericStats:
    arr = database.relation(family.entity).column_array(family.column)
    values = arr.values[arr.mask]
    if values.size and values.dtype == object:  # int64-overflow fallback
        values = np.asarray([float(v) for v in values.tolist()])
    sorted_values = (
        np.sort(values.astype(float, copy=False)) if values.size else np.empty(0)
    )
    return NumericStats(entity_count=entity_count, sorted_values=sorted_values)


def _direct_categorical_stats(
    database: Database, family: PropertyFamily, entity_count: int
) -> CategoricalStats:
    column = family.column if family.kind is FamilyKind.DIRECT_CATEGORICAL else family.fk_column
    arr = database.relation(family.entity).column_array(column)
    values = arr.values[arr.mask]
    counts: Dict[Any, int] = {}
    try:
        uniq, uniq_counts = np.unique(values, return_counts=True)
    except TypeError:  # mixed incomparable object values
        for value in values.tolist():
            counts[value] = counts.get(value, 0) + 1
    else:
        counts = dict(zip(uniq.tolist(), (int(c) for c in uniq_counts)))
    return CategoricalStats(entity_count=entity_count, value_counts=counts)


def _fact_dim_stats(
    database: Database, family: PropertyFamily, entity_count: int
) -> CategoricalStats:
    """Entities per associated value: count *distinct* entities."""
    fact = database.relation(family.fact_table)
    entity_arr = fact.column_array(family.fact_entity_col)
    value_column = (
        family.fact_dim_col
        if family.kind is FamilyKind.FACT_DIM
        else family.column
    )
    dim_arr = fact.column_array(value_column)
    present = entity_arr.mask & dim_arr.mask
    entity_codes, entity_uniques = factorize(entity_arr.values, present)
    dim_codes, dim_uniques = factorize(dim_arr.values, present)
    kd = len(dim_uniques)
    counts: Dict[Any, int] = {}
    if kd:
        valid = np.nonzero(present)[0]
        # Distinct (entity, value) pairs via composite codes, then a
        # bincount over each pair's value code.
        composite = entity_codes[valid] * np.int64(kd) + dim_codes[valid]
        unique_pairs = np.unique(composite)
        per_value = np.bincount(unique_pairs % kd, minlength=kd)
        counts = {
            dim_uniques[code]: int(n)
            for code, n in enumerate(per_value)
            if n
        }
    return CategoricalStats(entity_count=entity_count, value_counts=counts)


def _derived_stats(
    database: Database, family: PropertyFamily, entity_count: int
) -> DerivedStats:
    relation = database.relation(family.derived_table)
    value_arr = relation.column_array(family.derived_value_col)
    count_arr = relation.column_array("count")
    codes, uniques = factorize(value_arr.values, value_arr.mask)
    strengths: Dict[Any, np.ndarray] = {}
    valid = np.nonzero(codes >= 0)[0]
    if valid.size:
        # One sort by (value code, θ); each value's strengths are then a
        # contiguous ascending slice.
        codes = codes[valid]
        theta = count_arr.values[valid].astype(float)
        order = np.lexsort((theta, codes))
        codes, theta = codes[order], theta[order]
        starts = np.flatnonzero(np.diff(codes, prepend=-1))
        ends = np.append(starts[1:], codes.size)
        for code, start, end in zip(
            codes[starts].tolist(), starts.tolist(), ends.tolist()
        ):
            strengths[uniques[code]] = theta[start:end]
    return DerivedStats(entity_count=entity_count, strengths=strengths)
