"""Uniform benchmark-workload records.

A :class:`Workload` ties one benchmark query (IQ1..IQ16, DQ1..DQ5, AQ*) to
the entity it targets, its ground-truth query over the original schema,
and the join/selection counts the paper reports for it (Figures 19/20).

Ground truth is evaluated by executing the query with the entity key
projected, so result comparison is robust to duplicate display names.
Queries outside the executor's expressiveness (IQ10's compound derived
condition) provide a programmatic ``evaluator`` instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, List, Optional, Sequence, Set

from ..relational.database import Database
from ..sql.ast import AnyQuery, ColumnRef, IntersectQuery, Query
from ..sql.executor import execute


@dataclass
class Workload:
    """One benchmark query with its ground truth."""

    qid: str
    dataset: str
    description: str
    entity_table: str
    entity_key: str
    display: str
    query: Optional[AnyQuery] = None
    """Ground-truth SPJ(A/I) query over the original schema, projecting
    ``(entity_key, display)``."""

    evaluator: Optional[Callable[[Database], Set[Any]]] = None
    """Programmatic ground truth for intents outside the query AST."""

    num_joins: int = 0
    num_selections: int = 0
    """The paper's reported J and S for context in reports."""

    def __post_init__(self) -> None:
        if self.query is None and self.evaluator is None:
            raise ValueError(f"{self.qid}: needs a query or an evaluator")

    def ground_truth_keys(self, db: Database) -> Set[Any]:
        """Entity keys of the intended result set."""
        if self.evaluator is not None:
            return set(self.evaluator(db))
        assert self.query is not None
        result = execute(db, self.query)
        return {row[0] for row in result.rows}

    def ground_truth_examples(self, db: Database) -> List[str]:
        """Display values of the intended result (for sampling examples).

        Values whose display string maps to several entities of which some
        are *not* in the result are kept — SQuID's disambiguation is
        expected to handle them (Fig. 12 relies on this).
        """
        return self.display_values(db, self.ground_truth_keys(db))

    def display_values(self, db: Database, keys: Set[Any]) -> List[str]:
        """Display values of ``keys`` in ``repr`` order of the key, empty
        or missing displays skipped (see :meth:`ground_truth_examples`)."""
        relation = db.relation(self.entity_table)
        key_store = relation.column(self.entity_key)
        display_store = relation.column(self.display)
        by_key = dict(zip(key_store, display_store))
        return [by_key[k] for k in sorted(keys, key=repr) if by_key.get(k)]

    def cardinality(self, db: Database) -> int:
        """|Q(D)| of the ground truth."""
        return len(self.ground_truth_keys(db))


class WorkloadRegistry:
    """Named collection of workloads for one dataset."""

    def __init__(self, dataset: str, workloads: Sequence[Workload]) -> None:
        self.dataset = dataset
        self._by_id = {w.qid: w for w in workloads}
        if len(self._by_id) != len(workloads):
            raise ValueError("duplicate workload ids")

    def extend(self, workloads: Iterable[Workload]) -> None:
        """Register additional workloads (e.g. synthetic scenarios
        merging into a registry); duplicate ids raise ``ValueError``."""
        for workload in workloads:
            if workload.qid in self._by_id:
                raise ValueError(f"duplicate workload id {workload.qid!r}")
            self._by_id[workload.qid] = workload

    def get(self, qid: str) -> Workload:
        """One workload by id (raises KeyError)."""
        return self._by_id[qid]

    def all(self) -> List[Workload]:
        """All workloads in insertion order."""
        return list(self._by_id.values())

    def ids(self) -> List[str]:
        """All workload ids."""
        return list(self._by_id)

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self):
        return iter(self._by_id.values())
