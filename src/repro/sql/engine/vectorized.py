"""Vectorized execution over numpy column arrays.

Evaluates SPJ(A, intersect) queries with array kernels instead of
per-tuple Python loops:

* selections become boolean masks over the relation's cached
  :class:`~repro.relational.relation.ColumnArray` views;
* joins run through sort/searchsorted kernels, reusing the relation's
  cached :class:`~repro.relational.relation.SortedView` as the build-side
  "index" whenever the build input is the whole column;
* grouping factorizes the GROUP BY columns into dense codes and reduces
  with ``np.unique`` / ``np.bincount``.

Partial join results are parallel int64 row-id arrays (one per table
alias), so extending a join multiplies array gathers instead of copying
Python dicts.  Only the final projection touches Python values, and only
for rows that survive every phase.  Semantics (NULL never matches, set
INTERSECT, first-seen group representatives) mirror the interpreted
reference engine; the equivalence suite keeps them locked together.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from ...relational.database import Database
from ...relational.errors import QueryError
from ...relational.relation import ColumnArray, Relation
from ..ast import AnyQuery, IntersectQuery, JoinCondition, Op, Predicate, Query
from ..result import ResultSet, execute_intersect
from .base import ExecutionBackend, validate_query
from .kernels import (
    JoinBuild,
    combine_codes,
    equi_join,
    factorize,
    hash_join,
    join_sorted,
)

Bindings = Dict[str, np.ndarray]
Candidates = Dict[str, Optional[np.ndarray]]


@dataclass(frozen=True)
class PlanStep:
    """One extension of the partial join.

    ``connecting`` indexes ``query.joins``; empty means a cross product.
    ``drops`` lists aliases whose bindings are dead after this step —
    not referenced by any later join, residual, select or group-by ref —
    and may be released by executors that opt into liveness pruning.
    """

    alias: str
    connecting: Tuple[int, ...]
    drops: Tuple[str, ...]


@dataclass(frozen=True)
class JoinPlan:
    """A fixed join order for one SPJ(A) block.

    Computed once from the full candidate sizes, so every shard of a
    partitioned execution follows the exact order the single-process
    engine would pick — shard results then concatenate into the same
    row sequence.
    """

    start: str
    steps: Tuple[PlanStep, ...]
    residuals: Tuple[int, ...]


def plan_joins(
    query: Query,
    alias_map: Dict[str, str],
    estimated_size: Callable[[str], int],
) -> JoinPlan:
    """Replicates ``_join_all``'s greedy connected-smallest-first order."""
    aliases = list(alias_map)
    # A stable sort once: filtering it keeps the smallest-first order
    # (ties in alias order) that sorting the unbound aliases gives.
    by_size = sorted(aliases, key=estimated_size)
    start = by_size[0]
    bound = {start}
    joins = query.joins
    touching: Dict[str, List[int]] = {alias: [] for alias in aliases}
    for i, join in enumerate(joins):
        for alias in {join.left.table, join.right.table}:
            if alias in touching:
                touching[alias].append(i)
    alive = [True] * len(joins)
    raw_steps: List[Tuple[str, Tuple[int, ...]]] = []
    while len(bound) < len(aliases):
        unbound = [a for a in by_size if a not in bound]
        chosen = unbound[0]
        connecting: List[int] = []
        for alias in unbound:
            connecting = [
                i
                for i in touching[alias]
                if alive[i] and joins[i].other_side(alias).table in bound
            ]
            if connecting:
                chosen = alias
                break
        raw_steps.append((chosen, tuple(connecting)))
        bound.add(chosen)
        # Equal (duplicated) join conditions touch the same aliases, so
        # they always connect, and leave the pool, together.
        for i in connecting:
            alive[i] = False
    residuals = tuple(i for i, live in enumerate(alive) if live)

    # Liveness: the last stage each alias is referenced at.  Stage k is
    # step k; stage len(steps) covers residual joins and the final
    # select/group-by projection (those aliases are never droppable).
    final_stage = len(raw_steps)
    keep = {ref.table for ref in query.select}
    keep |= {ref.table for ref in query.group_by}
    last = {alias: (final_stage if alias in keep else -1) for alias in aliases}
    for k, (alias, connecting) in enumerate(raw_steps):
        referenced = {alias}
        for i in connecting:
            join = query.joins[i]
            referenced.add(join.left.table)
            referenced.add(join.right.table)
        for a in referenced:
            last[a] = max(last[a], k)
    for i in residuals:
        join = query.joins[i]
        last[join.left.table] = final_stage
        last[join.right.table] = final_stage
    for alias in aliases:
        if last[alias] < 0:  # never referenced: keep it alive defensively
            last[alias] = final_stage
    steps = tuple(
        PlanStep(
            alias,
            connecting,
            tuple(sorted(a for a in aliases if last[a] == k)),
        )
        for k, (alias, connecting) in enumerate(raw_steps)
    )
    return JoinPlan(start=start, steps=steps, residuals=residuals)


def make_join_build(
    relation: Relation, column: str, cand: Optional[np.ndarray]
) -> JoinBuild:
    """A reusable :class:`JoinBuild` mirroring ``_join_against``'s inputs."""
    if cand is None:
        view = relation.sorted_view(column)
        if view is not None:
            return JoinBuild(view.values, view.row_ids, presorted=True)
        arr = relation.column_array(column)
        rids = np.nonzero(arr.mask)[0]
        return JoinBuild(arr.values[rids], rids)
    arr = relation.column_array(column)
    rids = cand[arr.mask[cand]]
    return JoinBuild(arr.values[rids], rids)


class VectorizedBackend(ExecutionBackend):
    """Array-at-a-time execution over cached numpy column views."""

    name = "vectorized"

    def __init__(self, database: Database) -> None:
        super().__init__(database)
        self._stats_lock = threading.Lock()
        self.blocks_executed = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def execute(self, query: AnyQuery) -> ResultSet:
        """Run ``query`` and return its materialised result."""
        if isinstance(query, IntersectQuery):
            return execute_intersect(query.blocks, self._execute_block)
        return self._execute_block(query)

    def stats(self) -> Dict[str, int]:
        """Execution counters (blocks run, intersect blocks included)."""
        with self._stats_lock:
            return {"vectorized_blocks": self.blocks_executed}

    # ------------------------------------------------------------------
    # single block
    # ------------------------------------------------------------------
    def _execute_block(self, query: Query) -> ResultSet:
        alias_map = query.alias_map()
        validate_query(self.db, query)
        with self._stats_lock:
            self.blocks_executed += 1
        candidates = self._pushdown(query, alias_map)
        bindings, count = self._join_all(query, alias_map, candidates)
        if query.group_by:
            bindings, count = self._aggregate(query, alias_map, bindings, count)
        return self._project(query, alias_map, bindings, count)

    def _relation(self, alias_map: Dict[str, str], alias: str) -> Relation:
        return self.db.relation(alias_map[alias])

    # ------------------------------------------------------------------
    # selection masks
    # ------------------------------------------------------------------
    def _pushdown(
        self, query: Query, alias_map: Dict[str, str]
    ) -> Dict[str, Optional[np.ndarray]]:
        """Per-alias candidate row ids (``None`` means "all rows")."""
        by_alias: Dict[str, List[Predicate]] = {}
        for pred in query.predicates:
            by_alias.setdefault(pred.column.table, []).append(pred)
        out: Dict[str, Optional[np.ndarray]] = {}
        for alias in alias_map:
            preds = by_alias.get(alias)
            if not preds:
                out[alias] = None
                continue
            relation = self._relation(alias_map, alias)
            mask: Optional[np.ndarray] = None
            for pred in preds:
                arr = relation.column_array(pred.column.column)
                pm = self._predicate_mask(arr, pred)
                mask = pm if mask is None else (mask & pm)
            out[alias] = np.nonzero(mask)[0]
        return out

    def _predicate_mask(self, arr: ColumnArray, pred: Predicate) -> np.ndarray:
        """Boolean mask of rows satisfying ``pred`` (NULL rows are False)."""
        values, mask = arr.values, arr.mask
        out = np.zeros(len(values), dtype=bool)
        nn = np.nonzero(mask)[0]
        if nn.size == 0:
            return out
        sub = values[nn]
        op = pred.op
        if op is Op.EQ:
            hits = sub == pred.value
        elif op is Op.IN:
            members = set(pred.value)  # type: ignore[arg-type]
            if sub.dtype == object:
                hits = np.fromiter(
                    (v in members for v in sub.tolist()), dtype=bool, count=sub.size
                )
            else:
                # Only numeric members can match a numeric column; mixing
                # in strings would turn np.array(members) into a string
                # array and silently match nothing.
                numeric = [m for m in members if isinstance(m, (int, float))]
                hits = (
                    np.isin(sub, np.asarray(numeric))
                    if numeric
                    else np.zeros(sub.size, dtype=bool)
                )
        elif op is Op.GE:
            hits = sub >= pred.value
        elif op is Op.LE:
            hits = sub <= pred.value
        elif op is Op.BETWEEN:
            low, high = pred.value  # type: ignore[misc]
            hits = (sub >= low) & (sub <= high)
        else:
            raise QueryError(f"unsupported op {op!r}")
        if not isinstance(hits, np.ndarray):  # object == scalar may yield bool
            hits = np.full(sub.size, bool(hits), dtype=bool)
        out[nn] = hits
        return out

    # ------------------------------------------------------------------
    # joins
    # ------------------------------------------------------------------
    def _size_estimator(
        self, alias_map: Dict[str, str], candidates: Candidates
    ) -> Callable[[str], int]:
        def estimated_size(alias: str) -> int:
            cand = candidates[alias]
            if cand is not None:
                return int(cand.size)
            return len(self._relation(alias_map, alias))

        return estimated_size

    def _start_rids(
        self, alias_map: Dict[str, str], candidates: Candidates, start: str
    ) -> np.ndarray:
        cand = candidates[start]
        rids = (
            cand
            if cand is not None
            else np.arange(len(self._relation(alias_map, start)), dtype=np.int64)
        )
        return rids.astype(np.int64, copy=False)

    def _join_all(
        self,
        query: Query,
        alias_map: Dict[str, str],
        candidates: Candidates,
    ) -> Tuple[Bindings, int]:
        if not alias_map:
            return {}, 0
        plan = plan_joins(
            query, alias_map, self._size_estimator(alias_map, candidates)
        )
        start_rids = self._start_rids(alias_map, candidates, plan.start)
        return self._execute_plan(query, alias_map, candidates, plan, start_rids)

    def _execute_plan(
        self,
        query: Query,
        alias_map: Dict[str, str],
        candidates: Candidates,
        plan: JoinPlan,
        start_rids: np.ndarray,
        *,
        prune: bool = False,
        builds: Optional[Dict[str, JoinBuild]] = None,
    ) -> Tuple[Bindings, int]:
        """Run a fixed :class:`JoinPlan` over ``start_rids``.

        ``prune=True`` releases bindings the plan marks dead (shard
        executors: only select/group-by/join-live aliases survive);
        ``builds`` caches prepared build sides across calls so sharded
        probes sort each build side once.
        """
        aliases = list(alias_map)
        bindings: Bindings = {plan.start: start_rids}
        count = int(start_rids.size)
        for step in plan.steps:
            connecting = [query.joins[i] for i in step.connecting]
            bindings, count = self._extend(
                bindings, count, step.alias, alias_map, candidates, connecting,
                builds,
            )
            if count == 0:
                # Short-circuit: bind every remaining alias to empty arrays.
                for alias in aliases:
                    if alias not in bindings:
                        bindings[alias] = np.empty(0, dtype=np.int64)
                return bindings, 0
            if prune:
                for alias in step.drops:
                    del bindings[alias]
        for i in plan.residuals:
            bindings, count = self._apply_residual(
                bindings, count, query.joins[i], alias_map
            )
        return bindings, count

    def _gather(
        self,
        bindings: Bindings,
        alias_map: Dict[str, str],
        alias: str,
        column: str,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(values, non-null mask) of ``alias.column`` at the current rows."""
        arr = self._relation(alias_map, alias).column_array(column)
        rows = bindings[alias]
        return arr.values[rows], arr.mask[rows]

    def _extend(
        self,
        bindings: Bindings,
        count: int,
        alias: str,
        alias_map: Dict[str, str],
        candidates: Candidates,
        connecting: List[JoinCondition],
        builds: Optional[Dict[str, JoinBuild]] = None,
    ) -> Tuple[Bindings, int]:
        """Extend the partial join with one more table."""
        relation = self._relation(alias_map, alias)
        cand = candidates[alias]
        if not connecting:
            rids = (
                cand
                if cand is not None
                else np.arange(len(relation), dtype=np.int64)
            )
            k = int(rids.size)
            out = {a: np.repeat(arr, k) for a, arr in bindings.items()}
            out[alias] = np.tile(rids, count)
            return out, count * k

        probe_join = connecting[0]
        probe_ref = probe_join.other_side(alias)
        build_col = probe_join.side_of(alias).column
        probe_keys, probe_mask = self._gather(
            bindings, alias_map, probe_ref.table, probe_ref.column
        )
        valid = np.nonzero(probe_mask)[0]
        if builds is None:
            probe_idx, build_rids = self._join_against(
                relation, build_col, cand, probe_keys[valid]
            )
        else:
            build = builds.get(alias)
            if build is None:
                build = make_join_build(relation, build_col, cand)
                builds[alias] = build
            probe_idx, build_rids = build.probe(probe_keys[valid])
        keep = valid[probe_idx]
        out = {a: arr[keep] for a, arr in bindings.items()}
        out[alias] = build_rids
        new_count = int(build_rids.size)

        for join in connecting[1:]:
            mine = join.side_of(alias)
            theirs = join.other_side(alias)
            mask = self._equal_mask(out, alias_map, mine, theirs)
            out = {a: arr[mask] for a, arr in out.items()}
            new_count = int(out[alias].size)
        return out, new_count

    def _join_against(
        self,
        relation: Relation,
        column: str,
        cand: Optional[np.ndarray],
        probe_keys: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Join probe keys against one table column.

        Returns ``(probe_idx, build_rids)`` — indexes into ``probe_keys``
        and matching row ids of ``relation``.
        """
        if cand is None:
            view = relation.sorted_view(column)
            if view is not None:
                try:
                    probe_idx, pos = join_sorted(probe_keys, view.values)
                except TypeError:
                    pass
                else:
                    return probe_idx, view.row_ids[pos]
            arr = relation.column_array(column)
            rids = np.nonzero(arr.mask)[0]
            build_keys = arr.values[rids]
        else:
            arr = relation.column_array(column)
            rids = cand[arr.mask[cand]]
            build_keys = arr.values[rids]
        try:
            probe_idx, build_idx = equi_join(probe_keys, build_keys)
        except TypeError:
            probe_idx, build_idx = hash_join(probe_keys, build_keys)
        return probe_idx, rids[build_idx]

    def _equal_mask(
        self,
        bindings: Bindings,
        alias_map: Dict[str, str],
        left,
        right,
    ) -> np.ndarray:
        """NULL-safe equality mask between two bound column refs."""
        lv, lm = self._gather(bindings, alias_map, left.table, left.column)
        rv, rm = self._gather(bindings, alias_map, right.table, right.column)
        if lv.dtype == object or rv.dtype == object:
            eq = np.fromiter(
                (a == b for a, b in zip(lv.tolist(), rv.tolist())),
                dtype=bool,
                count=lv.size,
            )
        else:
            eq = lv == rv
        return eq & lm & rm

    def _apply_residual(
        self,
        bindings: Bindings,
        count: int,
        join: JoinCondition,
        alias_map: Dict[str, str],
    ) -> Tuple[Bindings, int]:
        mask = self._equal_mask(bindings, alias_map, join.left, join.right)
        out = {a: arr[mask] for a, arr in bindings.items()}
        return out, int(mask.sum())

    # ------------------------------------------------------------------
    # aggregation & projection
    # ------------------------------------------------------------------
    def _group_codes(
        self,
        query_refs,
        bindings: Bindings,
        alias_map: Dict[str, str],
        count: int,
    ) -> Optional[np.ndarray]:
        """Composite int64 group codes, or None if the key space overflows."""
        parts: List[Tuple[np.ndarray, int]] = []
        for ref in query_refs:
            values, mask = self._gather(bindings, alias_map, ref.table, ref.column)
            codes, uniques = factorize(values, mask)
            parts.append((codes, len(uniques)))
        return combine_codes(parts)

    def _aggregate(
        self,
        query: Query,
        alias_map: Dict[str, str],
        bindings: Bindings,
        count: int,
    ) -> Tuple[Bindings, int]:
        """GROUP BY + HAVING count(*): keep one row per surviving group."""
        if count == 0:
            return bindings, 0
        codes = self._group_codes(query.group_by, bindings, alias_map, count)
        if codes is None:
            return self._aggregate_fallback(query, alias_map, bindings, count)
        _, first_idx, counts = np.unique(
            codes, return_index=True, return_counts=True
        )
        having = query.having
        if having is not None:
            survivors = np.fromiter(
                (having.matches(int(c)) for c in counts),
                dtype=bool,
                count=counts.size,
            )
            first_idx = first_idx[survivors]
        first_idx = np.sort(first_idx)  # keep first-seen row order
        out = {a: arr[first_idx] for a, arr in bindings.items()}
        return out, int(first_idx.size)

    def _aggregate_fallback(
        self,
        query: Query,
        alias_map: Dict[str, str],
        bindings: Bindings,
        count: int,
    ) -> Tuple[Bindings, int]:
        """Tuple-keyed grouping for composite keys that overflow int64."""
        stores = [
            (
                ref.table,
                self._relation(alias_map, ref.table).column(ref.column),
            )
            for ref in query.group_by
        ]
        rows = {alias: arr.tolist() for alias, arr in bindings.items()}
        groups: Dict[Tuple, Tuple[int, int]] = {}
        for i in range(count):
            key = tuple(store[rows[alias][i]] for alias, store in stores)
            total, first = groups.get(key, (0, i))
            groups[key] = (total + 1, first)
        having = query.having
        keep = sorted(
            first
            for total, first in groups.values()
            if having is None or having.matches(total)
        )
        idx = np.asarray(keep, dtype=np.int64)
        return {a: arr[idx] for a, arr in bindings.items()}, int(idx.size)

    def _project(
        self,
        query: Query,
        alias_map: Dict[str, str],
        bindings: Bindings,
        count: int,
    ) -> ResultSet:
        labels = tuple(str(ref) for ref in query.select)
        if count == 0:
            return ResultSet(labels, [])
        stores = [
            (ref.table, self._relation(alias_map, ref.table).column(ref.column))
            for ref in query.select
        ]
        keep: Optional[np.ndarray] = None
        if query.distinct:
            codes = self._group_codes(query.select, bindings, alias_map, count)
            if codes is not None:
                _, first_idx = np.unique(codes, return_index=True)
                keep = np.sort(first_idx)
        if keep is not None:
            bindings = {a: arr[keep] for a, arr in bindings.items()}
            count = int(keep.size)
        rows_by_alias = {
            alias: bindings[alias].tolist()
            for alias in {ref.table for ref in query.select}
        }
        rows: List[Tuple] = []
        seen: Set[Tuple] = set()
        dedupe = query.distinct and keep is None
        for i in range(count):
            row = tuple(
                store[rows_by_alias[alias][i]] for alias, store in stores
            )
            if dedupe:
                if row in seen:
                    continue
                seen.add(row)
            rows.append(row)
        return ResultSet(labels, rows)
