"""The interpreted row-at-a-time engine (reference implementation).

This is the original executor, moved behind the :class:`ExecutionBackend`
interface: a straightforward hash-join pipeline:

1. single-table predicates are pushed down and resolved with hash / sorted
   indexes where possible;
2. tables are joined greedily starting from the smallest filtered input,
   always extending to a table connected by a join condition;
3. group-by aggregation (``count(*)`` with HAVING) runs over the joined
   tuples;
4. projection (+DISTINCT) produces the result.

It favours clarity over planner sophistication; the vectorized and SQLite
backends are checked against it by the cross-backend equivalence suite, so
keep its semantics authoritative.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ...relational.database import Database
from ...relational.errors import QueryError
from ..ast import AnyQuery, IntersectQuery, JoinCondition, Op, Predicate, Query
from ..result import ResultSet, execute_intersect
from .base import ExecutionBackend, validate_query


class InterpretedBackend(ExecutionBackend):
    """Row-at-a-time execution over hash / sorted indexes."""

    name = "interpreted"

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
            return {"interpreted_blocks": self.blocks_executed}

    # ------------------------------------------------------------------
    # single block
    # ------------------------------------------------------------------
    def _execute_block(self, query: Query) -> ResultSet:
        """Run one SPJ(A) block."""
        alias_map = query.alias_map()
        validate_query(self.db, query)
        with self._stats_lock:
            self.blocks_executed += 1
        candidates = self._pushdown(query, alias_map)
        joined = self._join_all(query, alias_map, candidates)
        if query.group_by:
            joined = self._aggregate(query, alias_map, joined)
        return self._project(query, alias_map, joined)

    # ------------------------------------------------------------------
    # predicate pushdown
    # ------------------------------------------------------------------
    def _pushdown(
        self, query: Query, alias_map: Dict[str, str]
    ) -> Dict[str, Optional[List[int]]]:
        """Per-alias candidate row ids (``None`` means "all rows")."""
        by_alias: Dict[str, List[Predicate]] = {}
        for pred in query.predicates:
            by_alias.setdefault(pred.column.table, []).append(pred)
        out: Dict[str, Optional[List[int]]] = {}
        for alias in alias_map:
            preds = by_alias.get(alias)
            out[alias] = None if not preds else self._filter_table(
                alias_map[alias], preds
            )
        return out

    def _filter_table(self, table: str, preds: List[Predicate]) -> List[int]:
        """Row ids of ``table`` satisfying all of ``preds``."""
        first, rest = preds[0], preds[1:]
        rids = self._index_scan(table, first)
        if not rest:
            return rids
        relation = self.db.relation(table)
        columns = {
            p.column.column: relation.column(p.column.column) for p in rest
        }
        out = []
        for rid in rids:
            if all(p.matches(columns[p.column.column][rid]) for p in rest):
                out.append(rid)
        return out

    def _index_scan(self, table: str, pred: Predicate) -> List[int]:
        """Resolve one predicate via the best available index."""
        column = pred.column.column
        if pred.op is Op.EQ:
            return list(self.db.hash_index(table, column).lookup(pred.value))
        if pred.op is Op.IN:
            return self.db.hash_index(table, column).lookup_many(
                sorted(pred.value, key=repr)  # type: ignore[arg-type]
            )
        index = self.db.sorted_index(table, column)
        if pred.op is Op.GE:
            return index.range(low=pred.value)
        if pred.op is Op.LE:
            return index.range(high=pred.value)
        if pred.op is Op.BETWEEN:
            low, high = pred.value  # type: ignore[misc]
            return index.range(low=low, high=high)
        raise QueryError(f"unsupported op {pred.op!r}")

    # ------------------------------------------------------------------
    # joins
    # ------------------------------------------------------------------
    def _join_all(
        self,
        query: Query,
        alias_map: Dict[str, str],
        candidates: Dict[str, Optional[List[int]]],
    ) -> List[Dict[str, int]]:
        """Join every table; returns bindings alias -> row id."""
        aliases = list(alias_map)
        if not aliases:
            return []

        def estimated_size(alias: str) -> int:
            cand = candidates[alias]
            if cand is not None:
                return len(cand)
            return len(self.db.relation(alias_map[alias]))

        start = min(aliases, key=estimated_size)
        cand = candidates[start]
        rids = cand if cand is not None else list(
            self.db.relation(alias_map[start]).row_ids()
        )
        partials: List[Dict[str, int]] = [{start: rid} for rid in rids]
        bound = {start}
        remaining_joins = list(query.joins)

        while len(bound) < len(aliases):
            next_alias, connecting = self._pick_next(
                aliases, bound, remaining_joins, estimated_size
            )
            if next_alias is None:
                # Disconnected query graph: fall back to a cross product with
                # the smallest remaining table (rare; kept for completeness).
                next_alias = min(
                    (a for a in aliases if a not in bound), key=estimated_size
                )
                connecting = []
            partials = self._extend(
                partials, next_alias, alias_map, candidates, connecting
            )
            bound.add(next_alias)
            remaining_joins = [j for j in remaining_joins if j not in connecting]
            if not partials:
                break

        # Any join conditions not consumed (e.g. both sides already bound by
        # other paths / cycles) are applied as residual filters.
        for join in remaining_joins:
            partials = self._apply_residual(partials, join, alias_map)
        return partials

    def _pick_next(
        self,
        aliases: Sequence[str],
        bound: Set[str],
        joins: Sequence[JoinCondition],
        estimated_size,
    ) -> Tuple[Optional[str], List[JoinCondition]]:
        """Choose the next table connected to the bound set via some join."""
        best: Optional[str] = None
        for alias in sorted(
            (a for a in aliases if a not in bound), key=estimated_size
        ):
            connecting = [
                j
                for j in joins
                if j.touches(alias) and j.other_side(alias).table in bound
            ]
            if connecting:
                return alias, connecting
            if best is None:
                best = alias
        return None, []

    def _extend(
        self,
        partials: List[Dict[str, int]],
        alias: str,
        alias_map: Dict[str, str],
        candidates: Dict[str, Optional[List[int]]],
        connecting: List[JoinCondition],
    ) -> List[Dict[str, int]]:
        """Extend partial bindings with one more table."""
        table = alias_map[alias]
        relation = self.db.relation(table)
        cand = candidates[alias]
        if not connecting:
            rids = cand if cand is not None else list(relation.row_ids())
            return [
                dict(partial, **{alias: rid}) for partial in partials for rid in rids
            ]
        probe = connecting[0]
        probe_col = probe.side_of(alias).column
        other = probe.other_side(alias)
        other_store = self.db.relation(alias_map[other.table]).column(other.column)
        index = self.db.hash_index(table, probe_col)
        allowed = set(cand) if cand is not None else None
        checks = []
        for join in connecting[1:]:
            mine = join.side_of(alias).column
            theirs = join.other_side(alias)
            checks.append(
                (
                    relation.column(mine),
                    theirs.table,
                    self.db.relation(alias_map[theirs.table]).column(theirs.column),
                )
            )
        out: List[Dict[str, int]] = []
        for partial in partials:
            key = other_store[partial[other.table]]
            if key is None:
                continue
            for rid in index.lookup(key):
                if allowed is not None and rid not in allowed:
                    continue
                ok = True
                for mine_store, their_alias, their_store in checks:
                    mine_value = mine_store[rid]
                    if mine_value is None or mine_value != their_store[
                        partial[their_alias]
                    ]:
                        ok = False
                        break
                if ok:
                    extended = dict(partial)
                    extended[alias] = rid
                    out.append(extended)
        return out

    def _apply_residual(
        self,
        partials: List[Dict[str, int]],
        join: JoinCondition,
        alias_map: Dict[str, str],
    ) -> List[Dict[str, int]]:
        left_store = self.db.relation(alias_map[join.left.table]).column(
            join.left.column
        )
        right_store = self.db.relation(alias_map[join.right.table]).column(
            join.right.column
        )
        # NULL keys never join (matches the reference oracle's semantics).
        return [
            p
            for p in partials
            if left_store[p[join.left.table]] is not None
            and left_store[p[join.left.table]] == right_store[p[join.right.table]]
        ]

    # ------------------------------------------------------------------
    # aggregation & projection
    # ------------------------------------------------------------------
    def _aggregate(
        self,
        query: Query,
        alias_map: Dict[str, str],
        partials: List[Dict[str, int]],
    ) -> List[Dict[str, int]]:
        """GROUP BY + HAVING count(*): keep one binding per surviving group."""
        stores = [
            (ref.table, self.db.relation(alias_map[ref.table]).column(ref.column))
            for ref in query.group_by
        ]
        groups: Dict[Tuple[Any, ...], Tuple[int, Dict[str, int]]] = {}
        for partial in partials:
            key = tuple(store[partial[alias]] for alias, store in stores)
            count, representative = groups.get(key, (0, partial))
            groups[key] = (count + 1, representative)
        having = query.having
        out = []
        for count, representative in groups.values():
            if having is None or having.matches(count):
                out.append(representative)
        return out

    def _project(
        self,
        query: Query,
        alias_map: Dict[str, str],
        partials: List[Dict[str, int]],
    ) -> ResultSet:
        stores = [
            (ref.table, self.db.relation(alias_map[ref.table]).column(ref.column))
            for ref in query.select
        ]
        labels = tuple(str(ref) for ref in query.select)
        rows: List[Tuple[Any, ...]] = []
        seen: Set[Tuple[Any, ...]] = set()
        for partial in partials:
            row = tuple(store[partial[alias]] for alias, store in stores)
            if query.distinct:
                if row in seen:
                    continue
                seen.add(row)
            rows.append(row)
        return ResultSet(labels, rows)
