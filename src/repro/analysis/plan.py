"""Schema-aware static verification of SPJ(A, intersect) query plans.

:func:`verify_query` checks a :class:`~repro.sql.ast.Query` /
``IntersectQuery`` against a :class:`~repro.relational.database.Database`
schema *before* any engine executes it.  Every finding is a
:class:`~repro.analysis.diagnostics.Diagnostic` with a stable code:

====== ======== ========================================================
code   severity finding
====== ======== ========================================================
PLAN001 error   FROM references a table the database does not have
PLAN002 error   a column reference names a column its table lacks
PLAN003 error   equi-join between type-incompatible columns
PLAN004 error   predicate value incompatible with the column's type
PLAN005 warning join graph is disconnected (cartesian-product block)
PLAN006 error   predicate conjunction statically unsatisfiable
PLAN007 —       retired (was: exact-statistics domain emptiness)
PLAN008 warning block exceeds SQLite's 64-join-table limit (chained
                MATERIALIZED CTE compilation engages on that route)
PLAN009 error   GROUP BY projection not functionally determined
PLAN010 error   INTERSECT blocks have type-incompatible columns
====== ======== ========================================================

Severity semantics: *errors* mark queries whose execution is wrong,
engine-dependent, or provably empty from the query text alone — the
pre-execution gate (:class:`~repro.analysis.gate.AnalyzingBackend`)
refuses to run them.  *Warnings* mark hazards that execute fine today
(a cartesian block, a >64-alias star).

PLAN007 is retired: it warned on data-dependent emptiness, read from
the column-statistics provider that went with the cost-based router.
The code stays reserved and is never reused, so old logs keep one
meaning.

INT and FLOAT columns are mutually compatible everywhere (joins,
predicates, INTERSECT positions); every other type only matches itself.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..relational.database import Database
from ..relational.schema import TableSchema
from ..relational.types import ColumnType
from ..sql.ast import AnyQuery, ColumnRef, IntersectQuery, Op, Query
from .diagnostics import Diagnostic, Severity

#: Retired plan-verifier codes: never emitted, never reused.
RETIRED_PLAN_CODES: Tuple[str, ...] = ("PLAN007",)

#: Stable plan-verifier diagnostic codes (see module docstring).
PLAN_CODES: Tuple[str, ...] = tuple(
    code
    for code in (f"PLAN{i:03d}" for i in range(1, 11))
    if code not in RETIRED_PLAN_CODES
)

#: SQLite's hard limit on tables in one join (the >64-alias hazard).
SQLITE_MAX_JOIN_TABLES = 64


def _compatible(a: ColumnType, b: ColumnType) -> bool:
    """Whether two column types can be compared/joined meaningfully."""
    return a is b or (a.is_numeric and b.is_numeric)


def _value_fits(value: Any, ctype: ColumnType) -> bool:
    """Whether one predicate constant is comparable with ``ctype``."""
    if ctype.is_numeric:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if ctype is ColumnType.TEXT:
        return isinstance(value, str)
    if ctype is ColumnType.BOOL:
        return isinstance(value, bool)
    return False  # pragma: no cover - no further types exist


def _lt(a: Any, b: Any) -> Optional[bool]:
    """``a < b`` with unorderable pairs mapped to None (no finding)."""
    try:
        return bool(a < b)
    except TypeError:
        return None


class _BlockVerifier:
    """Runs every per-block check, accumulating diagnostics."""

    def __init__(
        self,
        db: Database,
        block: Query,
        prefix: str,
        out: List[Diagnostic],
    ) -> None:
        self.db = db
        self.block = block
        self.prefix = prefix
        self.out = out
        self.alias_map = block.alias_map()
        # alias -> TableSchema, for aliases whose base table exists
        self.schemas: Dict[str, TableSchema] = {}

    def emit(
        self, code: str, severity: Severity, message: str, span: str
    ) -> None:
        self.out.append(
            Diagnostic(
                code=code,
                severity=severity,
                message=message,
                span=f"{self.prefix}{span}",
            )
        )

    # -- reference resolution ------------------------------------------
    def check_tables(self) -> None:
        for i, table in enumerate(self.block.tables):
            if table.name not in self.db:
                self.emit(
                    "PLAN001",
                    Severity.ERROR,
                    f"unknown table {table.name!r} (alias {table.alias!r})",
                    f"tables[{i}]",
                )
            else:
                self.schemas[table.alias] = self.db.relation(table.name).schema

    def _resolve(self, ref: ColumnRef, span: str) -> Optional[ColumnType]:
        """The column's type, or None (emitting PLAN002 if the table is
        known but the column is not; unknown tables already got PLAN001)."""
        schema = self.schemas.get(ref.table)
        if schema is None:
            return None
        if not schema.has_column(ref.column):
            self.emit(
                "PLAN002",
                Severity.ERROR,
                f"table {schema.name!r} (alias {ref.table!r}) has no column "
                f"{ref.column!r}",
                span,
            )
            return None
        return schema.column_type(ref.column)

    def check_columns(self) -> Dict[Tuple[str, str], ColumnType]:
        """Resolve every column reference; returns the resolved types of
        predicate columns keyed by (alias, column)."""
        for i, ref in enumerate(self.block.select):
            self._resolve(ref, f"select[{i}]")
        for i, ref in enumerate(self.block.group_by):
            self._resolve(ref, f"group_by[{i}]")
        resolved: Dict[Tuple[str, str], ColumnType] = {}
        for i, pred in enumerate(self.block.predicates):
            ctype = self._resolve(pred.column, f"predicates[{i}]")
            if ctype is not None:
                resolved[(pred.column.table, pred.column.column)] = ctype
        return resolved

    # -- joins ----------------------------------------------------------
    def check_joins(self) -> None:
        for i, join in enumerate(self.block.joins):
            span = f"joins[{i}]"
            left = self._resolve(join.left, span)
            right = self._resolve(join.right, span)
            if left is None or right is None:
                continue
            if not _compatible(left, right):
                self.emit(
                    "PLAN003",
                    Severity.ERROR,
                    f"join {join} compares {left.value} with {right.value}",
                    span,
                )

    def check_connectivity(self) -> None:
        aliases = [t.alias for t in self.block.tables]
        if len(aliases) < 2:
            return
        parent = {alias: alias for alias in aliases}

        def find(a: str) -> str:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for join in self.block.joins:
            la, ra = join.left.table, join.right.table
            if la in parent and ra in parent:
                parent[find(la)] = find(ra)
        components = sorted({find(a) for a in aliases})
        if len(components) > 1:
            self.emit(
                "PLAN005",
                Severity.WARNING,
                f"join graph splits into {len(components)} components "
                f"(roots {components}): the block is a cartesian product",
                "joins",
            )

    # -- predicates -----------------------------------------------------
    def check_predicate_types(
        self, resolved: Dict[Tuple[str, str], ColumnType]
    ) -> Dict[Tuple[str, str], ColumnType]:
        """PLAN004; returns the subset of columns whose predicates all
        type-check (interval reasoning is meaningless on the rest)."""
        clean = dict(resolved)
        for i, pred in enumerate(self.block.predicates):
            key = (pred.column.table, pred.column.column)
            ctype = resolved.get(key)
            if ctype is None:
                continue
            if pred.op is Op.BETWEEN:
                values: Sequence[Any] = list(pred.value)  # type: ignore[arg-type]
            elif pred.op is Op.IN:
                values = sorted(pred.value, key=repr)  # type: ignore[arg-type]
            else:
                values = [pred.value]
            bad = [v for v in values if not _value_fits(v, ctype)]
            if bad:
                self.emit(
                    "PLAN004",
                    Severity.ERROR,
                    f"{pred.op.value} predicate on {pred.column} compares "
                    f"{ctype.value} column with {bad[0]!r} "
                    f"({type(bad[0]).__name__})",
                    f"predicates[{i}]",
                )
                clean.pop(key, None)
        return clean

    def check_satisfiability(
        self, typed: Dict[Tuple[str, str], ColumnType]
    ) -> None:
        """PLAN006: per-column interval reasoning over the conjunction."""
        by_column: Dict[Tuple[str, str], List[Tuple[int, Any]]] = {}
        for i, pred in enumerate(self.block.predicates):
            key = (pred.column.table, pred.column.column)
            if key in typed:
                by_column.setdefault(key, []).append((i, pred))
        for key, preds in by_column.items():
            eqs: List[Any] = []
            lowers: List[Any] = []
            uppers: List[Any] = []
            in_sets: List[frozenset] = []
            spans = [f"predicates[{i}]" for i, _ in preds]
            for i, pred in preds:
                if pred.op is Op.EQ:
                    eqs.append(pred.value)
                elif pred.op is Op.GE:
                    lowers.append(pred.value)
                elif pred.op is Op.LE:
                    uppers.append(pred.value)
                elif pred.op is Op.BETWEEN:
                    low, high = pred.value  # type: ignore[misc]
                    lowers.append(low)
                    uppers.append(high)
                elif pred.op is Op.IN:
                    in_sets.append(frozenset(pred.value))  # type: ignore[arg-type]
            reason = self._conjunction_conflict(eqs, lowers, uppers, in_sets)
            if reason is not None:
                alias, column = key
                self.emit(
                    "PLAN006",
                    Severity.ERROR,
                    f"predicates on {alias}.{column} are unsatisfiable: "
                    f"{reason}",
                    spans[0],
                )
        having = self.block.having
        if having is not None and having.value < 1:
            if having.op in (Op.EQ, Op.LE):
                self.emit(
                    "PLAN006",
                    Severity.ERROR,
                    f"HAVING count(*) {having.op.value} {having.value} can "
                    "never hold (every group has at least one row)",
                    "having",
                )

    @staticmethod
    def _conjunction_conflict(
        eqs: List[Any],
        lowers: List[Any],
        uppers: List[Any],
        in_sets: List[frozenset],
    ) -> Optional[str]:
        """Why the conjunction is empty, or None if it may be satisfiable."""
        for in_set in in_sets:
            if not in_set:
                return "IN over an empty value set"
        for first in eqs[1:]:
            if _lt(eqs[0], first) or _lt(first, eqs[0]):
                return f"equality to both {eqs[0]!r} and {first!r}"
        low = None
        for bound in lowers:
            if low is None or _lt(low, bound):
                low = bound
        up = None
        for bound in uppers:
            if up is None or _lt(bound, up):
                up = bound
        if low is not None and up is not None and _lt(up, low):
            return f"empty range [{low!r}, {up!r}]"
        for eq in eqs:
            if (low is not None and _lt(eq, low)) or (
                up is not None and _lt(up, eq)
            ):
                return f"equality to {eq!r} outside range"
            for in_set in in_sets:
                if eq not in in_set:
                    return f"equality to {eq!r} not in IN set"
        if in_sets:
            members = set(in_sets[0])
            for in_set in in_sets[1:]:
                members &= in_set
            if not members:
                return "IN sets have no common member"
            surviving = [
                m
                for m in members
                if not (low is not None and _lt(m, low))
                and not (up is not None and _lt(up, m))
            ]
            if not surviving:
                return "no IN member falls inside the range"
        return None

    # -- shape ----------------------------------------------------------
    def check_projection_shape(self) -> None:
        """PLAN009: with GROUP BY, every selected column must be
        functionally determined by the group keys — either a group key
        itself, or any column of an alias whose primary key is grouped
        (PK → whole-row dependency).  Anything else projects an
        engine-defined representative row."""
        group_by = self.block.group_by
        if not group_by:
            return
        keys = set(group_by)
        pk_aliases = set()
        for ref in group_by:
            schema = self.schemas.get(ref.table)
            if schema is not None and schema.primary_key == ref.column:
                pk_aliases.add(ref.table)
        for i, ref in enumerate(self.block.select):
            if ref in keys or ref.table in pk_aliases:
                continue
            if ref.table not in self.schemas:
                continue  # PLAN001 already covers it
            self.emit(
                "PLAN009",
                Severity.ERROR,
                f"SELECT {ref} is not determined by GROUP BY "
                f"({', '.join(str(g) for g in group_by)}): the projected "
                "representative row is engine-defined",
                f"select[{i}]",
            )

    def check_sqlite_hazard(self) -> None:
        aliases = len(self.block.tables)
        if aliases > SQLITE_MAX_JOIN_TABLES:
            self.emit(
                "PLAN008",
                Severity.WARNING,
                f"{aliases} table aliases exceed SQLite's "
                f"{SQLITE_MAX_JOIN_TABLES}-table join limit; the sqlite "
                "route falls back to chained MATERIALIZED CTE stages",
                "tables",
            )

    # -- driver ---------------------------------------------------------
    def run(self) -> None:
        self.check_tables()
        resolved = self.check_columns()
        self.check_joins()
        self.check_connectivity()
        typed = self.check_predicate_types(resolved)
        self.check_satisfiability(typed)
        self.check_projection_shape()
        self.check_sqlite_hazard()


def _select_types(
    db: Database, block: Query
) -> List[Optional[ColumnType]]:
    alias_map = block.alias_map()
    out: List[Optional[ColumnType]] = []
    for ref in block.select:
        table = alias_map.get(ref.table)
        if table is None or table not in db:
            out.append(None)
            continue
        schema = db.relation(table).schema
        out.append(
            schema.column_type(ref.column)
            if schema.has_column(ref.column)
            else None
        )
    return out


def verify_query(db: Database, query: AnyQuery) -> List[Diagnostic]:
    """Statically verify one query against ``db``'s schema.

    Returns every finding, errors and warnings, in a deterministic
    order; an empty list means the plan is clean.
    """
    out: List[Diagnostic] = []
    if isinstance(query, IntersectQuery):
        for b, block in enumerate(query.blocks):
            _BlockVerifier(db, block, f"blocks[{b}].", out).run()
        reference = _select_types(db, query.blocks[0])
        for b, block in enumerate(query.blocks[1:], start=1):
            for pos, (want, got) in enumerate(
                zip(reference, _select_types(db, block))
            ):
                if want is None or got is None:
                    continue
                if not _compatible(want, got):
                    out.append(
                        Diagnostic(
                            code="PLAN010",
                            severity=Severity.ERROR,
                            message=(
                                f"INTERSECT column {pos} is {want.value} in "
                                f"blocks[0] but {got.value} in blocks[{b}]"
                            ),
                            span=f"blocks[{b}].select[{pos}]",
                        )
                    )
    else:
        _BlockVerifier(db, query, "", out).run()
    return out
