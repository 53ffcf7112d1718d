"""Column-oriented relation storage.

A :class:`Relation` stores tuples column-wise in plain Python lists.  This
keeps single-column scans (selectivity computation, aggregation) cheap and
lets statistics code hand columns to numpy without a transpose.

For the vectorized execution backend the relation additionally exposes
cached numpy *array views* of its columns (:meth:`Relation.column_array`,
:meth:`Relation.sorted_view`).  Views are built lazily on first use (or
handed over by a bulk :meth:`Relation.append_columns` into an empty
relation) and invalidated whenever the relation mutates; the ``version``
counter (plus a process-unique ``uid``) lets downstream caches — the
SQLite backend's loaded-table mirror, the shared query-result cache —
detect staleness without subscribing to mutation events.
"""

from __future__ import annotations

import itertools
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from .errors import IntegrityError, SchemaError
from .schema import TableSchema
from .types import ColumnType, coerce_value

_RELATION_UIDS = itertools.count()


class ColumnArray(NamedTuple):
    """A numpy view of one column: values plus a non-NULL mask.

    ``values`` is ``int64``/``float64`` for numeric columns (NULL slots
    hold a fill value — 0 / NaN — and must be ignored via ``mask``) and
    ``object`` otherwise.  ``mask[i]`` is True iff row ``i`` is non-NULL.
    """

    values: np.ndarray
    mask: np.ndarray


class SortedView(NamedTuple):
    """Non-NULL column values in ascending order, with their row ids.

    The vectorized backend uses this as its "index": equality and range
    probes become :func:`numpy.searchsorted` calls, and join build sides
    skip the per-query sort.
    """

    values: np.ndarray
    row_ids: np.ndarray


class Relation:
    """An in-memory relation (table instance) with column-wise storage."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._columns: List[List[Any]] = [[] for _ in schema.columns]
        self._pk_map: Optional[Dict[Any, int]] = (
            {} if schema.primary_key is not None else None
        )
        self._pk_pos = (
            schema.column_position(schema.primary_key)
            if schema.primary_key is not None
            else -1
        )
        self._uid = next(_RELATION_UIDS)
        self._version = 0
        self._array_cache: Dict[str, ColumnArray] = {}
        self._sorted_cache: Dict[str, Optional[SortedView]] = {}

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert(self, row: Sequence[Any]) -> int:
        """Append one tuple (declaration order); returns its row id."""
        self.extend([row])
        return len(self) - 1

    def insert_dict(self, row: Dict[str, Any]) -> int:
        """Append one tuple given as a ``{column: value}`` mapping."""
        ordered = [row.get(name) for name in self.schema.column_names]
        extra = set(row) - set(self.schema.column_names)
        if extra:
            raise SchemaError(f"{self.schema.name}: unknown columns {sorted(extra)}")
        return self.insert(ordered)

    def extend(self, rows: Iterable[Sequence[Any]]) -> None:
        """Bulk append tuples as one :meth:`append_columns` batch."""
        batch = [tuple(row) for row in rows]
        width = len(self._columns)
        for row in batch:
            if len(row) != width:
                raise SchemaError(
                    f"{self.schema.name}: expected {width} values, got {len(row)}"
                )
        if batch:
            self.append_columns(list(zip(*batch)))

    def append_columns(
        self, columns: Sequence[Union[Sequence[Any], np.ndarray]]
    ) -> range:
        """Append a batch of tuples given column-wise; returns their row ids.

        Every mutation goes through here.  The batch is checked for
        arity, type coercion, NOT NULL and primary-key uniqueness (within
        the batch and against stored rows) in full before anything is
        stored, so a rejected batch leaves the relation unchanged.
        ``version`` bumps once per non-empty batch.  Values are stored as
        Python scalars.

        A numpy array whose dtype already proves the column type (an
        integer array for INT, a float array for FLOAT) skips the
        per-value coercion; such an array cannot hold NULL.  When the
        relation was empty, those arrays also become its cached
        :meth:`column_array` views.
        """
        name = self.schema.name
        if len(columns) != len(self._columns):
            raise SchemaError(
                f"{name}: expected {len(self._columns)} columns, got {len(columns)}"
            )
        n = len(columns[0]) if columns else 0
        if any(len(values) != n for values in columns):
            raise SchemaError(f"{name}: columns of unequal length")
        start = len(self)
        if n == 0:
            return range(start, start)
        batch: List[List[Any]] = []
        views: Dict[str, ColumnArray] = {}
        for col, values in zip(self.schema.columns, columns):
            proven = _proven_array(values, col.ctype)
            if proven is not None:
                batch.append(proven.tolist())
                views[col.name] = ColumnArray(
                    values=proven, mask=np.ones(n, dtype=bool)
                )
                continue
            raw = values.tolist() if isinstance(values, np.ndarray) else values
            coerced = [coerce_value(value, col.ctype) for value in raw]
            if not col.nullable and any(value is None for value in coerced):
                raise IntegrityError(f"{name}.{col.name} is NOT NULL")
            batch.append(coerced)
        new_keys: Dict[Any, int] = {}
        if self._pk_map is not None:
            for rid, key in enumerate(batch[self._pk_pos], start):
                if key in self._pk_map or key in new_keys:
                    raise IntegrityError(
                        f"duplicate primary key {key!r} in {name}"
                    )
                new_keys[key] = rid
            self._pk_map.update(new_keys)
        for store, values in zip(self._columns, batch):
            store.extend(values)
        self._version += 1
        self._array_cache.clear()
        self._sorted_cache.clear()
        if start == 0:
            self._array_cache.update(views)
        return range(start, start + n)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._columns[0]) if self._columns else 0

    @property
    def num_rows(self) -> int:
        """Number of stored tuples."""
        return len(self)

    def column(self, name: str) -> List[Any]:
        """The raw value list of one column (do not mutate)."""
        return self._columns[self.schema.column_position(name)]

    def value(self, row_id: int, column: str) -> Any:
        """Value at (row, column)."""
        return self._columns[self.schema.column_position(column)][row_id]

    def row(self, row_id: int) -> Tuple[Any, ...]:
        """One tuple in declaration order."""
        return tuple(col[row_id] for col in self._columns)

    def row_dict(self, row_id: int) -> Dict[str, Any]:
        """One tuple as a ``{column: value}`` mapping."""
        return {
            name: col[row_id]
            for name, col in zip(self.schema.column_names, self._columns)
        }

    def rows(self) -> Iterator[Tuple[Any, ...]]:
        """Iterate over all tuples."""
        for rid in range(len(self)):
            yield self.row(rid)

    def row_ids(self) -> range:
        """All valid row ids."""
        return range(len(self))

    def lookup_pk(self, key: Any) -> Optional[int]:
        """Row id of the tuple with primary key ``key`` (or ``None``)."""
        if self._pk_map is None:
            raise SchemaError(f"{self.schema.name} has no primary key")
        return self._pk_map.get(key)

    # ------------------------------------------------------------------
    # cached numpy views (vectorized backend substrate)
    # ------------------------------------------------------------------
    @property
    def uid(self) -> int:
        """Process-unique id, distinguishing re-created same-name tables."""
        return self._uid

    @property
    def version(self) -> int:
        """Mutation counter; bumps on every insert and every bulk batch."""
        return self._version

    def column_array(self, name: str) -> ColumnArray:
        """Cached numpy view of one column (invalidated on mutation)."""
        cached = self._array_cache.get(name)
        if cached is not None:
            return cached
        position = self.schema.column_position(name)
        ctype = self.schema.columns[position].ctype
        raw = self._columns[position]
        n = len(raw)
        mask = np.fromiter((v is not None for v in raw), dtype=bool, count=n)
        if ctype is ColumnType.INT:
            try:
                values = np.fromiter(
                    (v if v is not None else 0 for v in raw),
                    dtype=np.int64,
                    count=n,
                )
            except OverflowError:
                values = np.array(raw, dtype=object)
        elif ctype is ColumnType.FLOAT:
            values = np.fromiter(
                (v if v is not None else np.nan for v in raw),
                dtype=np.float64,
                count=n,
            )
        else:
            values = np.empty(n, dtype=object)
            values[:] = raw
        view = ColumnArray(values=values, mask=mask)
        self._array_cache[name] = view
        return view

    def sorted_view(self, name: str) -> Optional[SortedView]:
        """Cached ascending view of one column's non-NULL values.

        Returns ``None`` when the column's values do not admit a total
        order (mixed-type object columns); callers fall back to hash-based
        strategies in that case.
        """
        if name in self._sorted_cache:
            return self._sorted_cache[name]
        arr = self.column_array(name)
        row_ids = np.nonzero(arr.mask)[0]
        values = arr.values[row_ids]
        view: Optional[SortedView]
        try:
            order = np.argsort(values, kind="stable")
        except TypeError:
            view = None
        else:
            view = SortedView(values=values[order], row_ids=row_ids[order])
        self._sorted_cache[name] = view
        return view

    def distinct_values(self, column: str) -> List[Any]:
        """Distinct non-NULL values of a column (stable first-seen order)."""
        seen: Dict[Any, None] = {}
        for value in self.column(column):
            if value is not None and value not in seen:
                seen[value] = None
        return list(seen)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Relation({self.schema.name}, rows={len(self)})"


def _proven_array(
    values: Union[Sequence[Any], np.ndarray], ctype: ColumnType
) -> Optional[np.ndarray]:
    """``values`` as a fresh int64/float64 array when its dtype alone
    proves every element is a valid non-NULL ``ctype`` value, else None.

    Booleans are excluded (``True`` is not an INT), as are integer dtypes
    wider than int64.
    """
    if not isinstance(values, np.ndarray) or values.ndim != 1:
        return None
    kind = values.dtype.kind
    if ctype is ColumnType.INT and kind in "iu" and np.can_cast(values.dtype, np.int64):
        return values.astype(np.int64)
    if ctype is ColumnType.FLOAT and kind == "f" and np.can_cast(values.dtype, np.float64):
        return values.astype(np.float64)
    return None
