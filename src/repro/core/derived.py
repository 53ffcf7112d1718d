"""Materialisation of derived αDB relations (Section 5, Q6).

Each :class:`~repro.core.discovery.DerivedRecipe` becomes a relation
``name(entity_key, value, count)`` — the paper's ``persontogenre``
pattern::

    CREATE TABLE persontogenre AS
      (SELECT person_id, genre_id, count(*) AS count
       FROM castinfo, movietogenre
       WHERE castinfo.movie_id = movietogenre.movie_id
       GROUP BY person_id, genre_id)

Materialisation is columnar numpy work from end to end: the (entity,
value) occurrence pairs are collected from the fact table's cached column
arrays (mask filters, a ``searchsorted`` probe of the mid table's primary
key, an equi-join against the second fact table), grouped through dense
order-preserving codes, and loaded with one
:meth:`~repro.relational.relation.Relation.append_columns` batch.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..relational.database import Database
from ..relational.relation import Relation
from ..relational.schema import ColumnDef, TableSchema
from ..relational.types import ColumnType
from ..sql.engine.kernels import equi_join, join_sorted
from .discovery import DerivedRecipe


def materialize_all(database: Database, recipes: Sequence[DerivedRecipe]) -> List[str]:
    """Materialise every recipe into ``database``; returns relation names."""
    return [materialize(database, recipe) for recipe in recipes]


def materialize(database: Database, recipe: DerivedRecipe) -> str:
    """Materialise one derived relation; returns its name."""
    entity_keys, values = _collect_pairs(database, recipe)
    schema = TableSchema(
        recipe.name,
        [
            ColumnDef(recipe.entity_key_col, ColumnType.INT, nullable=False),
            ColumnDef(recipe.value_col, recipe.value_ctype, nullable=False),
            ColumnDef("count", ColumnType.INT, nullable=False),
        ],
    )
    if recipe.name in database:
        database.drop_table(recipe.name)
    relation = database.create_table(schema)
    relation.append_columns(_count_pairs(entity_keys, values))
    return recipe.name


def _collect_pairs(
    database: Database, recipe: DerivedRecipe
) -> Tuple[np.ndarray, np.ndarray]:
    """Parallel (entity_key, value) occurrence arrays for one recipe, in
    fact-row order (chain hits in second-fact row order per fact row)."""
    fact = database.relation(recipe.fact_table)
    entity = fact.column_array(recipe.fact_entity_col)
    mid = fact.column_array(recipe.fact_mid_col)
    keep = entity.mask & mid.mask
    if recipe.qualifier_col:
        # Discovery only sets a qualifier with a non-NULL value.
        qualifier = fact.column_array(recipe.qualifier_col)
        keep &= qualifier.mask & (qualifier.values == recipe.qualifier_value)
    rows = np.nonzero(keep)[0]
    keys = entity.values[rows]
    mids = mid.values[rows]

    if recipe.kind == "entity":
        return keys, mids

    if recipe.kind in ("mid_attr", "mid_fk"):
        table = database.relation(recipe.mid_table)
        pk = table.sorted_view(table.schema.primary_key)
        hit, pos = join_sorted(mids, pk.values)
        return _present(keys[hit], table, recipe.mid_attr, pk.row_ids[pos])

    if recipe.kind == "chain":
        second = database.relation(recipe.second_fact_table)
        link = second.column_array(recipe.second_fact_mid_col)
        link_rids = np.nonzero(link.mask)[0]
        hit, build_idx = equi_join(mids, link.values[link_rids])
        return _present(
            keys[hit], second, recipe.second_fact_dim_col, link_rids[build_idx]
        )

    raise ValueError(f"unknown recipe kind {recipe.kind!r}")


def _present(
    keys: np.ndarray, relation: Relation, column: str, row_ids: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``keys`` paired with ``relation.column`` at ``row_ids``, dropping
    pairs whose value is NULL."""
    arr = relation.column_array(column)
    present = arr.mask[row_ids]
    return keys[present], arr.values[row_ids[present]]


def _count_pairs(
    keys: np.ndarray, values: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """GROUP BY (key, value) with count(*), as (key, value, count) columns.

    Pairs are encoded through dense order-preserving codes, so the
    composite key stays within ``len(keys) ** 2`` whatever the value
    range.  Rows come out sorted by (key, value) for integer values and
    by the ``repr`` of the (key, value) pair otherwise.
    """
    if keys.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    key_uniques, key_codes = np.unique(keys, return_inverse=True)
    value_uniques, value_codes = np.unique(values, return_inverse=True)
    span = len(value_uniques)
    if np.log2(len(key_uniques)) + np.log2(span) > 62:
        raise OverflowError("(key, value) code space exceeds int64")
    composite = key_codes.astype(np.int64) * span + value_codes
    pairs, counts = np.unique(composite, return_counts=True)
    out_keys = key_uniques[pairs // span]
    out_values = value_uniques[pairs % span]
    first = values[0]
    if isinstance(first, bool) or not isinstance(first, (int, np.integer)):
        reprs = [repr(pair) for pair in zip(out_keys.tolist(), out_values.tolist())]
        order = np.asarray(sorted(range(len(reprs)), key=reprs.__getitem__))
        out_keys, out_values, counts = out_keys[order], out_values[order], counts[order]
    return out_keys, out_values, counts.astype(np.int64, copy=False)
