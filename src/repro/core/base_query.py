"""Base-query and final-query construction (Section 6.2).

The base query Q* is the minimal project-join query over the matched
entity (``SELECT name FROM person``).  Each abduced filter then appends
relations to the FROM clause, key--foreign-key join conditions, and its
selection predicates — at most one (derived) relation per filter, because
the αDB has already materialised the aggregations.

Two renderings are produced:

* :func:`build_adb_query` — the SPJ query over the αDB (the paper's Q5
  form), directly executable against the augmented database;
* :func:`build_original_query` — the equivalent SPJAI query over the
  *original* schema (the paper's Q4 form), using GROUP BY/HAVING for one
  aggregate filter and INTERSECT when several aggregate filters apply.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..sql.ast import (
    AnyQuery,
    ColumnRef,
    HavingCount,
    IntersectQuery,
    JoinCondition,
    Op,
    Predicate,
    Query,
    TableRef,
)
from .adb import AbductionReadyDatabase
from .metadata import EntitySpec
from .properties import FamilyKind, Filter


def build_base_query(entity: EntitySpec) -> Query:
    """Q*: the minimal PJ query projecting the display attribute."""
    return Query(
        select=(ColumnRef(entity.table, entity.display),),
        tables=(TableRef(entity.table),),
    )


class _AliasAllocator:
    """Fresh, deterministic table aliases per query construction."""

    def __init__(self) -> None:
        self._used: Set[str] = set()
        self._next: Dict[str, int] = {}

    def fresh(self, base: str) -> str:
        if base not in self._used:
            self._used.add(base)
            return base
        # Names are only ever added, so the smallest free suffix of a
        # base never decreases: resume where the last probe stopped
        # instead of rescanning from 1 (quadratic in the filter count).
        i = self._next.get(base, 1)
        while f"{base}_{i}" in self._used:
            i += 1
        alias = f"{base}_{i}"
        self._used.add(alias)
        self._next[base] = i + 1
        return alias

    def reserve(self, name: str) -> None:
        self._used.add(name)

    def copy(self) -> "_AliasAllocator":
        """An independent allocator that continues from this state."""
        other = _AliasAllocator()
        other._used = set(self._used)
        other._next = dict(self._next)
        return other


def build_adb_query(
    adb: AbductionReadyDatabase,
    entity: EntitySpec,
    filters: Sequence[Filter],
    *,
    select_key: bool = False,
) -> Query:
    """The abduced SPJ query over the αDB (Q5 form).

    ``select_key=True`` additionally projects the entity key, which the
    evaluation harness uses to compare result sets robustly.
    """
    aliases = _AliasAllocator()
    aliases.reserve(entity.table)
    select: Tuple[ColumnRef, ...] = (ColumnRef(entity.table, entity.display),)
    if select_key:
        select = (ColumnRef(entity.table, entity.key),) + select
    tables: List[TableRef] = [TableRef(entity.table)]
    joins: List[JoinCondition] = []
    predicates: List[Predicate] = []
    entity_key_ref = ColumnRef(entity.table, entity.key)

    for filt in filters:
        family = filt.family
        prop = filt.prop
        if family.kind is FamilyKind.DIRECT_CATEGORICAL:
            predicates.append(
                _categorical_predicate(
                    ColumnRef(entity.table, family.column), prop.value
                )
            )
        elif family.kind is FamilyKind.DIRECT_NUMERIC:
            low, high = prop.value  # type: ignore[misc]
            predicates.append(
                _range_predicate(ColumnRef(entity.table, family.column), low, high)
            )
        elif family.kind is FamilyKind.FK_DIM:
            dim_alias = aliases.fresh(family.dim_table)
            tables.append(TableRef(family.dim_table, dim_alias))
            joins.append(
                JoinCondition(
                    ColumnRef(entity.table, family.fk_column),
                    ColumnRef(dim_alias, family.dim_key),
                )
            )
            predicates.append(
                _dim_label_predicate(adb, family, dim_alias, prop.value)
            )
        elif family.kind is FamilyKind.FACT_DIM:
            fact_alias = aliases.fresh(family.fact_table)
            dim_alias = aliases.fresh(family.dim_table)
            tables.append(TableRef(family.fact_table, fact_alias))
            tables.append(TableRef(family.dim_table, dim_alias))
            joins.append(
                JoinCondition(
                    ColumnRef(fact_alias, family.fact_entity_col), entity_key_ref
                )
            )
            joins.append(
                JoinCondition(
                    ColumnRef(fact_alias, family.fact_dim_col),
                    ColumnRef(dim_alias, family.dim_key),
                )
            )
            predicates.append(
                Predicate(
                    ColumnRef(dim_alias, family.dim_label),
                    Op.EQ,
                    adb.dim_label_of(family, prop.value),
                )
            )
        elif family.kind is FamilyKind.FACT_ATTR:
            fact_alias = aliases.fresh(family.fact_table)
            tables.append(TableRef(family.fact_table, fact_alias))
            joins.append(
                JoinCondition(
                    ColumnRef(fact_alias, family.fact_entity_col), entity_key_ref
                )
            )
            predicates.append(
                Predicate(ColumnRef(fact_alias, family.column), Op.EQ, prop.value)
            )
        else:  # derived families probe the materialised αDB relation
            derived_alias = aliases.fresh(family.derived_table)
            tables.append(TableRef(family.derived_table, derived_alias))
            joins.append(
                JoinCondition(
                    ColumnRef(derived_alias, family.derived_entity_col),
                    entity_key_ref,
                )
            )
            if family.value_is_ref:
                dim_alias = aliases.fresh(family.dim_table)
                tables.append(TableRef(family.dim_table, dim_alias))
                joins.append(
                    JoinCondition(
                        ColumnRef(derived_alias, family.derived_value_col),
                        ColumnRef(dim_alias, family.dim_key),
                    )
                )
                predicates.append(
                    Predicate(
                        ColumnRef(dim_alias, family.dim_label),
                        Op.EQ,
                        adb.dim_label_of(family, prop.value),
                    )
                )
            else:
                predicates.append(
                    Predicate(
                        ColumnRef(derived_alias, family.derived_value_col),
                        Op.EQ,
                        prop.value,
                    )
                )
            theta = prop.theta or 1.0
            if theta > 1.0:
                predicates.append(
                    Predicate(ColumnRef(derived_alias, "count"), Op.GE, int(theta))
                )
    return Query(
        select=select,
        tables=tuple(tables),
        joins=tuple(joins),
        predicates=tuple(predicates),
    )


def build_original_query(
    adb: AbductionReadyDatabase,
    entity: EntitySpec,
    filters: Sequence[Filter],
) -> AnyQuery:
    """The equivalent SPJAI query over the original schema (Q4 form).

    Basic filters become joins over the base tables.  Each derived filter
    requires aggregation; with one such filter the query carries GROUP BY
    + HAVING, with several the query becomes an INTERSECT of aggregate
    blocks (the paper's I operator).
    """
    basic = [f for f in filters if f.family.kind.is_basic]
    derived = [f for f in filters if f.family.kind.is_derived]
    # Every block starts with the same basic part: build it once.
    shared = _basic_part(adb, entity, basic)
    if not derived:
        return _original_block(adb, entity, shared, None)
    blocks = [_original_block(adb, entity, shared, agg) for agg in derived]
    if len(blocks) == 1:
        return blocks[0]
    return IntersectQuery(tuple(blocks))


_BasicPart = Tuple[
    _AliasAllocator, List[TableRef], List[JoinCondition], List[Predicate]
]


def _basic_part(
    adb: AbductionReadyDatabase,
    entity: EntitySpec,
    basic: Sequence[Filter],
) -> _BasicPart:
    """Aliases, tables, joins and predicates of the basic filters."""
    aliases = _AliasAllocator()
    aliases.reserve(entity.table)
    tables: List[TableRef] = [TableRef(entity.table)]
    joins: List[JoinCondition] = []
    predicates: List[Predicate] = []
    entity_key_ref = ColumnRef(entity.table, entity.key)

    for filt in basic:
        family = filt.family
        prop = filt.prop
        if family.kind is FamilyKind.DIRECT_CATEGORICAL:
            predicates.append(
                _categorical_predicate(
                    ColumnRef(entity.table, family.column), prop.value
                )
            )
        elif family.kind is FamilyKind.DIRECT_NUMERIC:
            low, high = prop.value  # type: ignore[misc]
            predicates.append(
                _range_predicate(ColumnRef(entity.table, family.column), low, high)
            )
        elif family.kind is FamilyKind.FK_DIM:
            dim_alias = aliases.fresh(family.dim_table)
            tables.append(TableRef(family.dim_table, dim_alias))
            joins.append(
                JoinCondition(
                    ColumnRef(entity.table, family.fk_column),
                    ColumnRef(dim_alias, family.dim_key),
                )
            )
            predicates.append(
                _dim_label_predicate(adb, family, dim_alias, prop.value)
            )
        elif family.kind is FamilyKind.FACT_ATTR:
            fact_alias = aliases.fresh(family.fact_table)
            tables.append(TableRef(family.fact_table, fact_alias))
            joins.append(
                JoinCondition(
                    ColumnRef(fact_alias, family.fact_entity_col), entity_key_ref
                )
            )
            predicates.append(
                Predicate(ColumnRef(fact_alias, family.column), Op.EQ, prop.value)
            )
        else:  # FACT_DIM
            fact_alias = aliases.fresh(family.fact_table)
            dim_alias = aliases.fresh(family.dim_table)
            tables.append(TableRef(family.fact_table, fact_alias))
            tables.append(TableRef(family.dim_table, dim_alias))
            joins.append(
                JoinCondition(
                    ColumnRef(fact_alias, family.fact_entity_col), entity_key_ref
                )
            )
            joins.append(
                JoinCondition(
                    ColumnRef(fact_alias, family.fact_dim_col),
                    ColumnRef(dim_alias, family.dim_key),
                )
            )
            predicates.append(
                Predicate(
                    ColumnRef(dim_alias, family.dim_label),
                    Op.EQ,
                    adb.dim_label_of(family, prop.value),
                )
            )
    return aliases, tables, joins, predicates


def _original_block(
    adb: AbductionReadyDatabase,
    entity: EntitySpec,
    shared: _BasicPart,
    aggregate: Optional[Filter],
) -> Query:
    """One block: the shared basic part plus an optional aggregate."""
    aliases = shared[0].copy()
    tables, joins, predicates = list(shared[1]), list(shared[2]), list(shared[3])
    entity_key_ref = ColumnRef(entity.table, entity.key)
    group_by: Tuple[ColumnRef, ...] = ()
    having: Optional[HavingCount] = None
    if aggregate is not None:
        family = aggregate.family
        prop = aggregate.prop
        fact_alias = aliases.fresh(family.fact_table)
        tables.append(TableRef(family.fact_table, fact_alias))
        joins.append(
            JoinCondition(
                ColumnRef(fact_alias, family.fact_entity_col), entity_key_ref
            )
        )
        value_ref: ColumnRef
        if family.kind is FamilyKind.DERIVED_ENTITY:
            value_ref = ColumnRef(fact_alias, family.fact_dim_col)
            predicates.append(Predicate(value_ref, Op.EQ, prop.value))
        else:
            mid_attribute = family.attribute.split(".", 1)
            recipe = _recipe_for(adb, family.derived_table)
            mid_alias = aliases.fresh(recipe.mid_table)
            tables.append(TableRef(recipe.mid_table, mid_alias))
            joins.append(
                JoinCondition(
                    ColumnRef(fact_alias, recipe.fact_mid_col),
                    ColumnRef(mid_alias, recipe.mid_key),
                )
            )
            if recipe.kind in ("mid_attr", "mid_fk"):
                value_ref = ColumnRef(mid_alias, recipe.mid_attr)
                predicates.append(Predicate(value_ref, Op.EQ, prop.value))
            else:  # chain through a second fact table
                fact2_alias = aliases.fresh(recipe.second_fact_table)
                tables.append(TableRef(recipe.second_fact_table, fact2_alias))
                joins.append(
                    JoinCondition(
                        ColumnRef(fact2_alias, recipe.second_fact_mid_col),
                        ColumnRef(mid_alias, recipe.mid_key),
                    )
                )
                if family.value_is_ref:
                    dim_alias = aliases.fresh(family.dim_table)
                    tables.append(TableRef(family.dim_table, dim_alias))
                    joins.append(
                        JoinCondition(
                            ColumnRef(fact2_alias, recipe.second_fact_dim_col),
                            ColumnRef(dim_alias, family.dim_key),
                        )
                    )
                    predicates.append(
                        Predicate(
                            ColumnRef(dim_alias, family.dim_label),
                            Op.EQ,
                            adb.dim_label_of(family, prop.value),
                        )
                    )
                else:
                    predicates.append(
                        Predicate(
                            ColumnRef(fact2_alias, recipe.second_fact_dim_col),
                            Op.EQ,
                            prop.value,
                        )
                    )
        group_by = (entity_key_ref,)
        theta = int(aggregate.prop.theta or 1)
        having = HavingCount(Op.GE, max(1, theta))

    return Query(
        select=(ColumnRef(entity.table, entity.display),),
        tables=tuple(tables),
        joins=tuple(joins),
        predicates=tuple(predicates),
        group_by=group_by,
        having=having,
    )


def _recipe_for(adb: AbductionReadyDatabase, derived_table: str):
    for recipe in adb.discovery.recipes:
        if recipe.name == derived_table:
            return recipe
    raise KeyError(f"no recipe materialised {derived_table!r}")


def _range_predicate(column: ColumnRef, low: Any, high: Any) -> Predicate:
    if low == high:
        return Predicate(column, Op.EQ, low)
    return Predicate(column, Op.BETWEEN, (low, high))


def _categorical_predicate(column: ColumnRef, value: Any) -> Predicate:
    """EQ for a single value, IN for a footnote-7 disjunction."""
    if isinstance(value, frozenset):
        return Predicate(column, Op.IN, value)
    return Predicate(column, Op.EQ, value)


def _dim_label_predicate(
    adb: AbductionReadyDatabase, family, dim_alias: str, value: Any
) -> Predicate:
    """Label predicate on a dimension alias (EQ or IN for disjunction)."""
    column = ColumnRef(dim_alias, family.dim_label)
    if isinstance(value, frozenset):
        labels = frozenset(adb.dim_label_of(family, v) for v in value)
        return Predicate(column, Op.IN, labels)
    return Predicate(column, Op.EQ, adb.dim_label_of(family, value))
