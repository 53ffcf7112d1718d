"""The abduction-ready database (αDB) — offline module orchestration (§5).

``AbductionReadyDatabase.build`` performs the paper's three offline steps:

1. **inverted indexing** — a global inverted column index over the entity
   display attributes, for fast example-to-entity lookup;
2. **derived relation materialisation** — fact-table/derived-property
   discovery over the schema graph, then materialisation of relations like
   ``persontogenre(person_key, value, count)``;
3. **filter selectivity precomputation** — per-family statistics enabling
   O(log n) selectivity evaluation at abduction time.

The αDB owns the (augmented) database, metadata, discovered families,
statistics, and the indexes the online phase probes.

**Probe maps.** The online phase's hottest call is the per-entity
property probe (``entity_properties``: disambiguation scores profiles
with it, context discovery issues it per family per example).  The αDB
answers it from one map per family, ``entity key -> {value: θ}``, built
by transposing the family's backing relation (the entity table, the
fact table or the derived relation) in row order, plus one
``dimension key -> label`` map per dimension label column.  Each map is
stamped with the ``(uid, version)`` of the relation it mirrors; the
stamp is compared when a map is fetched, and a map is (re)built on its
first fetch after the stamp changed.  ``refresh`` therefore rebuilds
nothing eagerly: a map whose relation was rematerialised or mutated is
rebuilt by the next probe that needs it.  Every caller — sequential
discovery, batch sessions, forked pool workers (which inherit the maps
copy-on-write) and the interpreted reference — shares this one set.
The returned dicts are shared; callers treat them as read-only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..relational.database import Database
from ..relational.inverted import InvertedColumnIndex
from .config import SquidConfig
from .derived import materialize, materialize_all
from .discovery import DiscoveryResult, discover_families
from .metadata import AdbMetadata, EntitySpec
from .properties import FamilyKind, PropertyFamily
from .statistics import StatisticsStore, compute_statistics

#: entity key -> {value: θ} for one property family.
FamilyMap = Dict[Any, Dict[Any, float]]

#: (table the map mirrors, its (uid, version) at build, the map).
_MapEntry = Tuple[str, Tuple[int, int], FamilyMap]

_EMPTY: Dict[Any, float] = {}
_MISSING = object()


def _probe_table(family: PropertyFamily) -> str:
    """The one relation a family's probe map is built from."""
    if family.kind in (
        FamilyKind.DIRECT_CATEGORICAL,
        FamilyKind.DIRECT_NUMERIC,
        FamilyKind.FK_DIM,
    ):
        return family.entity
    if family.kind in (FamilyKind.FACT_DIM, FamilyKind.FACT_ATTR):
        return family.fact_table
    return family.derived_table


@dataclass
class AdbBuildReport:
    """Timings and sizes recorded while constructing the αDB."""

    discovery_seconds: float = 0.0
    materialize_seconds: float = 0.0
    statistics_seconds: float = 0.0
    inverted_index_seconds: float = 0.0
    derived_relations: int = 0
    derived_rows: int = 0
    families: int = 0

    @property
    def total_seconds(self) -> float:
        """Total offline construction time."""
        return (
            self.discovery_seconds
            + self.materialize_seconds
            + self.statistics_seconds
            + self.inverted_index_seconds
        )


class AbductionReadyDatabase:
    """Database + metadata + derived relations + statistics + indexes."""

    def __init__(
        self,
        database: Database,
        metadata: AdbMetadata,
        config: SquidConfig,
        discovery: DiscoveryResult,
        statistics: StatisticsStore,
        inverted: InvertedColumnIndex,
        report: AdbBuildReport,
    ) -> None:
        self.db = database
        self.metadata = metadata
        self.config = config
        self.discovery = discovery
        self.statistics = statistics
        self.inverted = inverted
        self.report = report
        self._families_by_entity: Dict[str, List[PropertyFamily]] = {}
        for family in discovery.families:
            self._families_by_entity.setdefault(family.entity, []).append(family)
        self._maps: Dict[Tuple[str, str], _MapEntry] = {}
        self._label_maps: Dict[
            Tuple[str, str], Tuple[Tuple[int, int], Dict[Any, Any]]
        ] = {}
        self.family_scans = 0
        """Number of family maps built so far (first fetches and
        rebuilds after a stamp change).  Builds take no lock: threads
        that fault the same map in at once may each build it, and the
        count may then miss one of them."""

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        database: Database,
        metadata: AdbMetadata,
        config: Optional[SquidConfig] = None,
    ) -> "AbductionReadyDatabase":
        """Run the full offline pipeline over ``database``.

        The database is augmented in place with derived relations (as the
        paper's αDB augments the original database).  Statistics
        computation runs on the vectorized path: it reads the relation
        layer's cached numpy column arrays and reduces them with the same
        kernels the vectorized execution backend uses.
        """
        config = config or SquidConfig()

        start = time.perf_counter()
        discovery = discover_families(database, metadata, config)
        t_discovery = time.perf_counter() - start

        start = time.perf_counter()
        names = materialize_all(database, discovery.recipes)
        t_materialize = time.perf_counter() - start

        start = time.perf_counter()
        entity_counts = {
            spec.table: len(database.relation(spec.table))
            for spec in metadata.entities
        }
        statistics = compute_statistics(database, discovery.families, entity_counts)
        t_statistics = time.perf_counter() - start

        start = time.perf_counter()
        inverted = InvertedColumnIndex(
            database, tables=[spec.table for spec in metadata.entities]
        )
        t_inverted = time.perf_counter() - start

        report = AdbBuildReport(
            discovery_seconds=t_discovery,
            materialize_seconds=t_materialize,
            statistics_seconds=t_statistics,
            inverted_index_seconds=t_inverted,
            derived_relations=len(names),
            derived_rows=sum(len(database.relation(n)) for n in names),
            families=len(discovery.families),
        )
        return cls(database, metadata, config, discovery, statistics, inverted, report)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def families_for(self, entity_table: str) -> List[PropertyFamily]:
        """All property families of one entity table."""
        return list(self._families_by_entity.get(entity_table, []))

    def family(self, entity_table: str, attribute: str) -> PropertyFamily:
        """Look up one family by entity table and attribute label."""
        for fam in self._families_by_entity.get(entity_table, []):
            if fam.attribute == attribute:
                return fam
        raise KeyError(f"no family {attribute!r} for entity {entity_table!r}")

    def entity_count(self, entity_table: str) -> int:
        """|Q*(D)|: number of entities of the given type."""
        return len(self.db.relation(entity_table))

    def dim_label_of(self, family: PropertyFamily, value: Any) -> str:
        """Human-readable label for a value-reference family's value."""
        if not family.value_is_ref:
            return str(value)
        label = self.dim_labels(family).get(value, _MISSING)
        return str(value) if label is _MISSING else str(label)

    def dim_value_for_label(self, family: PropertyFamily, label: str) -> Optional[Any]:
        """Inverse of :meth:`dim_label_of`: dimension key for a label."""
        if not family.value_is_ref:
            return label
        index = self.db.hash_index(family.dim_table, family.dim_label)
        rows = index.lookup(label)
        if not rows:
            return None
        relation = self.db.relation(family.dim_table)
        return relation.value(rows[0], family.dim_key)

    # ------------------------------------------------------------------
    # per-entity property retrieval (the online phase's point queries)
    # ------------------------------------------------------------------
    def family_map(self, family: PropertyFamily) -> FamilyMap:
        """``entity key -> {value: θ}`` for every entity of one family.

        For basic families every present value maps to 1.0; for derived
        families values map to their association strength.  The map is
        built on the first fetch and rebuilt on the first fetch after
        its relation's ``(uid, version)`` stamp changed.
        """
        entry = self._maps.get(family.key)
        if entry is not None:
            table, stamp, data = entry
            relation = self.db.relation(table)
            if (relation.uid, relation.version) == stamp:
                return data
        return self._build_family_map(family)

    def _build_family_map(self, family: PropertyFamily) -> FamilyMap:
        table = _probe_table(family)
        relation = self.db.relation(table)
        stamp = (relation.uid, relation.version)
        out: FamilyMap = {}
        if family.kind in (
            FamilyKind.DIRECT_CATEGORICAL,
            FamilyKind.DIRECT_NUMERIC,
            FamilyKind.FK_DIM,
        ):
            # Entity keys are the table's primary key.
            value_column = (
                family.fk_column
                if family.kind is FamilyKind.FK_DIM
                else family.column
            )
            keys = relation.column(relation.schema.primary_key)
            values = relation.column(value_column)
            for key, value in zip(keys, values):
                if value is not None:
                    out[key] = {value: 1.0}
        elif family.kind in (FamilyKind.FACT_DIM, FamilyKind.FACT_ATTR):
            value_column = (
                family.fact_dim_col
                if family.kind is FamilyKind.FACT_DIM
                else family.column
            )
            keys = relation.column(family.fact_entity_col)
            values = relation.column(value_column)
            for key, value in zip(keys, values):
                if key is not None and value is not None:
                    out.setdefault(key, {})[value] = 1.0
        else:  # derived families: transpose the materialised relation
            keys = relation.column(family.derived_entity_col)
            values = relation.column(family.derived_value_col)
            counts = relation.column("count")
            for key, value, count in zip(keys, values, counts):
                out.setdefault(key, {})[value] = float(count)
        self._maps[family.key] = (table, stamp, out)
        self.family_scans += 1
        return out

    def dim_labels(self, family: PropertyFamily) -> Dict[Any, Any]:
        """``dimension key -> label`` of a value-reference family's
        dimension table, stamped and rebuilt like :meth:`family_map`."""
        slot = (family.dim_table, family.dim_label)
        relation = self.db.relation(family.dim_table)
        stamp = (relation.uid, relation.version)
        entry = self._label_maps.get(slot)
        if entry is not None and entry[0] == stamp:
            return entry[1]
        labels = dict(
            zip(
                relation.column(relation.schema.primary_key),
                relation.column(family.dim_label),
            )
        )
        self._label_maps[slot] = (stamp, labels)
        return labels

    def probe_stats(self) -> Dict[str, int]:
        """Map builds so far and the number of family maps held."""
        return {
            "probe_family_scans": self.family_scans,
            "probe_families": len(self._maps),
        }

    def entity_properties(
        self, family: PropertyFamily, entity_key: Any
    ) -> Dict[Any, float]:
        """Property values (-> θ) of one entity under one family.

        The point query the abduction phase issues per example per
        family; an entity without the property gets an empty dict.
        """
        return self.family_map(family).get(entity_key, _EMPTY)

    def entity_properties_many(
        self, family: PropertyFamily, entity_keys: Sequence[Any]
    ) -> List[Dict[Any, float]]:
        """Property values of several entities under one family: one map
        fetch, then a dict hit per key."""
        family_map = self.family_map(family)
        return [family_map.get(key, _EMPTY) for key in entity_keys]

    def association_total(self, family: PropertyFamily, entity_key: Any) -> float:
        """Total association mass of an entity within a derived family.

        Used by the normalised-association-strength mode (Section 7.4): the
        fraction of an actor's movies that are comedies is
        θ(value) / association_total.
        """
        return float(sum(self.entity_properties(family, entity_key).values()))

    # ------------------------------------------------------------------
    # incremental maintenance (a §9 future direction)
    # ------------------------------------------------------------------
    def refresh(self, changed_tables: Optional[Sequence[str]] = None) -> Dict[str, int]:
        """Refresh derived relations and statistics after base-data changes.

        ``changed_tables`` names the base tables that were mutated; only
        the derived relations depending on them are rematerialised and
        only the affected families get their statistics recomputed.  With
        ``None`` everything is rebuilt.  Returns counters describing the
        amount of work done.
        """
        all_tables = changed_tables is None
        changed = set(changed_tables or [])

        def recipe_affected(recipe) -> bool:
            if all_tables:
                return True
            inputs = {recipe.fact_table, recipe.mid_table, recipe.second_fact_table}
            inputs.discard("")
            return bool(inputs & changed)

        rematerialized = set()
        for recipe in self.discovery.recipes:
            if recipe_affected(recipe):
                materialize(self.db, recipe)
                rematerialized.add(recipe.name)

        def family_affected(family: PropertyFamily) -> bool:
            if all_tables:
                return True
            if family.entity in changed:
                return True
            if family.fact_table and family.fact_table in changed:
                return True
            return family.derived_table in rematerialized

        affected = [f for f in self.discovery.families if family_affected(f)]
        entity_counts = {
            spec.table: len(self.db.relation(spec.table))
            for spec in self.metadata.entities
        }
        fresh = compute_statistics(self.db, affected, entity_counts)
        for family in affected:
            self.statistics.put(family, fresh.get(family))

        entity_tables = {spec.table for spec in self.metadata.entities}
        if all_tables or (changed & entity_tables):
            self.inverted = InvertedColumnIndex(
                self.db, tables=sorted(entity_tables)
            )
        return {
            "rematerialized_relations": len(rematerialized),
            "recomputed_families": len(affected),
        }

    # ------------------------------------------------------------------
    # sizes (Figure 18 reporting)
    # ------------------------------------------------------------------
    def size_summary(self) -> Dict[str, Any]:
        """Row counts for base vs derived relations plus family count."""
        derived_names = {recipe.name for recipe in self.discovery.recipes}
        base_rows = sum(
            len(self.db.relation(name))
            for name in self.db.table_names()
            if name not in derived_names
        )
        derived_rows = sum(
            len(self.db.relation(name))
            for name in self.db.table_names()
            if name in derived_names
        )
        return {
            "base_relations": len(self.db.table_names()) - len(derived_names),
            "base_rows": base_rows,
            "derived_relations": len(derived_names),
            "derived_rows": derived_rows,
            "families": len(self.discovery.families),
            "build_seconds": self.report.total_seconds,
        }
