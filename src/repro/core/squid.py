"""End-to-end SQuID system facade (Figure 4).

``SquidSystem.build`` runs the offline module once (αDB construction);
``discover`` then performs the online pipeline per example set:

1. entity lookup via the inverted column index,
2. entity disambiguation,
3. semantic context discovery,
4. query abduction (Algorithm 1),
5. query construction (SPJ over the αDB, plus the equivalent SPJAI form
   over the original schema).

The stages themselves live in :mod:`repro.core.pipeline`; this facade
drives them sequentially.  When the examples match several entity types
(several candidate base queries), each base query is abduced and the one
with the highest unnormalised log posterior wins; valid base queries
carry equal priors (Section 4.3).  For batch workloads (many example
sets, optional worker fan-out) use :meth:`SquidSystem.session` /
:class:`~repro.core.session.DiscoverySession`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, TYPE_CHECKING

from ..relational.database import Database
from ..sql.ast import AnyQuery
from ..sql.engine import CachingBackend, ExecutionBackend, create_backend
from ..sql.result import ResultSet
from .adb import AbductionReadyDatabase
from .config import SquidConfig
from .metadata import AdbMetadata
from .pipeline import (
    DiscoveryResult,
    DiscoveryTimings,
    discover_sequential,
    prune_redundant,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .session import DiscoverySession

__all__ = ["DiscoveryResult", "DiscoveryTimings", "SquidSystem"]


class SquidSystem:
    """The full system: offline αDB plus the online discovery pipeline.

    Every query the system issues — pruning probes, result
    materialisation, evaluation reruns — goes through one pluggable
    :class:`~repro.sql.engine.ExecutionBackend`, wrapped in the shared
    query-result cache when the configuration enables it.
    """

    def __init__(
        self,
        adb: AbductionReadyDatabase,
        backend: Optional[str] = None,
        cache_size: Optional[int] = None,
    ) -> None:
        self.adb = adb
        name = backend or adb.config.backend
        size = adb.config.query_cache_size if cache_size is None else cache_size
        self._backend = create_backend(
            name,
            adb.db,
            cache_size=size,
            shards=adb.config.shards,
            shard_min_rows=adb.config.shard_min_rows,
            analyze=adb.config.analyze,
        )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        database: Database,
        metadata: AdbMetadata,
        config: Optional[SquidConfig] = None,
        backend: Optional[str] = None,
    ) -> "SquidSystem":
        """Run the offline module and return a ready system."""
        adb = AbductionReadyDatabase.build(database, metadata, config)
        return cls(adb, backend=backend)

    @property
    def config(self) -> SquidConfig:
        """The active configuration."""
        return self.adb.config

    @property
    def backend(self) -> ExecutionBackend:
        """The active execution backend (possibly cache-wrapped)."""
        return self._backend

    @property
    def backend_name(self) -> str:
        """Name of the engine executing this system's queries."""
        return self._backend.name

    # ------------------------------------------------------------------
    # online pipeline
    # ------------------------------------------------------------------
    def discover(
        self,
        examples: Sequence[str],
        config: Optional[SquidConfig] = None,
    ) -> DiscoveryResult:
        """Abduce the most likely query intent for the given examples.

        Drives the staged pipeline sequentially: one shared lookup, then
        the per-candidate stages for every candidate base query, keeping
        the winner by log posterior.
        """
        config = config or self.adb.config
        return discover_sequential(self.adb, self._backend, examples, config)

    def session(
        self,
        jobs: Optional[int] = None,
        executor: Optional[str] = None,
    ) -> "DiscoverySession":
        """A batch discovery session over this system (see
        :class:`~repro.core.session.DiscoverySession`)."""
        from .session import DiscoverySession

        return DiscoverySession(self, jobs=jobs, executor=executor)

    def _prune_redundant(self, entity, selected):
        """Occam's-razor pruning pass (delegates to the pipeline stage
        helper; kept as a method for callers probing it directly)."""
        return prune_redundant(self.adb, self._backend, entity, selected)

    # ------------------------------------------------------------------
    # execution helpers
    # ------------------------------------------------------------------
    def execute(self, query: AnyQuery, *, cached: bool = True) -> ResultSet:
        """Run any query against the αDB through the active backend.

        ``cached=False`` bypasses the shared result cache (timing
        measurements want cold executions).
        """
        if not cached and isinstance(self._backend, CachingBackend):
            return self._backend.execute_uncached(query)
        return self._backend.execute(query)

    def cache_stats(self) -> Optional[Dict[str, int]]:
        """Hit/miss/eviction counters of the query-result cache (None if
        caching is disabled)."""
        if isinstance(self._backend, CachingBackend):
            return self._backend.cache.stats()
        return None

    def backend_stats(self) -> Optional[Dict[str, int]]:
        """Engine-level counters (e.g. the sharded engine's fan-out
        counters); None when the engine keeps none."""
        backend = self._backend
        if isinstance(backend, CachingBackend):
            backend = backend.inner
        stats = getattr(backend, "stats", None)
        return stats() if callable(stats) else None

    def result_keys(self, result: DiscoveryResult) -> set:
        """Entity keys returned by the abduced query."""
        rows = self._backend.execute(result.keyed_query).rows
        return {row[0] for row in rows}

    def result_values(self, result: DiscoveryResult) -> List[Any]:
        """Display-attribute values returned by the abduced query."""
        return self._backend.execute(result.query).single_column()
