"""Pluggable execution backends for the SPJ(A, intersect) query class.

Every query in the system runs through an
:class:`~repro.sql.engine.base.ExecutionBackend`.  Four engines ship
behind the one interface:

* ``interpreted`` — the original row-at-a-time hash-join pipeline, kept
  as the reference implementation;
* ``vectorized`` — numpy kernels over the relation layer's cached column
  arrays (the default);
* ``sqlite``     — compiles the AST to SQL against an in-memory SQLite
  mirror of the database;
* ``sharded``    — the vectorized engine with wide/large blocks
  partitioned over a fork-once process pool (probe-side shards, partial
  aggregates merged in the parent).

``create_backend`` is the factory; :class:`CachingBackend` layers the
shared formatted-SQL-keyed result cache over any engine, and
:class:`AsyncExecutionBackend` adapts any engine to asyncio callers
(bounded executor + single-flight coalescing of concurrent identical
queries — the serving tier's execution path).
"""

from __future__ import annotations

from typing import Dict, List, Type

from ...relational.database import Database
from .base import (
    DEFAULT_CACHE_SIZE,
    CachingBackend,
    ExecutionBackend,
    QueryResultCache,
    tables_of,
    validate_query,
)
from .async_backend import (
    DEFAULT_ASYNC_WORKERS,
    AsyncExecutionBackend,
    create_async_backend,
)
from .interpreted import InterpretedBackend
from .sharded import DEFAULT_SHARD_MIN_ROWS, ShardedVectorizedBackend
from .sqlite import SqliteBackend
from .vectorized import VectorizedBackend

BACKENDS: Dict[str, Type[ExecutionBackend]] = {
    InterpretedBackend.name: InterpretedBackend,
    VectorizedBackend.name: VectorizedBackend,
    SqliteBackend.name: SqliteBackend,
    ShardedVectorizedBackend.name: ShardedVectorizedBackend,
}

DEFAULT_BACKEND = VectorizedBackend.name


def available_backends() -> List[str]:
    """Registered backend names, sorted."""
    return sorted(BACKENDS)


def create_backend(
    name: str,
    database: Database,
    *,
    cache_size: int = 0,
    shards: int = 0,
    shard_min_rows: int = DEFAULT_SHARD_MIN_ROWS,
    analyze: bool = False,
) -> ExecutionBackend:
    """Instantiate a backend by name, optionally wrapped in a result cache.

    ``cache_size`` > 0 wraps the engine in a :class:`CachingBackend` with
    that many LRU entries.  ``shards`` (0 = auto) and ``shard_min_rows``
    configure the partition-parallel fan-out of the ``sharded`` engine;
    other engines ignore both.  ``analyze`` layers the
    :mod:`repro.analysis` plan-verifier gate under the cache (wrap order
    ``CachingBackend(AnalyzingBackend(engine))`` — cache hits skip
    re-verification, and stats unwrapping still reaches the gate).
    """
    try:
        backend_cls = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r} (available: {', '.join(available_backends())})"
        ) from None
    if name == ShardedVectorizedBackend.name:
        backend = backend_cls(
            database, shards=shards, shard_min_rows=shard_min_rows
        )
    else:
        backend = backend_cls(database)
    if analyze:
        # Function-local import: repro.analysis imports this package.
        from ...analysis.gate import AnalyzingBackend

        backend = AnalyzingBackend(backend)
    if cache_size > 0:
        return CachingBackend(backend, max_entries=cache_size)
    return backend


__all__ = [
    "AsyncExecutionBackend",
    "BACKENDS",
    "CachingBackend",
    "DEFAULT_ASYNC_WORKERS",
    "DEFAULT_BACKEND",
    "DEFAULT_CACHE_SIZE",
    "DEFAULT_SHARD_MIN_ROWS",
    "ExecutionBackend",
    "InterpretedBackend",
    "QueryResultCache",
    "ShardedVectorizedBackend",
    "SqliteBackend",
    "VectorizedBackend",
    "available_backends",
    "create_async_backend",
    "create_backend",
    "tables_of",
    "validate_query",
]
