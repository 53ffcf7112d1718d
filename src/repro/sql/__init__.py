"""Query representation and execution for the SPJ(A, intersect) class.

Exports the AST node types, the pluggable execution backends (interpreted,
vectorized, sharded, sqlite) behind :class:`ExecutionBackend`, the
paper-style SQL formatter, the predicate-counting metric used in Figs.
14/15, and a small parser that round-trips the formatter output.
"""

from .ast import (
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
from .counting import (
    count_join_predicates,
    count_predicates,
    count_selection_predicates,
)
from .engine import (
    BACKENDS,
    CachingBackend,
    DEFAULT_BACKEND,
    ExecutionBackend,
    InterpretedBackend,
    QueryResultCache,
    ShardedVectorizedBackend,
    SqliteBackend,
    VectorizedBackend,
    available_backends,
    create_backend,
)
from .executor import Executor, ResultSet, execute
from .formatter import format_predicate, format_query, format_value
from .parser import parse_query

__all__ = [
    "AnyQuery",
    "BACKENDS",
    "CachingBackend",
    "ColumnRef",
    "DEFAULT_BACKEND",
    "ExecutionBackend",
    "Executor",
    "HavingCount",
    "InterpretedBackend",
    "IntersectQuery",
    "JoinCondition",
    "Op",
    "Predicate",
    "Query",
    "QueryResultCache",
    "ResultSet",
    "ShardedVectorizedBackend",
    "SqliteBackend",
    "TableRef",
    "VectorizedBackend",
    "available_backends",
    "count_join_predicates",
    "count_predicates",
    "count_selection_predicates",
    "create_backend",
    "execute",
    "format_predicate",
    "format_query",
    "format_value",
    "parse_query",
]
