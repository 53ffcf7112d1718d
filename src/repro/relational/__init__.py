"""In-memory relational engine substrate.

Stands in for the PostgreSQL instance of the paper's testbed: typed
column-oriented relations, a key--foreign-key schema graph, secondary
indexes (hash / sorted / composite), and the global inverted column index
SQuID's entity lookup relies on.
"""

from .database import Database
from .errors import (
    IntegrityError,
    QueryError,
    RelationalError,
    SchemaError,
    TypeCoercionError,
    UnknownColumnError,
    UnknownTableError,
)
from .indexes import CompositeHashIndex, HashIndex, SortedIndex
from .inverted import InvertedColumnIndex, Posting
from .relation import ColumnArray, Relation, SortedView
from .schema import ColumnDef, DatabaseSchema, FkEdge, ForeignKey, TableSchema
from .types import ColumnType, coerce_value, normalize_text

__all__ = [
    "ColumnArray",
    "ColumnDef",
    "ColumnType",
    "CompositeHashIndex",
    "Database",
    "DatabaseSchema",
    "FkEdge",
    "ForeignKey",
    "HashIndex",
    "IntegrityError",
    "InvertedColumnIndex",
    "Posting",
    "QueryError",
    "Relation",
    "RelationalError",
    "SchemaError",
    "SortedIndex",
    "SortedView",
    "TableSchema",
    "TypeCoercionError",
    "UnknownColumnError",
    "UnknownTableError",
    "coerce_value",
    "normalize_text",
]
