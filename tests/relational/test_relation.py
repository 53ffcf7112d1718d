"""Unit tests for column-oriented relation storage."""

from __future__ import annotations

import numpy as np
import pytest

from repro.relational import (
    ColumnDef,
    ColumnType,
    IntegrityError,
    Relation,
    SchemaError,
    TableSchema,
    TypeCoercionError,
)

INT = ColumnType.INT
TEXT = ColumnType.TEXT
FLOAT = ColumnType.FLOAT


def make_relation() -> Relation:
    schema = TableSchema(
        "person",
        [
            ColumnDef("id", INT, nullable=False),
            ColumnDef("name", TEXT),
            ColumnDef("age", INT),
        ],
        primary_key="id",
    )
    return Relation(schema)


class TestInsert:
    def test_insert_returns_sequential_row_ids(self):
        rel = make_relation()
        assert rel.insert((1, "Ann", 30)) == 0
        assert rel.insert((2, "Bob", 40)) == 1
        assert len(rel) == 2

    def test_insert_wrong_arity_rejected(self):
        rel = make_relation()
        with pytest.raises(SchemaError):
            rel.insert((1, "Ann"))

    def test_duplicate_pk_rejected(self):
        rel = make_relation()
        rel.insert((1, "Ann", 30))
        with pytest.raises(IntegrityError):
            rel.insert((1, "Bob", 40))

    def test_not_null_enforced(self):
        rel = make_relation()
        with pytest.raises(IntegrityError):
            rel.insert((None, "Ann", 30))

    def test_nullable_columns_accept_none(self):
        rel = make_relation()
        rel.insert((1, None, None))
        assert rel.row(0) == (1, None, None)

    def test_insert_dict(self):
        rel = make_relation()
        rel.insert_dict({"id": 1, "name": "Ann", "age": 30})
        assert rel.row_dict(0) == {"id": 1, "name": "Ann", "age": 30}

    def test_insert_dict_missing_nullable_defaults_to_none(self):
        rel = make_relation()
        rel.insert_dict({"id": 1})
        assert rel.row(0) == (1, None, None)

    def test_insert_dict_unknown_column_rejected(self):
        rel = make_relation()
        with pytest.raises(SchemaError):
            rel.insert_dict({"id": 1, "bogus": 2})

    def test_extend(self):
        rel = make_relation()
        rel.extend([(1, "Ann", 30), (2, "Bob", 40)])
        assert rel.num_rows == 2


class TestAccess:
    def make_loaded(self) -> Relation:
        rel = make_relation()
        rel.extend([(1, "Ann", 30), (2, "Bob", 40), (3, "Ann", None)])
        return rel

    def test_column_returns_values_in_order(self):
        rel = self.make_loaded()
        assert rel.column("name") == ["Ann", "Bob", "Ann"]

    def test_value(self):
        rel = self.make_loaded()
        assert rel.value(1, "age") == 40

    def test_rows_iterates_all(self):
        rel = self.make_loaded()
        assert list(rel.rows()) == [(1, "Ann", 30), (2, "Bob", 40), (3, "Ann", None)]

    def test_row_ids(self):
        assert list(self.make_loaded().row_ids()) == [0, 1, 2]

    def test_lookup_pk(self):
        rel = self.make_loaded()
        assert rel.lookup_pk(2) == 1
        assert rel.lookup_pk(99) is None

    def test_lookup_pk_without_pk_raises(self):
        schema = TableSchema("t", [ColumnDef("a", INT)])
        rel = Relation(schema)
        with pytest.raises(SchemaError):
            rel.lookup_pk(1)

    def test_distinct_values_skips_nulls_keeps_order(self):
        rel = self.make_loaded()
        assert rel.distinct_values("name") == ["Ann", "Bob"]
        assert rel.distinct_values("age") == [30, 40]

    def test_empty_relation(self):
        rel = make_relation()
        assert len(rel) == 0
        assert list(rel.rows()) == []


def same_views(rel: Relation) -> None:
    """Every cached column view equals a freshly computed one."""
    fresh = Relation(rel.schema)
    fresh.extend(rel.rows())
    for name in rel.schema.column_names:
        cached = rel.column_array(name)
        expected = fresh.column_array(name)
        assert cached.values.dtype == expected.values.dtype, name
        np.testing.assert_array_equal(cached.mask, expected.mask)
        np.testing.assert_array_equal(cached.values, expected.values)


class TestAppendColumns:
    def make_counts(self) -> Relation:
        schema = TableSchema(
            "counts",
            [
                ColumnDef("key", INT, nullable=False),
                ColumnDef("weight", FLOAT, nullable=False),
                ColumnDef("label", TEXT),
            ],
        )
        return Relation(schema)

    def test_appends_lists_and_returns_row_ids(self):
        rel = make_relation()
        rel.insert((1, "Ann", 30))
        assert rel.append_columns([[2, 3], ["Bob", None], [40, None]]) == range(1, 3)
        assert list(rel.rows()) == [(1, "Ann", 30), (2, "Bob", 40), (3, None, None)]
        assert rel.lookup_pk(3) == 2

    def test_numpy_columns_stored_as_python_scalars(self):
        rel = self.make_counts()
        rel.append_columns(
            [np.array([5, 7], dtype=np.int32), np.array([0.5, 2.0]), ["x", "y"]]
        )
        assert list(rel.rows()) == [(5, 0.5, "x"), (7, 2.0, "y")]
        for row in rel.rows():
            assert [type(v) for v in row] == [int, float, str]

    def test_int_array_coerced_into_float_column(self):
        rel = self.make_counts()
        rel.append_columns([[1], np.array([3], dtype=np.int64), ["x"]])
        assert rel.row(0) == (1, 3.0, "x")
        assert type(rel.value(0, "weight")) is float

    def test_version_bumps_once_per_non_empty_batch(self):
        rel = make_relation()
        rel.append_columns([[1, 2, 3], ["a", "b", "c"], [1, 2, 3]])
        assert rel.version == 1
        rel.append_columns([[], [], []])
        assert rel.version == 1
        rel.extend([(4, "d", 4), (5, "e", 5)])
        assert rel.version == 2
        rel.extend([])
        assert rel.version == 2

    @pytest.mark.parametrize(
        "columns, error",
        [
            ([[1], ["a"]], SchemaError),  # arity
            ([[1, 2], ["a"], [1, 2]], SchemaError),  # ragged
            ([[None], ["a"], [1]], IntegrityError),  # NOT NULL
            ([[1], ["a"], [True]], TypeCoercionError),  # bool in INT
            ([np.array([True]), ["a"], [1]], TypeCoercionError),  # bool array
            ([[1], [7], [1]], TypeCoercionError),  # int in TEXT
            ([[4, 4], ["a", "b"], [1, 2]], IntegrityError),  # dup in batch
            ([np.array([4, 4]), ["a", "b"], [1, 2]], IntegrityError),
            ([[9, 1], ["a", "b"], [1, 2]], IntegrityError),  # dup vs stored
        ],
    )
    def test_rejected_batch_leaves_relation_unchanged(self, columns, error):
        rel = make_relation()
        rel.append_columns([[1, 2], ["Ann", "Bob"], [30, 40]])
        rel.column_array("id")
        before = (list(rel.rows()), rel.version, len(rel))
        with pytest.raises(error):
            rel.append_columns(columns)
        assert (list(rel.rows()), rel.version, len(rel)) == before
        assert rel.lookup_pk(9) is None and rel.lookup_pk(4) is None
        same_views(rel)

    def test_extend_rejects_wrong_arity_without_storing(self):
        rel = make_relation()
        with pytest.raises(SchemaError):
            rel.extend([(1, "Ann", 30), (2, "Bob")])
        assert len(rel) == 0 and rel.version == 0

    def test_seeded_views_equal_fresh_views(self):
        rel = self.make_counts()
        rel.append_columns(
            [np.array([3, 1, 2]), np.array([1.5, np.nan, 2.0]), ["a", None, "c"]]
        )
        assert rel.column_array("key").values.dtype == np.int64
        same_views(rel)

    def test_seeded_view_is_a_copy(self):
        rel = self.make_counts()
        keys = np.array([3, 1])
        rel.append_columns([keys, np.array([1.0, 2.0]), ["a", "b"]])
        keys[0] = 99
        assert rel.column_array("key").values.tolist() == [3, 1]

    def test_append_to_non_empty_relation_refreshes_views(self):
        rel = self.make_counts()
        rel.append_columns([np.array([1]), np.array([1.0]), ["a"]])
        assert rel.column_array("key").values.tolist() == [1]
        rel.append_columns([np.array([2, 3]), np.array([2.0, 3.0]), ["b", "c"]])
        assert rel.column_array("key").values.tolist() == [1, 2, 3]
        same_views(rel)

