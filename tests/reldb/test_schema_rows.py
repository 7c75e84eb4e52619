"""Unit tests for schemas and row values."""

from __future__ import annotations

import pytest

from repro.errors import SchemaError, UnknownColumnError
from repro.reldb import Column, Row, Schema


class TestColumn:
    def test_untyped_accepts_anything(self):
        Column("name").validate(3)
        Column("name").validate("x")

    def test_typed_validation(self):
        column = Column("age", int)
        column.validate(30)
        with pytest.raises(SchemaError):
            column.validate("thirty")

    def test_float_column_accepts_int(self):
        Column("score", float).validate(3)

    def test_none_always_allowed(self):
        Column("age", int).validate(None)

    def test_invalid_name(self):
        with pytest.raises(SchemaError):
            Column("")

    def test_str(self):
        assert str(Column("age", int)) == "age:int"
        assert str(Column("age")) == "age"


class TestSchema:
    def test_of_and_names(self):
        schema = Schema.of("name", "city")
        assert schema.names == ("name", "city")
        assert schema.arity == 2

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema.of("a", "a")

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            Schema(())

    def test_index_of_and_has_column(self):
        schema = Schema.of("a", "b")
        assert schema.index_of("b") == 1
        assert schema.has_column("a") and not schema.has_column("z")
        with pytest.raises(SchemaError):
            schema.index_of("z")

    def test_coerce_row_from_tuple(self):
        schema = Schema.of("a", "b")
        assert schema.coerce_row(("x", 1)) == ("x", 1)
        with pytest.raises(SchemaError):
            schema.coerce_row(("only-one",))

    def test_coerce_row_from_mapping(self):
        schema = Schema.of("a", "b")
        assert schema.coerce_row({"b": 2, "a": 1}) == (1, 2)
        with pytest.raises(SchemaError):
            schema.coerce_row({"a": 1})
        with pytest.raises(SchemaError):
            schema.coerce_row({"a": 1, "b": 2, "zz": 3})

    def test_coerce_row_type_checks(self):
        schema = Schema((Column("name", str), Column("age", int)))
        with pytest.raises(SchemaError):
            schema.coerce_row(("ann", "old"))

    def test_str(self):
        assert str(Schema.of("a", "b")) == "(a, b)"


class TestRow:
    def test_mapping_access(self):
        row = Row({"name": "ann", "age": 30})
        assert row["name"] == "ann"
        assert len(row) == 2
        assert list(row) == ["name", "age"]

    def test_attribute_access(self):
        row = Row({"origin": "photo1", "resultfile": "f.png"})
        assert row.origin == "photo1"
        with pytest.raises(AttributeError):
            _ = row.missing

    def test_unknown_column(self):
        with pytest.raises(UnknownColumnError):
            Row({"a": 1})["b"]

    def test_hashable_and_equality(self):
        assert Row({"a": 1}) == Row({"a": 1})
        assert Row({"a": 1}) != Row({"a": 2})
        assert len({Row({"a": 1}), Row({"a": 1})}) == 1

    def test_equality_with_plain_mapping(self):
        assert Row({"a": 1}) == {"a": 1}

    def test_immutable(self):
        row = Row({"a": 1})
        with pytest.raises(AttributeError):
            row.a = 2  # type: ignore[misc]

    def test_replaced(self):
        row = Row({"a": 1, "b": 2})
        assert row.replaced(b=9) == Row({"a": 1, "b": 9})
        with pytest.raises(UnknownColumnError):
            row.replaced(z=0)

    def test_from_values(self):
        row = Row.from_values(["a", "b"], [1, 2])
        assert row == Row({"a": 1, "b": 2})
        with pytest.raises(SchemaError):
            Row.from_values(["a"], [1, 2])

    def test_as_dict_is_copy(self):
        row = Row({"a": 1})
        data = row.as_dict()
        data["a"] = 99
        assert row["a"] == 1
