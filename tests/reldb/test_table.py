"""Unit tests for tables, indexes and change logging."""

from __future__ import annotations

import pytest

from repro.errors import RelationalError, SchemaError
from repro.reldb import ChangeKind, ChangeLog, Column, Database, HashIndex, Schema, Table


@pytest.fixture
def table():
    table = Table("phonebook", Schema.of("name", "city"))
    table.insert(("ann", "dc"))
    table.insert(("bob", "nyc"))
    table.insert(("cid", "dc"))
    return table


class TestTableBasics:
    def test_len_and_rows(self, table):
        assert len(table) == 3
        assert [row["name"] for row in table.rows()] == ["ann", "bob", "cid"]

    def test_insert_mapping(self, table):
        table.insert({"name": "dee", "city": "la"})
        assert [row["city"] for row in table.select_eq("name", "dee")] == ["la"]

    def test_insert_many(self):
        table = Table("t", Schema.of("v"))
        assert table.insert_many([(i,) for i in range(5)]) == 5
        assert len(table) == 5

    def test_schema_violation(self, table):
        with pytest.raises(SchemaError):
            table.insert(("only-name",))

    def test_version_bumps(self, table):
        before = table.version
        table.insert(("dee", "la"))
        assert table.version == before + 1
        table.delete_eq("name", "dee")
        assert table.version == before + 2

    def test_tables_need_a_name(self):
        with pytest.raises(RelationalError):
            Table("", Schema.of("v"))

    def test_rejected_insert_leaves_no_trace(self):
        log = ChangeLog()
        table = Table("t", Schema((Column("age", int),)), change_log=log)
        with pytest.raises(SchemaError):
            table.insert(("old",))
        assert len(table) == 0
        assert table.version == 0
        assert len(log) == 0

    def test_repr_names_rows_and_version(self, table):
        assert repr(table) == "Table('phonebook', 3 rows, v3)"


class TestQueries:
    def test_select_eq(self, table):
        rows = table.select_eq("city", "dc")
        assert {row["name"] for row in rows} == {"ann", "cid"}
        assert table.select_eq("city", "sf") == ()

    def test_select_eq_after_updates_uses_index_correctly(self, table):
        table.select_eq("city", "dc")  # builds the index
        table.insert(("dee", "dc"))
        table.delete_eq("name", "ann")
        assert {row["name"] for row in table.select_eq("city", "dc")} == {"cid", "dee"}

    def test_project_and_distinct(self, table):
        assert table.project(["city"]) == (("dc",), ("nyc",))
        assert set(table.distinct_values("city")) == {"dc", "nyc"}

    def test_int_float_bucketing(self):
        table = Table("t", Schema.of("v"))
        table.insert((1,))
        assert len(table.select_eq("v", 1.0)) == 1

    def test_select_eq_on_unknown_column_is_a_schema_error(self, table):
        with pytest.raises(SchemaError):
            table.select_eq("zip", "20001")

    def test_select_eq_follows_an_update_between_buckets(self, table):
        table.select_eq("city", "dc")  # builds the index
        table.update_where(lambda row: row["name"] == "ann", {"city": "nyc"})
        assert {row["name"] for row in table.select_eq("city", "dc")} == {"cid"}
        assert {row["name"] for row in table.select_eq("city", "nyc")} == {"ann", "bob"}

    def test_project_keeps_first_seen_order(self, table):
        table.insert(("ann", "la"))
        assert table.project(["name"]) == (("ann",), ("bob",), ("cid",))
        assert table.project(["city", "name"])[-1] == ("la", "ann")


class TestModification:
    def test_delete_where(self, table):
        assert table.delete_where(lambda row: row["city"] == "dc") == 2
        assert len(table) == 1

    def test_delete_row(self, table):
        assert table.delete_row(("bob", "nyc"))
        assert not table.delete_row(("bob", "nyc"))

    def test_update_where(self, table):
        touched = table.update_where(lambda row: row["name"] == "ann", {"city": "sf"})
        assert touched == 1
        assert table.select_eq("name", "ann")[0]["city"] == "sf"
        with pytest.raises(SchemaError):
            table.update_where(lambda row: True, {"zzz": 1})

    def test_clear(self, table):
        assert table.clear() == 3
        assert len(table) == 0

    def test_delete_row_removes_one_duplicate_only(self):
        table = Table("t", Schema.of("v"))
        table.insert_many([(1,), (1,)])
        assert table.delete_row((1,))
        assert [row["v"] for row in table.rows()] == [1]

    def test_update_keeps_the_row_in_its_place(self, table):
        table.update_where(lambda row: row["name"] == "ann", {"name": "amy"})
        assert [row["name"] for row in table.rows()] == ["amy", "bob", "cid"]

    def test_update_with_an_unknown_column_changes_nothing(self, table):
        before = table.version
        with pytest.raises(SchemaError):
            table.update_where(lambda row: True, {"city": "sf", "zip": 1})
        assert table.version == before
        assert table.select_eq("city", "sf") == ()


class TestChangeLogging:
    def test_changes_recorded(self):
        log = ChangeLog()
        table = Table("t", Schema.of("v"), change_log=log)
        table.insert((1,))
        table.insert((2,))
        table.delete_eq("v", 1)
        table.update_where(lambda row: row["v"] == 2, {"v": 3})
        kinds = [change.kind for change in log]
        assert kinds == [
            ChangeKind.INSERT, ChangeKind.INSERT, ChangeKind.DELETE, ChangeKind.UPDATE,
        ]

    def test_update_counts_as_delete_plus_insert(self):
        log = ChangeLog()
        table = Table("t", Schema.of("v"), change_log=log)
        table.insert((1,))
        table.update_where(lambda row: True, {"v": 2})
        update = list(log)[-1]
        assert update.kind is ChangeKind.UPDATE
        assert (update.old_row, update.row) == ((1,), (2,))
        assert update.version == table.version == 2
        assert str(update) == "v2 update t: (1,) -> (2,)"

    def test_table_filter(self):
        database = Database("db")
        first = database.create_table("a", Schema.of("v"))
        second = database.create_table("b", Schema.of("v"))
        first.insert((1,))
        second.insert((2,))
        second.delete_eq("v", 2)
        assert [(change.table, change.version) for change in database.change_log] == [
            ("a", 1), ("b", 1), ("b", 2),
        ]

    def test_every_deleted_row_is_recorded(self, table):
        log = ChangeLog()
        logged = Table("t", table.schema, change_log=log)
        logged.insert_many(row.as_dict() for row in table.rows())
        logged.clear()
        deletes = [change.row for change in log if change.kind is ChangeKind.DELETE]
        assert sorted(deletes) == [("ann", "dc"), ("bob", "nyc"), ("cid", "dc")]

    def test_subscribers_see_changes_until_detached(self):
        log = ChangeLog()
        table = Table("t", Schema.of("v"), change_log=log)
        seen = []
        detach = log.subscribe(seen.append)
        table.insert((1,))
        detach()
        table.insert((2,))
        assert [change.row for change in seen] == [(1,)]
        assert len(log) == 2


class TestHashIndex:
    def test_add_remove_lookup(self):
        index = HashIndex("city")
        index.add("dc", 1)
        index.add("dc", 2)
        index.add("nyc", 3)
        assert index.lookup("dc") == {1, 2}
        index.remove("dc", 1)
        assert index.lookup("dc") == {2}
        index.remove("dc", 2)
        assert index.lookup("dc") == set()
        assert len(index) == 1

    def test_rebuild(self):
        index = HashIndex("v")
        index.rebuild([(1, ("a",)), (2, ("b",)), (3, ("a",))], 0)
        assert index.lookup("a") == {1, 3}

    def test_removing_an_absent_entry_is_a_no_op(self):
        index = HashIndex("v")
        index.add("a", 1)
        index.remove("b", 1)
        index.remove("a", 2)
        assert index.lookup("a") == {1}
        assert list(index.values()) == ["a"]

    def test_lookup_returns_a_copy(self):
        index = HashIndex("v")
        index.add("a", 1)
        index.lookup("a").add(99)
        assert index.lookup("a") == {1}

    def test_index_needs_a_column(self):
        with pytest.raises(RelationalError):
            HashIndex("")
