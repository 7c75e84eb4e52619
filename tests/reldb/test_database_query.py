"""Unit tests for the database catalog."""

from __future__ import annotations

import pytest

from repro.errors import RelationalError, UnknownTableError
from repro.reldb import Database, Schema


@pytest.fixture
def database():
    db = Database("paradox")
    db.create_table_from_rows(
        "phonebook",
        ("name", "city"),
        [("ann", "dc"), ("bob", "nyc")],
    )
    db.create_table("empl", Schema.of("name", "title"))
    db.insert("empl", ("ann", "analyst"))
    return db


class TestDatabase:
    def test_catalog(self, database):
        assert database.table_names() == ("empl", "phonebook")
        assert len(database) == 2

    def test_duplicate_table_rejected(self, database):
        with pytest.raises(RelationalError):
            database.create_table("empl", Schema.of("x"))

    def test_unknown_table(self, database):
        with pytest.raises(UnknownTableError):
            database.table("missing")

    def test_select_eq_passthrough(self, database):
        rows = database.select_eq("phonebook", "city", "dc")
        assert [row["name"] for row in rows] == ["ann"]

    def test_shared_change_log_and_version(self, database):
        before = database.version()
        database.insert("phonebook", ("cid", "dc"))
        database.insert("empl", ("cid", "chief"))
        assert database.version() == before + 2
        assert len(database.change_log) >= 2

