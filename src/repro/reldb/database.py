"""Database catalog of the in-memory relational engine."""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Sequence, Tuple

from repro.errors import RelationalError, UnknownTableError
from repro.reldb.changelog import ChangeLog
from repro.reldb.schema import Schema
from repro.reldb.table import Table


class Database:
    """A named collection of tables sharing one change log.

    One :class:`Database` instance models one of the external relational
    sources the mediator integrates (a PARADOX database, a DBASE file, an
    INGRES instance, ...).  The shared change log makes the whole source
    diffable between versions, which is what Section 4's function-delta view
    of source updates needs.
    """

    def __init__(self, name: str) -> None:
        if not name:
            raise RelationalError("databases need a name")
        self._name = name
        self._tables: Dict[str, Table] = {}
        self._change_log = ChangeLog()

    # ------------------------------------------------------------------
    # Catalog operations
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Database name (also used as default domain name)."""
        return self._name

    @property
    def change_log(self) -> ChangeLog:
        """The change log shared by every table of this database."""
        return self._change_log

    def create_table(self, name: str, schema: Schema) -> Table:
        """Create a new table; raises when the name is taken."""
        if name in self._tables:
            raise RelationalError(f"table already exists: {name!r}")
        table = Table(name, schema, change_log=self._change_log)
        self._tables[name] = table
        return table

    def create_table_from_rows(
        self,
        name: str,
        columns: Sequence[str],
        rows: Iterable[object] = (),
    ) -> Table:
        """Create an untyped table and bulk-load *rows* into it."""
        table = self.create_table(name, Schema.of(*columns))
        table.insert_many(rows)
        return table

    def table(self, name: str) -> Table:
        """Return a table by name; raises :class:`UnknownTableError`."""
        try:
            return self._tables[name]
        except KeyError as exc:
            raise UnknownTableError(
                f"database {self._name!r} has no table {name!r}"
            ) from exc

    def table_names(self) -> Tuple[str, ...]:
        """All table names, sorted."""
        return tuple(sorted(self._tables))

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)

    def __repr__(self) -> str:
        return f"Database({self._name!r}, tables={list(self.table_names())})"

    # ------------------------------------------------------------------
    # Versioning
    # ------------------------------------------------------------------
    def version(self) -> int:
        """A database-wide version: the sum of all table versions."""
        return sum(table.version for table in self._tables.values())

    # ------------------------------------------------------------------
    # Convenience passthroughs
    # ------------------------------------------------------------------
    def insert(self, table_name: str, row: object) -> None:
        """Insert one row into a table."""
        self.table(table_name).insert(row)

    def insert_many(self, table_name: str, rows: Iterable[object]) -> int:
        """Insert several rows into a table."""
        return self.table(table_name).insert_many(rows)

    def select_eq(self, table_name: str, column: str, value: object):
        """Equality selection on a table (the mediator's main access path)."""
        return self.table(table_name).select_eq(column, value)
