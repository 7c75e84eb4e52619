"""Tables of the in-memory relational engine."""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import RelationalError, SchemaError
from repro.reldb.changelog import Change, ChangeKind, ChangeLog
from repro.reldb.index import HashIndex
from repro.reldb.rows import Row
from repro.reldb.schema import Schema


class Table:
    """A named relation with a schema, lazy hash indexes and versioning.

    Rows are stored as tuples keyed by a monotonically increasing row id so
    deletions do not invalidate index entries for other rows.  Every
    modification bumps the table version and (when a change log is attached)
    records the change, which is what the Section-4 delta computation
    (``f+`` / ``f-``) consumes.
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        change_log: Optional[ChangeLog] = None,
    ) -> None:
        if not name:
            raise RelationalError("tables need a name")
        self._name = name
        self._schema = schema
        self._rows: Dict[int, Tuple[object, ...]] = {}
        self._next_row_id = 1
        self._indexes: Dict[str, HashIndex] = {}
        self._version = 0
        self._change_log = change_log

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Table name."""
        return self._name

    @property
    def schema(self) -> Schema:
        """The table's schema."""
        return self._schema

    @property
    def version(self) -> int:
        """Version counter, bumped by every modification."""
        return self._version

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows())

    def rows(self) -> Tuple[Row, ...]:
        """All rows as :class:`Row` objects (insertion order)."""
        return tuple(
            Row.from_values(self._schema.names, values)
            for _, values in sorted(self._rows.items())
        )

    # ------------------------------------------------------------------
    # Modification
    # ------------------------------------------------------------------
    def insert(self, row: object) -> Row:
        """Insert one row (tuple, sequence or mapping); returns it as a Row."""
        values = self._schema.coerce_row(row)
        row_id = self._next_row_id
        self._next_row_id += 1
        self._rows[row_id] = values
        for index in self._indexes.values():
            position = self._schema.index_of(index.column)
            index.add(values[position], row_id)
        self._bump(ChangeKind.INSERT, values)
        return Row.from_values(self._schema.names, values)

    def insert_many(self, rows: Iterable[object]) -> int:
        """Insert several rows; returns how many were inserted."""
        count = 0
        for row in rows:
            self.insert(row)
            count += 1
        return count

    def delete_where(self, predicate: Callable[[Row], bool]) -> int:
        """Delete every row satisfying *predicate*; returns the count."""
        doomed = [
            (row_id, values)
            for row_id, values in self._rows.items()
            if predicate(Row.from_values(self._schema.names, values))
        ]
        for row_id, values in doomed:
            self._remove_row(row_id, values)
        return len(doomed)

    def delete_eq(self, column: str, value: object) -> int:
        """Delete rows whose *column* equals *value*; returns the count."""
        position = self._schema.index_of(column)
        doomed = [
            (row_id, values)
            for row_id, values in self._rows.items()
            if values[position] == value
        ]
        for row_id, values in doomed:
            self._remove_row(row_id, values)
        return len(doomed)

    def delete_row(self, row: object) -> bool:
        """Delete one exact row; returns False if not present."""
        values = self._schema.coerce_row(row)
        for row_id, existing in self._rows.items():
            if existing == values:
                self._remove_row(row_id, values)
                return True
        return False

    def update_where(
        self, predicate: Callable[[Row], bool], updates: Mapping[str, object]
    ) -> int:
        """Update columns of every row satisfying *predicate*."""
        for column in updates:
            if not self._schema.has_column(column):
                raise SchemaError(f"unknown column in update: {column!r}")
        touched = 0
        for row_id, values in list(self._rows.items()):
            row = Row.from_values(self._schema.names, values)
            if not predicate(row):
                continue
            new_row = row.replaced(**updates)
            new_values = self._schema.coerce_row(new_row)
            self._rows[row_id] = new_values
            for index in self._indexes.values():
                position = self._schema.index_of(index.column)
                index.remove(values[position], row_id)
                index.add(new_values[position], row_id)
            self._bump(ChangeKind.UPDATE, new_values, old=values)
            touched += 1
        return touched

    def clear(self) -> int:
        """Delete every row; returns how many were removed."""
        return self.delete_where(lambda _row: True)

    def _remove_row(self, row_id: int, values: Tuple[object, ...]) -> None:
        del self._rows[row_id]
        for index in self._indexes.values():
            position = self._schema.index_of(index.column)
            index.remove(values[position], row_id)
        self._bump(ChangeKind.DELETE, values)

    def _bump(
        self,
        kind: ChangeKind,
        values: Tuple[object, ...],
        old: Optional[Tuple[object, ...]] = None,
    ) -> None:
        self._version += 1
        if self._change_log is not None:
            self._change_log.record(
                Change(kind, self._name, self._version, values, old)
            )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def select_eq(self, column: str, value: object) -> Tuple[Row, ...]:
        """Rows whose *column* equals *value* (index-accelerated)."""
        index = self._ensure_index(column)
        position = self._schema.index_of(column)
        matches = []
        for row_id in sorted(index.lookup(value)):
            values = self._rows.get(row_id)
            if values is not None and values[position] == value:
                matches.append(Row.from_values(self._schema.names, values))
        return tuple(matches)

    def project(self, columns: Sequence[str]) -> Tuple[Tuple[object, ...], ...]:
        """Distinct projections of all rows onto *columns* (order preserved)."""
        positions = [self._schema.index_of(column) for column in columns]
        seen = set()
        result: List[Tuple[object, ...]] = []
        for values in (values for _, values in sorted(self._rows.items())):
            projected = tuple(values[position] for position in positions)
            if projected not in seen:
                seen.add(projected)
                result.append(projected)
        return tuple(result)

    def distinct_values(self, column: str) -> Tuple[object, ...]:
        """Distinct values of one column."""
        return tuple(value for (value,) in self.project([column]))

    def _ensure_index(self, column: str) -> HashIndex:
        self._schema.index_of(column)  # validates the column exists
        index = self._indexes.get(column)
        if index is None:
            index = HashIndex(column)
            position = self._schema.index_of(column)
            index.rebuild(self._rows.items(), position)
            self._indexes[column] = index
        return index

    def __repr__(self) -> str:
        return f"Table({self._name!r}, {len(self._rows)} rows, v{self._version})"
