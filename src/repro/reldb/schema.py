"""Table schemas for the in-memory relational engine.

The engine stands in for the PARADOX / DBASE / INGRES systems that HERMES
integrates.  Rows are plain tuples; a :class:`Schema` names and (optionally)
types the columns so that rows can also be addressed by field name, which is
what the paper's mediator rules do (``A.streetnum``, ``"name"`` selections).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Tuple, Type

from repro.errors import SchemaError


@dataclass(frozen=True)
class Column:
    """One column: a name and an optional expected Python type."""

    name: str
    type: Optional[Type] = None

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SchemaError(f"invalid column name: {self.name!r}")

    def validate(self, value: object) -> None:
        """Raise :class:`SchemaError` if *value* does not fit the column."""
        if self.type is None or value is None:
            return
        if self.type is float and isinstance(value, int) and not isinstance(value, bool):
            return
        if not isinstance(value, self.type):
            raise SchemaError(
                f"column {self.name!r} expects {self.type.__name__}, "
                f"got {type(value).__name__}: {value!r}"
            )

    def __str__(self) -> str:
        if self.type is None:
            return self.name
        return f"{self.name}:{self.type.__name__}"


@dataclass(frozen=True)
class Schema:
    """An ordered collection of columns."""

    columns: Tuple[Column, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(self.columns))
        names = [column.name for column in self.columns]
        if len(names) != len(set(names)):
            raise SchemaError(f"duplicate column names in schema: {names}")
        if not self.columns:
            raise SchemaError("a schema needs at least one column")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def of(cls, *names: str) -> "Schema":
        """Build an untyped schema from column names."""
        return cls(tuple(Column(name) for name in names))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def names(self) -> Tuple[str, ...]:
        """Column names in schema order."""
        return tuple(column.name for column in self.columns)

    @property
    def arity(self) -> int:
        """Number of columns."""
        return len(self.columns)

    def index_of(self, name: str) -> int:
        """Position of a column; raises :class:`SchemaError` when unknown."""
        for index, column in enumerate(self.columns):
            if column.name == name:
                return index
        raise SchemaError(f"unknown column: {name!r} (have {list(self.names)})")

    def has_column(self, name: str) -> bool:
        """True when a column with this name exists."""
        return any(column.name == name for column in self.columns)

    # ------------------------------------------------------------------
    # Row handling
    # ------------------------------------------------------------------
    def coerce_row(self, row: object) -> Tuple[object, ...]:
        """Validate a tuple/sequence/mapping row and return it as a tuple."""
        if isinstance(row, Mapping):
            missing = [name for name in self.names if name not in row]
            if missing:
                raise SchemaError(f"row is missing columns {missing}")
            extra = [name for name in row if name not in self.names]
            if extra:
                raise SchemaError(f"row has unknown columns {extra}")
            values = tuple(row[name] for name in self.names)
        else:
            values = tuple(row)  # type: ignore[arg-type]
            if len(values) != self.arity:
                raise SchemaError(
                    f"row has {len(values)} values, schema has {self.arity} columns"
                )
        for column, value in zip(self.columns, values):
            column.validate(value)
        return values

    def __str__(self) -> str:
        return "(" + ", ".join(str(column) for column in self.columns) + ")"
