"""Row values returned by the relational engine and by domain calls.

Rows must be *hashable* because DCA result sets are sets of values and
because constrained-view instances are compared as sets of ground tuples.
:class:`Row` is an immutable, ordered mapping from column names to values
with attribute-style access (``row.origin``) mirroring the record field
notation used by the paper's mediator rules (``P1.origin``).
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Sequence, Tuple

from repro.errors import SchemaError, UnknownColumnError


class Row(Mapping[str, object]):
    """An immutable named tuple of column values."""

    __slots__ = ("_names", "_values", "_hash")

    def __init__(self, values: Mapping[str, object]) -> None:
        names = tuple(values.keys())
        for name in names:
            if not isinstance(name, str) or not name:
                raise SchemaError(f"invalid column name in row: {name!r}")
        object.__setattr__(self, "_names", names)
        object.__setattr__(self, "_values", tuple(values[name] for name in names))
        # Computed on the first ``__hash__``: a row holding an unhashable
        # value still constructs, it just cannot be hashed.
        object.__setattr__(self, "_hash", None)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_values(cls, names: Sequence[str], values: Sequence[object]) -> "Row":
        """Build a row by zipping column names with values."""
        if len(names) != len(values):
            raise SchemaError(
                f"row has {len(values)} values for {len(names)} columns"
            )
        return cls(dict(zip(names, values)))

    # ------------------------------------------------------------------
    # Mapping protocol
    # ------------------------------------------------------------------
    def __getitem__(self, key: str) -> object:
        try:
            return self._values[self._names.index(key)]
        except ValueError as exc:
            raise UnknownColumnError(f"row has no column {key!r}") from exc

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)

    # ------------------------------------------------------------------
    # Attribute access and identity
    # ------------------------------------------------------------------
    def __getattr__(self, name: str) -> object:
        if name.startswith("_"):
            raise AttributeError(name)
        try:
            return self[name]
        except UnknownColumnError as exc:
            raise AttributeError(name) from exc

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("Row objects are immutable")

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self._names, self._values)))
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Row):
            return self._names == other._names and self._values == other._values
        if isinstance(other, Mapping):
            return dict(self) == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={value!r}" for name, value in zip(self._names, self._values))
        return f"Row({inner})"

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    @property
    def columns(self) -> Tuple[str, ...]:
        """Column names in row order."""
        return self._names

    def as_dict(self) -> Dict[str, object]:
        """A mutable dictionary copy of the row."""
        return dict(zip(self._names, self._values))

    def replaced(self, **updates: object) -> "Row":
        """Return a copy with some columns replaced."""
        data = self.as_dict()
        for key, value in updates.items():
            if key not in data:
                raise UnknownColumnError(f"row has no column {key!r}")
            data[key] = value
        return Row(data)
