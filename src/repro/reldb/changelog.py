"""Change logging and versioning for base tables.

Section 4 of the paper models an update to an integrated source as a change
in the behaviour of the functions that access it, and defines the deltas

    ``f+_{t,t+1}(args) = f_{t+1}(args) - f_t(args)``
    ``f-_{t,t+1}(args) = f_t(args) - f_{t+1}(args)``

The change log records every insert, delete and update of a table together
with the table version at which it happened, and hands each change to its
subscribers as it is recorded: that is how a base-table write reaches the
update stream as an external change notice.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple


class ChangeKind(enum.Enum):
    """The three kinds of base-table changes."""

    INSERT = "insert"
    DELETE = "delete"
    UPDATE = "update"


@dataclass(frozen=True)
class Change:
    """One recorded change to a table."""

    kind: ChangeKind
    table: str
    version: int
    row: Tuple[object, ...]
    #: For updates, the previous contents of the row (None otherwise).
    old_row: Optional[Tuple[object, ...]] = None

    def __str__(self) -> str:
        if self.kind is ChangeKind.UPDATE:
            return f"v{self.version} update {self.table}: {self.old_row} -> {self.row}"
        return f"v{self.version} {self.kind.value} {self.table}: {self.row}"


class ChangeLog:
    """An append-only log of changes.

    Listeners subscribed with :meth:`subscribe` see every recorded change as
    it happens; the update-stream subsystem uses this to feed base-table
    deltas into the same transaction log as the view-level update requests
    (see :func:`repro.stream.log.attach_changelog`).
    """

    def __init__(self) -> None:
        self._changes: List[Change] = []
        self._listeners: List[object] = []

    def record(self, change: Change) -> None:
        """Append one change and notify the subscribed listeners."""
        self._changes.append(change)
        for listener in tuple(self._listeners):
            listener(change)

    def subscribe(self, listener) -> "callable[[], None]":
        """Call *listener* with every subsequently recorded change.

        Returns a zero-argument detach callable; detaching twice is a no-op.
        Listeners must not raise -- a recording transaction is not the place
        to handle consumer failures -- and exceptions propagate to the
        recorder by design.
        """
        self._listeners.append(listener)

        def detach() -> None:
            try:
                self._listeners.remove(listener)
            except ValueError:
                pass

        return detach

    def __len__(self) -> int:
        return len(self._changes)

    def __iter__(self):
        return iter(self._changes)

