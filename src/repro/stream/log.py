"""The update-stream transaction log.

Accepts the paper's three update kinds -- insertion requests, deletion
requests (Section 3) and external source-change notices (Section 4) -- as
timestamped transactions in arrival order.  The log is the only producer /
consumer hand-off point of the subsystem: writers ``append`` from any
thread, the scheduler ``drain``\\ s a batch atomically, and the log keeps
only what is still pending: a drained transaction belongs to its batch.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

from repro.maintenance.requests import DeletionRequest, InsertionRequest

UpdateRequest = Union[DeletionRequest, InsertionRequest]


@dataclass(frozen=True)
class ExternalChangeNotice:
    """Notification that an integrated external source changed.

    Carries the rows the producer knows were inserted / deleted (one
    recorded change, for :func:`attach_changelog`); an empty notice just
    says "something about *source* changed".  Under the ``W_P``
    maintenance discipline the scheduler needs no row detail at all -- the
    view is syntactically invariant (Theorem 4) and only what was remembered
    about the source must be dropped -- so the rows exist for reporting and
    for ``T_P``-style consumers.

    The notice is the invalidation protocol of the read path's memos (see
    :class:`~repro.domains.base.DomainRegistry`): when *source* is the name
    of a registered domain, flushing the notice forgets that domain's
    remembered call results and the solver's DCA-dependent results, and
    nothing of any other domain; any other name (a table name, an empty
    string) cannot be attributed and drops all of them.  A tracked source
    -- one whose ``source_version()`` moves with its data -- needs no
    notice for correctness; an untracked one needs exactly this, and reads
    stay on the remembered answer until it is flushed.
    """

    source: str
    added_rows: Tuple[Tuple[object, ...], ...] = ()
    removed_rows: Tuple[Tuple[object, ...], ...] = ()
    version: Optional[int] = None

    def __str__(self) -> str:
        return (
            f"external change {self.source}"
            f" (+{len(self.added_rows)}/-{len(self.removed_rows)} rows)"
        )


StreamPayload = Union[UpdateRequest, ExternalChangeNotice]


@dataclass(frozen=True)
class Transaction:
    """One logged stream event: a payload plus its position and wall time."""

    txn_id: int
    timestamp: float
    payload: StreamPayload

    def __str__(self) -> str:
        return f"txn {self.txn_id} @ {self.timestamp:.6f}: {self.payload}"


class UpdateLog:
    """A thread-safe queue of update transactions.

    ``append`` assigns monotonically increasing transaction ids (the
    stream's total order; wall-clock timestamps are attached for operators
    but never used for ordering).  ``drain`` atomically hands the pending
    transactions to the caller -- the scheduler turns exactly one drain into
    one coalesced batch -- and forgets them, so a long-running server keeps
    no history of what it has applied.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        first_txn_id: int = 1,
    ) -> None:
        # The clock is injectable so tests (and replay tooling) can stamp
        # transactions deterministically; the stream layer otherwise bans
        # direct wall-clock / randomness calls (see tools/lint_rules.py).
        self._clock: Callable[[], float] = clock if clock is not None else time.time
        self._lock = threading.Lock()
        # ``first_txn_id`` exists for recovery: a fresh process's log would
        # otherwise restart ids at 1, colliding with the journaled/replayed
        # transactions of its previous life.  The durability layer passes
        # the persisted high-water mark + 1.
        if not isinstance(first_txn_id, int) or first_txn_id < 1:
            raise ValueError(
                f"first_txn_id must be a positive int: {first_txn_id!r}"
            )
        self._ids = itertools.count(first_txn_id)
        self._pending: List[Transaction] = []

    def append(self, payload: StreamPayload) -> Transaction:
        """Log one request / notice; returns the recorded transaction."""
        if not isinstance(
            payload, (DeletionRequest, InsertionRequest, ExternalChangeNotice)
        ):
            raise TypeError(f"not a stream payload: {payload!r}")
        with self._lock:
            transaction = Transaction(next(self._ids), self._clock(), payload)
            self._pending.append(transaction)
            return transaction

    def pending_count(self) -> int:
        """How many transactions a drain would return right now."""
        with self._lock:
            return len(self._pending)

    def drain(self, limit: Optional[int] = None) -> Tuple[Transaction, ...]:
        """Atomically consume and return the pending transactions.

        With *limit*, at most that many transactions are consumed (oldest
        first); the rest stay pending for the next drain.  The serve
        layer's writer uses this to bound batch size under load instead of
        swallowing an arbitrarily large backlog in one maintenance pass.
        """
        with self._lock:
            end = len(self._pending) if limit is None else max(0, limit)
            batch = tuple(self._pending[:end])
            del self._pending[:end]
            return batch


def attach_changelog(
    log: UpdateLog,
    changelog,
    source: Optional[str] = None,
) -> Callable[[], None]:
    """Subscribe *log* to a table change log; returns the detach callable.

    Every change the relational layer records is forwarded to the update
    log as an :class:`ExternalChangeNotice` (one notice per change; the
    coalescer compacts consecutive notices of one source).  This is how
    base-table writes behind the domain layer reach the same stream as the
    view-level requests.
    """

    def forward(change) -> None:
        kind = getattr(change.kind, "value", str(change.kind))
        added: Tuple[Tuple[object, ...], ...] = ()
        removed: Tuple[Tuple[object, ...], ...] = ()
        if kind == "insert":
            added = (change.row,)
        elif kind == "delete":
            removed = (change.row,)
        else:  # update = delete old + insert new
            added = (change.row,)
            if change.old_row is not None:
                removed = (change.old_row,)
        log.append(
            ExternalChangeNotice(
                source=source or change.table,
                added_rows=added,
                removed_rows=removed,
                version=change.version,
            )
        )

    return changelog.subscribe(forward)
