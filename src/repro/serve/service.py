"""The mediator as a long-lived concurrent service.

:class:`MediatorService` wraps a :class:`~repro.stream.StreamScheduler` in
an asyncio front end with the concurrency shape the paper's mediator
implies -- many readers, one logical writer:

* **Reads never block on writers.**  A query grabs the published view
  pointer (snapshot isolation: mid-batch that is still the complete
  pre-batch view) and evaluates it on a read thread pool; no query ever
  takes the scheduler's coalesce or commit lock for more than the commit
  pointer swap.  :meth:`MediatorService.lease` pins an atomically
  consistent (view, effective program) pair for multi-query sessions.
* **One writer thread.**  A coordinator task hands
  :meth:`~repro.stream.StreamScheduler.flush` (drain a bounded batch,
  coalesce, maintain, journal, commit) to the service's one writer
  thread, one batch at a time, so batches commit in stream order and at
  most one is ever applying.  A batch whose pass raises comes back not
  ``ok`` and is counted in ``failed_units``; any other error out of a
  flush is recorded in :attr:`MediatorService.errors`.  Either way the
  writer keeps serving.
* **Backpressure, not unbounded queues.**  When the update log's backlog
  crosses the high watermark, :meth:`MediatorService.submit` awaits until
  the writer drains it below the low watermark; readers are unaffected.
"""

from __future__ import annotations

import asyncio
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Deque, FrozenSet, Iterable, Optional, Tuple

from repro.constraints.solver import ConstraintSolver
from repro.datalog.program import ConstrainedDatabase
from repro.datalog.view import MaterializedView
from repro.errors import MediatorError
from repro.stream import StreamScheduler
from repro.stream.log import StreamPayload, Transaction


@dataclass(frozen=True)
class ServeOptions:
    """Tunable behaviour of the serving layer."""

    #: Threads evaluating read queries (snapshot reads are lock-free, so
    #: this bounds CPU share, not correctness).
    read_workers: int = 4
    #: Most transactions drained into one batch (None = unbounded).  Keeps
    #: a burst from becoming one giant maintenance pass.
    max_batch: Optional[int] = 64
    #: Backlog (pending transactions) at which ``submit`` starts awaiting.
    backpressure_high: int = 1024
    #: Backlog at which awaiting submitters are released again.
    backpressure_low: int = 256
    #: Write a final snapshot when :meth:`MediatorService.stop` has drained
    #: everything (durable schedulers only; a no-op otherwise).  Crash
    #: tests disable it to leave a WAL tail for the next life to replay.
    checkpoint_on_stop: bool = True
    #: Most recent batch errors kept for :attr:`MediatorService.errors`
    #: (a ring: older ones are dropped and counted, so a long-lived
    #: service's error memory stays bounded).
    error_history: int = 256

    def __post_init__(self) -> None:
        if self.backpressure_low > self.backpressure_high:
            raise MediatorError(
                "backpressure_low must not exceed backpressure_high "
                f"({self.backpressure_low} > {self.backpressure_high})"
            )
        if self.error_history < 1:
            raise MediatorError(
                f"error_history must be positive (got {self.error_history})"
            )
        if self.read_workers < 1:
            raise MediatorError(
                f"read_workers must be positive (got {self.read_workers})"
            )
        if self.max_batch is not None and self.max_batch < 1:
            # A drain of at most 0 transactions never drains: the writer
            # would stall with the submitted updates pending forever.
            raise MediatorError(
                f"max_batch must be positive or None (got {self.max_batch})"
            )


@dataclass(frozen=True)
class SnapshotLease:
    """A pinned, atomically consistent (view, program) read session.

    Taken under the scheduler's commit lock, so the pair is never torn;
    held only by reference, so leasing is O(1) and the writer is never
    blocked by however long the reader keeps it.  The paper's deferred
    evaluation still applies: DCA constraints are checked against the
    sources *at query time*, so a lease pins the view's syntactic state,
    not the external world.
    """

    view: MaterializedView
    program: ConstrainedDatabase
    solver: ConstraintSolver
    #: How many batches had committed when the lease was taken.
    sequence: int

    def query(
        self, predicate: str, universe: Optional[Iterable[object]] = None
    ) -> FrozenSet[Tuple[object, ...]]:
        """Ground instances of *predicate* under this lease's snapshot."""
        return self.view.instances_for(
            predicate, solver=self.solver, universe=universe
        )

    def instances(self, universe: Optional[Iterable[object]] = None):
        """All ground instances of the leased snapshot."""
        return self.view.instances(self.solver, universe)


class MediatorService:
    """Asyncio façade serving reads and writes over one stream scheduler.

    Lifecycle: ``await start()``, interact via :meth:`query` /
    :meth:`submit` / :meth:`drained`, then ``await stop()``.  All public
    coroutines must be called from the event loop that ran ``start()``.
    """

    def __init__(
        self,
        scheduler: StreamScheduler,
        options: ServeOptions = ServeOptions(),
    ) -> None:
        self._scheduler = scheduler
        self._options = options
        self._read_pool: Optional[ThreadPoolExecutor] = None
        self._writer: Optional[ThreadPoolExecutor] = None
        self._writer_task: Optional[asyncio.Task] = None
        self._wake = asyncio.Event()
        self._idle = asyncio.Event()
        self._below_low = asyncio.Event()
        self._idle.set()
        self._below_low.set()
        self._closed = False
        # Counters, not the results themselves: a kept ``BatchResult`` pins
        # its (superseded) view's shards for the service's lifetime.
        self._batches_applied = 0
        self._failed_units = 0
        #: Bounded error memory: the newest ``error_history`` renderings
        #: stay, older ones are dropped and counted (a long-lived service
        #: must not grow a list forever).
        self._errors: Deque[str] = deque(maxlen=options.error_history)
        self._errors_seen = 0
        self._obs = scheduler.obs

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "MediatorService":
        """Spin up the read pool, the writer thread and the writer task."""
        if self._writer_task is not None:
            raise MediatorError("service already started")
        options = self._options
        self._read_pool = ThreadPoolExecutor(
            max_workers=options.read_workers,
            thread_name_prefix="serve-read",
        )
        self._writer = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-writer"
        )
        self._writer_task = asyncio.ensure_future(self._writer_loop())
        return self

    async def stop(self) -> None:
        """Drain the log, checkpoint, tear down the threads."""
        if self._writer_task is None:
            return
        self._closed = True
        self._wake.set()
        await self._writer_task
        self._writer_task = None
        # Everything is drained and committed: write a parting snapshot so
        # the next life cold-starts from disk instead of replaying the WAL
        # (durable schedulers only -- plain schedulers have no checkpoint).
        checkpoint = getattr(self._scheduler, "checkpoint", None)
        if self._options.checkpoint_on_stop and checkpoint is not None:
            try:
                await asyncio.get_running_loop().run_in_executor(
                    self._writer, checkpoint
                )
            except Exception as exc:  # surface via .errors, still tear down
                self._record_error(f"{type(exc).__name__}: {exc}")
        for pool in (self._read_pool, self._writer):
            if pool is not None:
                pool.shutdown(wait=True)
        self._read_pool = self._writer = None

    async def __aenter__(self) -> "MediatorService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Reads (never blocked by the writer)
    # ------------------------------------------------------------------
    @property
    def scheduler(self) -> StreamScheduler:
        return self._scheduler

    @property
    def view(self) -> MaterializedView:
        """The currently published snapshot (read-only)."""
        return self._scheduler.view

    def lease(self) -> SnapshotLease:
        """Pin an atomically consistent (view, effective program) pair."""
        view, program = self._scheduler.snapshot_state()
        return SnapshotLease(
            view=view,
            program=program,
            solver=self._scheduler.solver,
            sequence=len(self._scheduler.batches),
        )

    async def query(
        self, predicate: str, universe: Optional[Iterable[object]] = None
    ) -> FrozenSet[Tuple[object, ...]]:
        """Evaluate one predicate against the published snapshot.

        The view pointer is captured first (one atomic read), then the
        evaluation -- including any DCA round-trips the solver makes --
        runs on the read pool, so a slow external source stalls only this
        query's thread, never the event loop or the writer.
        """
        if self._read_pool is None:
            raise MediatorError("service is not running (call start())")
        view = self._scheduler.view
        return await asyncio.get_running_loop().run_in_executor(
            self._read_pool,
            partial(
                view.instances_for,
                predicate,
                solver=self._scheduler.solver,
                universe=universe,
            ),
        )

    async def query_lease(
        self,
        lease: SnapshotLease,
        predicate: str,
        universe: Optional[Iterable[object]] = None,
    ) -> FrozenSet[Tuple[object, ...]]:
        """Like :meth:`query`, but against a pinned lease."""
        if self._read_pool is None:
            raise MediatorError("service is not running (call start())")
        return await asyncio.get_running_loop().run_in_executor(
            self._read_pool, partial(lease.query, predicate, universe)
        )

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    async def submit(self, payload: StreamPayload) -> Transaction:
        """Log one update for the writer (awaits backpressure)."""
        if self._closed or self._writer_task is None:
            raise MediatorError("service is not accepting updates")
        await self._below_low.wait()
        transaction = self._scheduler.submit(payload)
        self._idle.clear()
        if (
            self._scheduler.log.pending_count()
            >= self._options.backpressure_high
        ):
            self._below_low.clear()
        self._wake.set()
        return transaction

    async def drained(self) -> None:
        """Await until the log is empty and no batch is applying."""
        await self._idle.wait()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def errors(self) -> Tuple[str, ...]:
        """The newest batch errors (rendered), oldest first.

        Bounded by ``ServeOptions.error_history``; ``stats()`` reports how
        many older ones were dropped."""
        return tuple(self._errors)

    @property
    def errors_dropped(self) -> int:
        """Errors evicted from the bounded history."""
        return max(0, self._errors_seen - len(self._errors))

    def _record_error(self, message: str) -> None:
        # Runs on the event loop only (writer loop + done callbacks), so a
        # plain counter and deque append are race-free.
        self._errors_seen += 1
        self._errors.append(message)
        self._obs.metrics.inc("repro_serve_errors_total")

    def stats(self) -> dict:
        """Service-level counters for operators and the serve benchmark,
        answered from memory (every flush reply carries them)."""
        scheduler = self._scheduler
        data = {
            "batches_applied": self._batches_applied,
            "batch_errors": self._errors_seen,
            "errors_dropped": self.errors_dropped,
            "failed_units": self._failed_units,
            "pending": scheduler.log.pending_count(),
            "view_entries": len(scheduler.view),
        }
        durability = getattr(scheduler, "durability", None)
        if durability is not None:
            data["txn_watermark"] = durability.watermark
            data["txn_high"] = durability.txn_high
            data["journaled_batches"] = durability.stats.journaled_batches
            data["checkpoints"] = durability.stats.checkpoints
            data["wal_bytes"] = durability.wal.size_bytes()
            data["wal_segments"] = durability.wal.segment_count()
            data["snapshot_id"] = durability.store.current_name()
            data["snapshot_chain"] = durability.store.chain_length
        return data

    @property
    def obs(self):
        """The observability bundle (the scheduler's)."""
        return self._obs

    # ------------------------------------------------------------------
    # The writer
    # ------------------------------------------------------------------
    async def _writer_loop(self) -> None:
        loop = asyncio.get_running_loop()
        flush = partial(self._scheduler.flush, limit=self._options.max_batch)
        while True:
            self._wake.clear()
            # Only declare idle when the backlog is empty at this
            # (await-free) instant; a submit during a flush sets the wake
            # event and leaves a pending transaction, so the loop flushes
            # again.
            if self._scheduler.log.pending_count() == 0:
                self._idle.set()
                if self._closed:
                    return
                await self._wake.wait()
                continue
            try:
                result = await loop.run_in_executor(self._writer, flush)
            except Exception as exc:  # keep serving; surface via .errors
                self._record_error(f"{type(exc).__name__}: {exc}")
            else:
                self._batches_applied += 1
                self._failed_units += not result.ok
            finally:
                self._maybe_release_backpressure()

    def _maybe_release_backpressure(self) -> None:
        if (
            not self._below_low.is_set()
            and self._scheduler.log.pending_count()
            <= self._options.backpressure_low
        ):
            self._below_low.set()
