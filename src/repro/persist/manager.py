"""Durability coordination: journal at commit, watermark, checkpoint policy.

:class:`DurableScheduler` is a :class:`~repro.stream.StreamScheduler` whose
commit seams are wired into a :class:`DurabilityManager`:

* **journal** -- after a batch's pass succeeded and just before the
  pointer swap, the transactions ``flush`` drained are appended to the WAL
  (fsync'd).  A batch whose pass raised never reaches the WAL, so the log
  holds exactly the committed batches, in commit order; a failure of the
  append itself propagates like a crash;
* **commit** (under the scheduler's commit lock) -- the watermark moves to
  the batch's last transaction id, and the freshly published view becomes
  the checkpoint candidate: it contains exactly the committed
  transactions at or below the watermark;
* **after the batch**, the WAL-size policy turns the candidate into an
  on-disk checkpoint (a base or a delta + manifest + ``CURRENT`` swing +
  WAL rotation/pruning) once the live log reaches the threshold -- deferred
  while updates wait, up to twice the threshold -- off the commit lock:
  published views are never mutated in place, so serializing one is safe
  under the copy-on-write discipline.

:func:`open_scheduler` is the recovery entry point: load the newest valid
snapshot, replay the WAL tail through the ordinary pipeline (without
journaling it again), and hand back a scheduler whose update log continues
above the persisted high-water mark.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

from repro.analysis import analyze_program
from repro.constraints.solver import ConstraintSolver
from repro.datalog.program import ConstrainedDatabase
from repro.datalog.view import MaterializedView
from repro.errors import ProgramHashMismatchError, RecoveryError
from repro.obs import Observability
from repro.obs.metrics import NULL_METRICS
from repro.obs.trace import monotonic
from repro.persist import codec
from repro.persist.faults import fire
from repro.persist.snapshot import CheckpointInfo, SnapshotStore
from repro.persist.wal import WriteAheadLog
from repro.stream.log import Transaction, UpdateLog
from repro.stream.scheduler import PreparedBatch, StreamOptions, StreamScheduler


@dataclass(frozen=True)
class DurabilityOptions:
    """Tunable behaviour of the durability layer."""

    #: Checkpoint after the first batch that leaves the live WAL at or over
    #: this many bytes with no update waiting, or at twice this many bytes
    #: regardless (the WAL-size policy, see
    #: :meth:`DurabilityManager.maybe_checkpoint`; ``checkpoint()`` forces
    #: one regardless).
    checkpoint_wal_bytes: int = 1 << 20


@dataclass
class DurabilityStats:
    """Counters for operators and the persist benchmark."""

    journaled_batches: int = 0
    checkpoints: int = 0
    checkpoint_bytes: int = 0
    shards_written: int = 0
    shards_reused: int = 0
    segments_pruned: int = 0
    last_watermark: int = 0


class DurabilityManager:
    """Owns the WAL, the snapshot store and the commit watermark.

    The scheduler's one writer journals and commits; a checkpoint may run
    on another thread (``checkpoint()`` is public), so the candidate is one
    tuple, swapped by a single assignment, and checkpoints serialize among
    themselves.
    """

    def __init__(
        self,
        store: SnapshotStore,
        wal: WriteAheadLog,
        options: DurabilityOptions = DurabilityOptions(),
        *,
        watermark: int = 0,
        txn_high: int = 0,
    ) -> None:
        self._store = store
        self._wal = wal
        self._options = options
        self._watermark = watermark
        self._txn_high = max(txn_high, watermark)
        #: Latest committed (view, watermark, programs) -- what the next
        #: checkpoint writes.  ``None`` until the scheduler seeds it.
        self._candidate: Optional[
            Tuple[MaterializedView, int, ConstrainedDatabase, ConstrainedDatabase]
        ] = None
        self._checkpoint_lock = threading.Lock()
        self._program: Optional[ConstrainedDatabase] = None
        self._report_digest = ""
        self.stats = DurabilityStats()
        self.stats.last_watermark = watermark
        self._metrics = NULL_METRICS

    def attach_metrics(self, metrics) -> None:
        """Point the manager at a live registry (the owning scheduler's)."""
        self._metrics = metrics

    def bind(
        self,
        program: ConstrainedDatabase,
        report_digest: str,
        view: MaterializedView,
        effective_program: ConstrainedDatabase,
        deletion_program: ConstrainedDatabase,
    ) -> None:
        """Attach the base program identity the manifests carry, and make
        the scheduler's opening state checkpointable.

        A freshly opened scheduler's published view is by construction the
        state at the recovered watermark (snapshot view before replay, or
        the initial materialization at watermark 0), so it is a valid
        snapshot candidate even though no commit has happened yet --
        without this, a durable mediator that serves only reads could
        never persist its initial materialization."""
        self._program = program
        self._report_digest = report_digest
        self._candidate = (
            view, self._watermark, effective_program, deletion_program
        )

    @property
    def store(self) -> SnapshotStore:
        return self._store

    @property
    def wal(self) -> WriteAheadLog:
        return self._wal

    @property
    def watermark(self) -> int:
        """The last committed transaction id (the snapshot boundary)."""
        return self._watermark

    @property
    def txn_high(self) -> int:
        """Largest transaction id ever journaled or committed."""
        return self._txn_high

    # ------------------------------------------------------------------
    # The scheduler's two seams
    # ------------------------------------------------------------------
    def journal(self, transactions: Tuple[Transaction, ...]) -> None:
        """Append one batch to the WAL (fsync'd) just before it commits."""
        self._wal.append(transactions)
        self.stats.journaled_batches += 1
        self._txn_high = max(self._txn_high, transactions[-1].txn_id)
        if self._metrics.enabled:
            self._metrics.inc("repro_wal_journaled_batches_total")
            self._metrics.inc("repro_wal_journaled_txns_total", len(transactions))
            self._metrics.gauge("repro_wal_bytes", self._wal.size_bytes())

    def note_commit(
        self,
        txn_ids: Tuple[int, ...],
        view: MaterializedView,
        effective_program: ConstrainedDatabase,
        deletion_program: ConstrainedDatabase,
    ) -> None:
        """Record one committed batch (called under the commit lock).

        Batches commit one at a time, in transaction order, and a batch
        that raised journals nothing, so the last committed id is the
        watermark and the published view holds exactly the committed
        transactions at or below it."""
        fire("commit.before")
        if txn_ids:
            self._watermark = max(self._watermark, max(txn_ids))
            self._txn_high = max(self._txn_high, self._watermark)
        self._candidate = (
            view, self._watermark, effective_program, deletion_program
        )
        self.stats.last_watermark = self._watermark
        self._metrics.gauge("repro_txn_watermark", self._watermark)
        fire("commit.after")

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def maybe_checkpoint(self, backlog: bool) -> Optional[CheckpointInfo]:
        """Checkpoint once the live WAL reaches the threshold; else nothing.

        Run in each batch's epilogue, after its commit.  Every journaled
        batch has committed by then, so the checkpoint releases the whole
        log.  It also stalls the one writer, so while updates are waiting
        (*backlog*) it waits for the writer to catch up with them -- at the
        end of a burst -- up to twice the threshold, which bounds the
        replay debt under a load that never lets up."""
        threshold = self._options.checkpoint_wal_bytes
        live = self._wal.size_bytes()
        if live < threshold or (backlog and live < 2 * threshold):
            return None
        return self.checkpoint()

    def checkpoint(self) -> Optional[CheckpointInfo]:
        """Write the latest committed state as an atomic snapshot.

        Returns ``None`` when there is nothing to snapshot yet.  Safe to
        call from any thread; checkpoints serialize among themselves and
        never hold the scheduler's locks -- the candidate view is a
        published snapshot the copy-on-write discipline guarantees is no
        longer mutated."""
        if self._program is None:
            raise RecoveryError("durability manager is not bound to a program")
        with self._checkpoint_lock:
            candidate = self._candidate
            if candidate is None:
                return None
            view, watermark, effective_program, deletion_program = candidate
            info = self._store.write_checkpoint(
                view,
                program=self._program,
                report_digest=self._report_digest,
                effective_program=effective_program,
                deletion_program=deletion_program,
                watermark=watermark,
                txn_high=self._txn_high,
            )
            self._wal.rotate()
            pruned = self._wal.prune_through(watermark)
            self.stats.checkpoints += 1
            self.stats.checkpoint_bytes += info.bytes_written
            self.stats.shards_written += info.shards_written
            self.stats.shards_reused += info.shards_reused
            self.stats.segments_pruned += pruned
            if self._metrics.enabled:
                self._metrics.inc("repro_checkpoints_total")
                self._metrics.inc("repro_checkpoint_bytes_total", info.bytes_written)
                for outcome, shards in (("written", info.shards_written), ("reused", info.shards_reused)):
                    self._metrics.inc("repro_checkpoint_shards_total", shards, outcome=outcome)
                self._metrics.gauge("repro_wal_bytes", self._wal.size_bytes())
                self._metrics.gauge("repro_wal_segments", self._wal.segment_count())
            return info


class DurableScheduler(StreamScheduler):
    """A stream scheduler whose batches survive the process.

    Identical to :class:`~repro.stream.StreamScheduler` except that a
    flushed batch is journaled to the write-ahead log at commit, commits
    advance the durable watermark, and the WAL-size policy triggers atomic
    checkpoints.  Built by :func:`open_scheduler`.
    """

    def __init__(
        self, program: ConstrainedDatabase, *args, durability: DurabilityManager, **kwargs
    ) -> None:
        """:class:`~repro.stream.StreamScheduler`'s arguments, plus the
        manager that owns the data directory."""
        super().__init__(program, *args, **kwargs)
        self._durability = durability
        durability.attach_metrics(self._obs.metrics)
        durability.bind(
            program,
            codec.report_digest(self.report),
            self.view,
            self._effective_program,
            self._deletion_program,
        )

    @property
    def durability(self) -> DurabilityManager:
        return self._durability

    def _journal(self, prepared: PreparedBatch) -> None:
        if prepared.drained:
            with prepared.trace.span("journal") as span:
                span.set(records=len(prepared.drained))
                self._durability.journal(prepared.drained)

    def _commit_hook(
        self, prepared: PreparedBatch, next_view: MaterializedView
    ) -> None:
        self._durability.note_commit(
            prepared.txn_ids,
            next_view,
            self._effective_program,
            self._deletion_program,
        )

    def _batch_epilogue(self, prepared: PreparedBatch) -> None:
        # Policy check off the commit lock, on the writer's thread: disk
        # I/O never blocks the event loop or the commit pointer swap.  Runs
        # before super() so a triggered checkpoint lands inside the batch's
        # trace before it seals.
        started = monotonic()
        info = self._durability.maybe_checkpoint(self.log.pending_count() > 0)
        if info is not None:
            prepared.trace.record_span(
                "checkpoint",
                started,
                monotonic(),
                watermark=info.watermark,
                shards_written=info.shards_written,
                shards_reused=info.shards_reused,
                entries_encoded=info.entries_encoded,
                clauses_encoded=info.clauses_encoded,
                chain=info.chain,
            )
        super()._batch_epilogue(prepared)

    def checkpoint(self) -> Optional[CheckpointInfo]:
        """Force a snapshot of the latest commit."""
        return self._durability.checkpoint()

    def close(self) -> None:
        """Close the WAL's active segment (idempotent; a later batch opens a
        fresh one)."""
        self._durability.wal.rotate()


def open_scheduler(
    data_dir,
    program: Optional[ConstrainedDatabase] = None,
    solver: Optional[ConstraintSolver] = None,
    options: StreamOptions = StreamOptions(),
    durability_options: DurabilityOptions = DurabilityOptions(),
    clock=None,
    obs: Optional[Observability] = None,
) -> DurableScheduler:
    """Open (or initialize) a durable scheduler over *data_dir*.

    Recovery order:

    1. load the snapshot ``CURRENT`` points at (checksums and program hash
       verified loudly; a fresh directory needs *program* to initialize);
    2. replay the WAL tail -- every journaled (so committed) batch whose
       transactions lie above the snapshot watermark -- through
       ``apply_batch``, which journals nothing (coalescing is
       deterministic, so the replayed net effects equal the originals);
    3. start the update log at the persisted high-water mark + 1, so fresh
       transaction ids can never collide with replayed ones.
    """
    root = Path(data_dir)
    store = SnapshotStore(root)
    store.remove_temporaries()
    wal = WriteAheadLog(root / "wal")
    state = store.load_current(expected_program=program)
    journaled = wal.replay()

    if state is not None:
        if program is not None:
            # load_current verified the hash; keep the caller's object so
            # solver/registry identities line up with their expectations.
            base_program = program
        else:
            base_program = state.program
        fresh_digest = codec.report_digest(analyze_program(base_program))
        if state.report_digest and state.report_digest != fresh_digest:
            raise ProgramHashMismatchError(
                "the analyzer report digest on disk does not match a fresh "
                "analysis of the same program: the closure tables this "
                "snapshot was maintained with are stale, and WAL replay "
                "would not be maintenance-equivalent"
            )
        view: Optional[MaterializedView] = state.view
        effective_program: Optional[ConstrainedDatabase] = state.effective_program
        deletion_program: Optional[ConstrainedDatabase] = state.deletion_program
        watermark = state.watermark
        txn_high = state.txn_high
    else:
        if program is None:
            raise RecoveryError(
                f"data directory {str(root)!r} holds no snapshot and no "
                "program was supplied to initialize it"
            )
        base_program = program
        view = None
        effective_program = None
        deletion_program = None
        watermark = 0
        txn_high = 0

    txn_high = max(txn_high, wal.max_txn_seen)
    manager = DurabilityManager(
        store,
        wal,
        durability_options,
        watermark=watermark,
        txn_high=txn_high,
    )
    scheduler = DurableScheduler(
        base_program,
        solver,
        view=view,
        options=options,
        log=UpdateLog(clock=clock, first_txn_id=txn_high + 1),
        durability=manager,
        effective_program=effective_program,
        deletion_program=deletion_program,
        obs=obs,
    )
    replayed = 0
    for batch in journaled:
        ids = [txn.txn_id for txn in batch]
        if ids and max(ids) <= watermark:
            continue  # wholly inside the snapshot
        # Batches commit atomically, so a batch is either wholly inside or
        # wholly outside the snapshot watermark; replay it through the
        # ordinary pipeline (apply_batch journals nothing).  It committed
        # once, so a pass that raises now means recovery would diverge.
        result = scheduler.apply_batch(batch)
        if not result.ok:
            raise RecoveryError(
                f"replaying committed batch {ids[0]}..{ids[-1]} failed: "
                f"{result.error}"
            )
        replayed += 1
    scheduler._replayed_batches = replayed  # introspection for tests/benchmarks
    return scheduler
