"""Durability coordination: WAL journaling, watermarks, checkpoint policy.

:class:`DurableScheduler` is a :class:`~repro.stream.StreamScheduler` whose
drain/commit seams are wired into a :class:`DurabilityManager`:

* **drain** journals the drained batch to the WAL (fsync'd) *before* the
  batch enters ``prepare_batch`` -- every acknowledged batch is on disk
  first;
* **commit** (under the scheduler's commit lock) marks the batch's
  transaction ids committed.  Batches commit in transaction order, but a
  batch that raised never commits, so the durable *watermark* is the
  contiguous committed prefix; only when the committed set has no holes
  does the freshly published view become a checkpoint candidate -- a
  snapshot must contain exactly the transactions at or below its
  watermark, nothing more;
* **after apply**, the WAL-size policy may turn the latest candidate into
  an on-disk checkpoint (dirty shards + manifest + ``CURRENT`` swing +
  WAL rotation/pruning), off the commit lock -- published views are never
  mutated in place, so serializing one concurrently with later batches is
  safe under the copy-on-write discipline.

:func:`open_scheduler` is the recovery entry point: load the newest valid
snapshot, replay the WAL tail through the ordinary pipeline, and hand back
a scheduler whose update log continues above the persisted high-water mark.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Set, Tuple

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
from repro.stream.scheduler import (
    PreparedBatch,
    StreamOptions,
    StreamScheduler,
)


@dataclass(frozen=True)
class DurabilityOptions:
    """Tunable behaviour of the durability layer."""

    #: Checkpoint once the live WAL grows past this many bytes, at the first
    #: moment every journaled batch is committed or at twice this size,
    #: whichever comes first (the WAL-size policy, see
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
    """Owns the WAL, the snapshot store and the committed-set watermark."""

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
        self._lock = threading.Lock()
        self._watermark = watermark
        self._txn_high = max(txn_high, watermark)
        #: Committed transaction ids above the watermark (a hole = a batch
        #: that raised, whose transactions never commit).
        self._committed: Set[int] = set()
        #: Latest hole-free (view, watermark, programs) commit -- what the
        #: next checkpoint writes.  ``None`` until the first clean commit.
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

    def bind(self, program: ConstrainedDatabase, report_digest: str) -> None:
        """Attach the base program identity the manifests carry."""
        self._program = program
        self._report_digest = report_digest

    def seed_candidate(
        self,
        view: MaterializedView,
        effective_program: ConstrainedDatabase,
        deletion_program: ConstrainedDatabase,
    ) -> None:
        """Make the scheduler's opening state checkpointable.

        A freshly opened scheduler's published view is by construction the
        state at the recovered watermark (snapshot view before replay, or
        the initial materialization at watermark 0), so it is a valid
        snapshot candidate even though no commit has happened yet --
        without this, a durable mediator that serves only reads could
        never persist its initial materialization."""
        with self._lock:
            if self._candidate is None and not self._committed:
                self._candidate = (
                    view,
                    self._watermark,
                    effective_program,
                    deletion_program,
                )

    @property
    def store(self) -> SnapshotStore:
        return self._store

    @property
    def wal(self) -> WriteAheadLog:
        return self._wal

    @property
    def watermark(self) -> int:
        """Contiguous committed transaction prefix (snapshot boundary)."""
        with self._lock:
            return self._watermark

    @property
    def txn_high(self) -> int:
        """Largest transaction id ever journaled or committed."""
        with self._lock:
            return self._txn_high

    # ------------------------------------------------------------------
    # The scheduler's two seams
    # ------------------------------------------------------------------
    def journal(self, transactions: Tuple[Transaction, ...]) -> None:
        """Append one drained batch to the WAL (fsync'd) before it applies."""
        self._wal.append(transactions)
        with self._lock:
            self.stats.journaled_batches += 1
            for txn in transactions:
                if txn.txn_id > self._txn_high:
                    self._txn_high = txn.txn_id
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
        """Record one committed batch (called under the commit lock)."""
        fire("commit.before")
        with self._lock:
            for txn_id in txn_ids:
                if txn_id > self._watermark:
                    self._committed.add(txn_id)
                if txn_id > self._txn_high:
                    self._txn_high = txn_id
            while self._watermark + 1 in self._committed:
                self._watermark += 1
                self._committed.discard(self._watermark)
            if not self._committed:
                # No holes: the published view contains exactly the
                # transactions <= watermark and is safe to snapshot.
                self._candidate = (
                    view,
                    self._watermark,
                    effective_program,
                    deletion_program,
                )
            self.stats.last_watermark = self._watermark
            watermark = self._watermark
        self._metrics.gauge("repro_txn_watermark", watermark)
        fire("commit.after")

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def maybe_checkpoint(self) -> Optional[CheckpointInfo]:
        """Checkpoint when the WAL-size policy says so; else do nothing.

        A snapshot at watermark *w* releases only the WAL segments that end
        at or below *w*.  While a later batch is already journaled (the
        serve pipeline drains batch n+1 while batch n applies) the segment
        holding it survives the checkpoint, the log stays over the
        threshold, and every following batch would write the whole
        snapshot again without releasing a byte.  So an over-threshold log
        waits for the first moment every journaled transaction is
        committed -- at the latest when the pipeline runs dry -- where one
        checkpoint releases all of it; at twice the threshold it stops
        waiting, which bounds the replay debt under a load that never lets
        the log catch up, or after a batch that raised left a hole the
        watermark never passes (the only way a hole arises: batches commit
        in transaction order)."""
        threshold = self._options.checkpoint_wal_bytes
        live = self._wal.size_bytes()
        if live < threshold:
            return None
        with self._lock:
            caught_up = self._watermark == self._txn_high
        if not caught_up and live < 2 * threshold:
            return None
        return self.checkpoint()

    def checkpoint(self) -> Optional[CheckpointInfo]:
        """Write the latest hole-free candidate as an atomic snapshot.

        Returns ``None`` when there is nothing to snapshot yet.  Safe to
        call from any thread; checkpoints serialize among themselves and
        never hold the scheduler's locks -- the candidate view is a
        published snapshot the copy-on-write discipline guarantees is no
        longer mutated."""
        if self._program is None:
            raise RecoveryError("durability manager is not bound to a program")
        with self._checkpoint_lock:
            with self._lock:
                candidate = self._candidate
            if candidate is None:
                return None
            view, watermark, effective_program, deletion_program = candidate
            with self._lock:
                txn_high = self._txn_high
            info = self._store.write_checkpoint(
                view,
                program=self._program,
                report_digest=self._report_digest,
                effective_program=effective_program,
                deletion_program=deletion_program,
                watermark=watermark,
                txn_high=txn_high,
            )
            self._wal.rotate()
            pruned = self._wal.prune_through(watermark)
            with self._lock:
                self.stats.checkpoints += 1
                self.stats.checkpoint_bytes += info.bytes_written
                self.stats.shards_written += info.shards_written
                self.stats.shards_reused += info.shards_reused
                self.stats.segments_pruned += pruned
            if self._metrics.enabled:
                self._metrics.inc("repro_checkpoints_total")
                self._metrics.inc(
                    "repro_checkpoint_bytes_total", info.bytes_written
                )
                self._metrics.inc(
                    "repro_checkpoint_shards_total",
                    info.shards_written,
                    outcome="written",
                )
                self._metrics.inc(
                    "repro_checkpoint_shards_total",
                    info.shards_reused,
                    outcome="reused",
                )
                self._metrics.gauge("repro_wal_bytes", self._wal.size_bytes())
                self._metrics.gauge(
                    "repro_wal_segments", self._wal.segment_count()
                )
            return info


class DurableScheduler(StreamScheduler):
    """A stream scheduler whose batches survive the process.

    Identical to :class:`~repro.stream.StreamScheduler` except that drained
    batches are journaled to the write-ahead log before they apply, commits
    advance the durable watermark, and the WAL-size policy triggers atomic
    shard-granular checkpoints.  Built by :func:`open_scheduler`.
    """

    def __init__(
        self,
        program: ConstrainedDatabase,
        solver: Optional[ConstraintSolver] = None,
        view: Optional[MaterializedView] = None,
        options: StreamOptions = StreamOptions(),
        log: Optional[UpdateLog] = None,
        *,
        durability: DurabilityManager,
        effective_program: Optional[ConstrainedDatabase] = None,
        deletion_program: Optional[ConstrainedDatabase] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        super().__init__(
            program,
            solver,
            view=view,
            options=options,
            log=log,
            effective_program=effective_program,
            deletion_program=deletion_program,
            obs=obs,
        )
        self._durability = durability
        durability.bind(program, codec.report_digest(self.report))
        durability.attach_metrics(self._obs.metrics)
        durability.seed_candidate(
            self.view, self._effective_program, self._deletion_program
        )

    @property
    def durability(self) -> DurabilityManager:
        return self._durability

    def drain(self, limit: Optional[int] = None) -> Tuple[Transaction, ...]:
        transactions = super().drain(limit)
        if transactions:
            # The batch's trace was parked by the base drain; the WAL
            # append happens between drain and prepare, so its span hangs
            # directly off the trace root.
            with self._pending_trace_for(transactions).span("journal") as span:
                span.set(records=len(transactions))
                self._durability.journal(transactions)
        return transactions

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
        # Policy check off the commit lock, on the applying thread (the
        # serve layer's apply thread): disk I/O never blocks the event loop
        # or the commit pointer swap.  Runs before super() so a triggered
        # checkpoint lands inside the batch's trace before it seals.
        started = monotonic()
        info = self._durability.maybe_checkpoint()
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
            )
        super()._batch_epilogue(prepared)

    def checkpoint(self) -> Optional[CheckpointInfo]:
        """Force a snapshot of the latest clean commit."""
        return self._durability.checkpoint()

    def checkpoint_if_due(self) -> Optional[CheckpointInfo]:
        """The WAL-size policy seam the serve coordinator polls when idle."""
        return self._durability.maybe_checkpoint()


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
    2. replay the WAL tail -- every journaled batch whose transactions lie
       above the snapshot watermark -- through the ordinary
       ``prepare_batch``/``apply_prepared`` pipeline (coalescing is
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
        # ordinary pipeline (no re-journaling: drain() is not involved).
        scheduler.apply_batch(batch)
        replayed += 1
    scheduler._replayed_batches = replayed  # introspection for tests/benchmarks
    return scheduler
