"""The stream scheduler: one writer, one maintenance pass per batch.

``StreamScheduler`` owns a materialized view and applies drained update
batches to it with the batch entry points of the maintenance algorithms:

* all of a batch's deletions go through **one**
  :meth:`~repro.maintenance.delete_stdel.StraightDelete.delete_many` /
  :meth:`~repro.maintenance.delete_dred.ExtendedDRed.delete_many` pass (one
  ``P_OUT`` unfolding, one rename/simplify regime, one final purge, the
  child-support index shared across the whole batch);
* all of its insertions go through one
  :meth:`~repro.maintenance.insert.ConstrainedAtomInsertion.insert_many`
  pass (one ``P_ADD`` fixpoint seeded with every inserted atom);
* external change notices cost nothing: under the ``W_P`` reading of
  Section 4 the view is syntactically invariant (Theorem 4), so the
  scheduler only passes each notice on, through the solver, to the
  registry, which forgets the notified source and moves it to a new
  version -- the version every remembered DCA-dependent result is gated
  on.  A tracked source's own version already does this; the notice covers
  sources mutated behind the domain layer's back.

**A batch is its net effect.**  Every batch is coalesced first
(:mod:`repro.stream.coalesce`): the cancel/narrow pass is what makes
deletions-first-then-insertions reproduce the interleaved stream, and a
batch of one request is applied as it is.  This is the one write path for
updates of the first kind -- the CLI's ``delete`` / ``insert``, a
:class:`~repro.mediator.MediatedView`'s updates, the serve layer and WAL
replay all apply batches here -- and the one place each maintenance pass's
counters are mirrored into the metrics registry (the algorithms know no
registry).

**One writer.**  The paper's algorithms take one view and one update set
and return the next view, and so does a batch here.
:meth:`StreamScheduler.flush` holds the write lock from drain to commit: it
drains the log, coalesces the batch (:meth:`~StreamScheduler.prepare_batch`),
checks the published view out once to the union of the batch's write
closures (the analyzer's upward closures:
:meth:`~repro.datalog.view.MaterializedView.checkout` clones only the
shards the pass rewrites), runs the pass
(:meth:`~StreamScheduler.apply_prepared`), and commits with one pointer
swap of view and programs under the (tiny) commit lock.  Concurrent
flushes apply their batches one at a time in drain order, which is
transaction order.  Readers never take the write lock: a query served
mid-batch reads the complete pre-batch view.

**Whole or not at all.**  A batch whose pass raises publishes nothing and
edits no program; its :class:`BatchResult` is not ``ok`` and carries the
error, and nothing is retried.  A durable scheduler journals the batch at
commit, after the pass and just before the pointer swap, so its
write-ahead log holds exactly the committed batches.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.analysis import ProgramReport, analyze_program
from repro.constraints.solver import ConstraintSolver
from repro.datalog.fixpoint import compute_tp_fixpoint
from repro.datalog.join import EngineOptions
from repro.datalog.program import ConstrainedDatabase
from repro.datalog.view import MaterializedView
from repro.errors import MaintenanceError
from repro.sanitizer import sanitizer_enabled
from repro.maintenance.declarative import deletion_rewrite, insertion_rewrite
from repro.maintenance.delete_dred import ExtendedDRed
from repro.maintenance.delete_stdel import StraightDelete
from repro.maintenance.insert import ConstrainedAtomInsertion
from repro.maintenance.requests import MaintenanceStats
from repro.obs import Observability
from repro.obs.trace import NULL_TRACE, Trace
from repro.stream.coalesce import CoalescedBatch, CoalesceReport, Coalescer
from repro.stream.log import StreamPayload, Transaction, UpdateLog


#: The ``(effective, deletion)`` program pair a batch maintains against.
Programs = Tuple[ConstrainedDatabase, ConstrainedDatabase]


@dataclass(frozen=True)
class StreamOptions:
    """Tunable behaviour of the stream scheduler."""

    #: Deletion algorithm for the batched pass (``stdel`` or ``dred``).
    #: StDel runs against the *original* program (it never rederives, so the
    #: deletion rewrites are irrelevant to it -- the documented advantage);
    #: DRed runs against the threaded rewritten program it requires.
    deletion_algorithm: str = "stdel"
    #: Must be 1: a batch is one pass on the thread that flushes it.
    #: Nothing reads the field; it stays because the benchmark passes
    #: ``max_workers=1``.
    max_workers: int = 1
    #: The one engine configuration every maintenance pass runs with.
    engine: EngineOptions = EngineOptions()

    def __post_init__(self) -> None:
        if self.max_workers != 1:
            raise MaintenanceError(
                f"max_workers must be 1 (got {self.max_workers!r}): a batch "
                "is one pass on the thread that flushes it"
            )


@dataclass
class PassReport:
    """Outcome of one batch's maintenance pass (deletions, then insertions)."""

    deletions: int
    insertions: int
    #: Every predicate the pass was allowed to rewrite: its checkout scope,
    #: the union of the batch's write closures.
    write_closure: Tuple[str, ...]
    #: Why the pass raised (``None`` when it completed).
    error: Optional[str] = None
    stats: MaintenanceStats = field(default_factory=MaintenanceStats)
    seconds: float = 0.0
    #: Predicate shards the pass actually cloned (copy-on-write).
    #: Untouched predicates -- inside or outside the scope -- cost nothing.
    shard_checkouts: int = 0
    #: Always 1: a pass is attempted once.  The benchmark reads the field.
    attempts: int = 1

    @property
    def status(self) -> str:
        return "applied" if self.error is None else "failed"


@dataclass
class StreamStats:
    """Per-batch statistics of the stream scheduler."""

    #: Requests submitted to the batch (before coalescing).
    submitted: int = 0
    #: Requests that survived coalescing and were applied.
    applied: int = 0
    coalesce: CoalesceReport = field(default_factory=CoalesceReport)
    #: The batch's pass report: one item when it ran a pass, none for an
    #: empty or notice-only batch.  (The benchmark reads the name.)
    units: List[PassReport] = field(default_factory=list)
    #: External notices folded in (cost-free under ``W_P``).
    external_notices: int = 0
    #: Wall time :meth:`StreamScheduler.flush` waited for the write lock
    #: (another batch in flight).  Kept apart from :attr:`apply_seconds`
    #: so a batch queued behind another does not report inflated apply
    #: cost.
    queue_seconds: float = 0.0
    #: Wall time spent doing the batch's own work: coalescing, the
    #: maintenance pass, the journal and the commit pointer swap.
    apply_seconds: float = 0.0
    #: Total = queue + apply (the historical ``seconds`` reading).
    seconds: float = 0.0

    def totals(self) -> MaintenanceStats:
        """The pass's maintenance counters (zero when no pass ran)."""
        total = MaintenanceStats()
        for unit in self.units:
            total.merge(unit.stats)
        return total

    @property
    def derivation_attempts(self) -> int:
        return sum(unit.stats.derivation_attempts for unit in self.units)

    @property
    def solver_calls(self) -> int:
        return sum(unit.stats.solver_calls for unit in self.units)

    @property
    def shard_checkouts(self) -> int:
        """Predicate shards cloned (copy-on-write) by the batch's pass.

        The predicate-sharded store's headline number: bounded by the
        batch's write scope, independent of how many predicates the view
        holds -- untouched predicates are never copied.
        """
        return sum(unit.shard_checkouts for unit in self.units)

    def as_dict(self) -> Dict[str, object]:
        """Flat rendering for benchmark snapshots."""
        return {
            "submitted": self.submitted,
            "applied": self.applied,
            "units": len(self.units),
            "failed_units": sum(1 for unit in self.units if unit.status != "applied"),
            "external_notices": self.external_notices,
            "shard_checkouts": self.shard_checkouts,
            "queue_seconds": round(self.queue_seconds, 4),
            "apply_seconds": round(self.apply_seconds, 4),
            "seconds": round(self.seconds, 4),
            "coalesce": self.coalesce.as_dict(),
            "stats": self.totals().as_dict(),
        }


@dataclass
class BatchResult:
    """Outcome of applying one batch."""

    view: MaterializedView
    stats: StreamStats
    coalesced: CoalescedBatch

    @property
    def error(self) -> Optional[str]:
        """Why the batch's pass raised; ``None`` when the batch committed."""
        return next((unit.error for unit in self.stats.units if unit.error), None)

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class PreparedBatch:
    """A coalesced batch with its write scope, ready for its pass.

    Produced by :meth:`StreamScheduler.prepare_batch` and consumed by
    :meth:`StreamScheduler.apply_prepared`, both under the write lock.
    """

    coalesced: CoalescedBatch
    #: The batch's stats object; prepare fills the coalesce counters, apply
    #: fills the rest (shared by reference with the scheduler's history).
    stats: StreamStats
    #: Every predicate the pass may rewrite: the union of the requests'
    #: write closures (a predicate the program lacks is its own closure).
    write_scope: FrozenSet[str]
    #: Time spent inside prepare (coalescing); folded into
    #: :attr:`StreamStats.apply_seconds` when the batch applies.
    prepare_seconds: float
    #: Ids of the logged transactions in the batch (empty when the payloads
    #: were raw requests, e.g. direct ``apply_batch`` calls).  The
    #: durability layer advances its watermark to the last of them.
    txn_ids: Tuple[int, ...] = ()
    #: The batch's lifecycle trace (the no-op trace when tracing is off).
    #: Born at drain (or at prepare for raw batches), finished by the
    #: scheduler's batch epilogue.
    trace: Trace = NULL_TRACE
    #: The transactions :meth:`StreamScheduler.flush` drained for this
    #: batch -- what a durable scheduler journals at commit.  Empty for
    #: :meth:`StreamScheduler.apply_batch` (direct calls and WAL replay),
    #: which is never journaled.
    drained: Tuple[Transaction, ...] = ()


class StreamScheduler:
    """Maintains one materialized view across batched update streams."""

    def __init__(
        self,
        program: ConstrainedDatabase,
        solver: Optional[ConstraintSolver] = None,
        view: Optional[MaterializedView] = None,
        options: StreamOptions = StreamOptions(),
        log: Optional[UpdateLog] = None,
        effective_program: Optional[ConstrainedDatabase] = None,
        deletion_program: Optional[ConstrainedDatabase] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        if options.deletion_algorithm not in ("stdel", "dred"):
            raise MaintenanceError(
                f"unknown deletion algorithm {options.deletion_algorithm!r};"
                " use 'stdel' or 'dred'"
            )
        self._program = program
        self._solver = solver or ConstraintSolver()
        self._published = (
            view
            if view is not None
            else compute_tp_fixpoint(program, self._solver, options=options.engine)
        )
        # Static analysis once, up front: the scheduler consumes the report's
        # write closures as precomputed truth (no runtime dependency walks;
        # tests/analysis holds them to one).  Diagnostics are NOT gated here
        # -- the mediator builder fails fast on them; a bare scheduler only
        # needs the tables.
        self._report: ProgramReport = analyze_program(program)
        # Thread the interval-position table into the maintenance passes'
        # configuration (unless a caller pinned one explicitly).
        self._options = options = replace(
            options, engine=options.engine.with_report(self._report)
        )
        self._coalescer = Coalescer(self._solver)
        self._log = log if log is not None else UpdateLog()
        #: The program DRed deletions run against (threads the rewrites the
        #: algorithm's rederivation step requires; == original for StDel).
        #: Recovery passes the persisted rewritten program explicitly --
        #: starting from the base program would lose every pre-snapshot
        #: rewrite and let replayed insertions re-derive deleted instances.
        self._deletion_program = (
            deletion_program if deletion_program is not None else program
        )
        #: The original program composed with every applied rewrite -- the
        #: declarative semantics of everything applied so far (verify()).
        self._effective_program = (
            effective_program if effective_program is not None else program
        )
        # The write lock: one batch at a time, from drain to commit
        # (``flush`` and ``apply_batch`` hold it).  Readers never take it.
        self._write_lock = threading.Lock()
        # The commit lock: the pointer swap of view and programs (and any
        # reader needing a consistent view/program pair).  Held for O(1)
        # pointer work, never for maintenance.
        self._commit_lock = threading.Lock()
        self._batches: List[StreamStats] = []
        # Observability: one bundle threaded through every seam.
        self._obs = obs if obs is not None else Observability.disabled()

    # ------------------------------------------------------------------
    # Introspection & snapshot-isolated reads
    # ------------------------------------------------------------------
    @property
    def view(self) -> MaterializedView:
        """The last *published* view.

        Mid-batch this is still the complete pre-batch view (snapshot
        isolation): the scheduler works on a private checkout and swaps
        the reference only once the whole batch has applied.  Treat it as
        read-only.
        """
        return self._published

    def query(self, predicate: str, universe=None):
        """Ground instances of *predicate* from the published view."""
        return self._published.instances_for(
            predicate, solver=self._solver, universe=universe
        )

    @property
    def program(self) -> ConstrainedDatabase:
        return self._program

    @property
    def effective_program(self) -> ConstrainedDatabase:
        """Original program composed with every rewrite applied so far."""
        return self._effective_program

    @property
    def options(self) -> StreamOptions:
        return self._options

    @property
    def report(self) -> ProgramReport:
        """The static-analysis report the scheduler's tables come from."""
        return self._report

    @property
    def log(self) -> UpdateLog:
        """The transaction log this scheduler drains."""
        return self._log

    @property
    def batches(self) -> Tuple[StreamStats, ...]:
        """Per-batch statistics, in application order (failed batches too)."""
        return tuple(self._batches)

    @property
    def obs(self) -> Observability:
        """The observability bundle this scheduler reports into."""
        return self._obs

    @property
    def solver(self) -> ConstraintSolver:
        """The solver shared by maintenance passes and read queries."""
        return self._solver

    # ------------------------------------------------------------------
    # Submitting & applying
    # ------------------------------------------------------------------
    def submit(self, payload: StreamPayload) -> Transaction:
        """Log one request / notice for the next :meth:`flush`."""
        return self._log.append(payload)

    def flush(self, limit: Optional[int] = None) -> BatchResult:
        """Drain up to *limit* pending transactions and apply them as one batch.

        Holds the write lock from drain to commit, so concurrent flushes
        apply their batches one at a time, in the order they drained --
        transaction order.  The batch's trace is born here, at drain, and
        handed down; a durable scheduler journals the drained transactions
        at commit.
        """
        queued = time.perf_counter()
        with self._write_lock:
            waited = time.perf_counter() - queued
            trace = self._obs.start_trace("batch")
            span = trace.span("drain")
            transactions = self._log.drain(limit=limit)
            if transactions:
                span.set(
                    transactions=len(transactions),
                    txn_first=transactions[0].txn_id,
                    txn_last=transactions[-1].txn_id,
                ).finish()
            else:
                # Nothing drained: drop the trace unfinished (no span was
                # finished, so no event was emitted).
                trace = NULL_TRACE
            prepared = self.prepare_batch(transactions, trace)
            prepared.drained = transactions
            prepared.stats.queue_seconds = waited
            return self.apply_prepared(prepared)

    def apply_batch(self, payloads: Sequence[StreamPayload]) -> BatchResult:
        """Apply one ordered batch of requests / notices, under the write lock.

        The batch is coalesced to its net effect, maintained -- deletions
        first, then insertions, matching the net-effect construction of the
        coalescer -- and published atomically at the end.  Nothing is
        journaled: this is the path of direct callers (the CLI, a
        :class:`~repro.mediator.MediatedView`) and of WAL replay.
        """
        with self._write_lock:
            return self.apply_prepared(self.prepare_batch(payloads))

    def prepare_batch(
        self, payloads: Sequence[StreamPayload], trace: Optional[Trace] = None
    ) -> PreparedBatch:
        """Coalesce one batch to its net effect and compute its write scope.

        Called under the write lock by :meth:`flush` (which passes the trace
        it started at drain) and :meth:`apply_batch`; a non-empty batch
        without a trace gets a fresh one, just without a drain span, which
        is why trace verification takes a ``require_drain`` flag.
        """
        start = time.perf_counter()
        if trace is None:
            trace = self._obs.start_trace("batch") if payloads else NULL_TRACE
        stats = StreamStats()
        prepare_span = trace.span("prepare")
        coalesce_span = trace.span("coalesce", parent=prepare_span)
        coalesced = self._coalescer.coalesce(payloads)
        coalesce_span.set(
            raw_ops=coalesced.report.submitted,
            coalesced_ops=len(coalesced),
        ).finish()
        stats.coalesce = coalesced.report
        stats.submitted = coalesced.report.submitted
        stats.applied = len(coalesced)
        stats.external_notices = len(coalesced.notices)
        closures = self._report.write_closures
        write_scope = frozenset().union(
            *(
                closures.get(request.atom.predicate, (request.atom.predicate,))
                for request in itertools.chain(
                    coalesced.deletions, coalesced.insertions
                )
            )
        )
        prepare_seconds = time.perf_counter() - start
        prepare_span.set(write_scope=len(write_scope)).finish()
        return PreparedBatch(
            coalesced=coalesced,
            stats=stats,
            write_scope=write_scope,
            prepare_seconds=prepare_seconds,
            txn_ids=tuple(
                payload.txn_id
                for payload in payloads
                if isinstance(payload, Transaction)
            ),
            trace=trace,
        )

    def apply_prepared(self, prepared: PreparedBatch) -> BatchResult:
        """Run one prepared batch's pass and commit it -- or commit nothing.

        One deletion pass and one insertion pass over the whole coalesced
        batch, on the published view checked out once to the batch's write
        scope.  If the pass raises, nothing is published, edited or
        journaled, and the result is not ``ok``; a failure of the journal
        or the commit propagates to the caller, like a crash.
        """
        stats, trace, coalesced = prepared.stats, prepared.trace, prepared.coalesced
        started = time.perf_counter()
        # External changes first: the batch must be maintained against
        # the sources' *current* behaviour.  A tracked source's version
        # already invalidates what was remembered of it; the notice is
        # what reaches a source mutated behind the registry's back.
        for notice in coalesced.notices:
            self._solver.invalidate_external_functions(notice.source)
        with self._commit_lock:
            base = self._published
            programs: Programs = (self._effective_program, self._deletion_program)

        apply_span = trace.span("apply")
        working = base
        if coalesced.deletions or coalesced.insertions:
            scope = tuple(sorted(prepared.write_scope))
            report = PassReport(
                deletions=len(coalesced.deletions),
                insertions=len(coalesced.insertions),
                write_closure=scope,
            )
            checkout = base.checkout(scope)
            try:
                working, report.stats, programs = self._run_pass(
                    checkout, coalesced, programs, scope
                )
            except Exception as exc:  # the batch fails whole, once
                report.error = f"{type(exc).__name__}: {exc}"
                apply_span.fail(report.error)
            else:
                # The counter is carried through ``copy()``, so the
                # difference is exactly this pass's own clones.
                report.shard_checkouts = (
                    working.shard_checkouts - checkout.shard_checkouts
                )
            report.seconds = time.perf_counter() - started
            stats.units.append(report)
            # Counter deltas come from the same stats object StreamStats
            # sums, so span deltas reconcile with scheduler totals exactly,
            # by construction.
            apply_span.set(
                deletions=report.deletions,
                insertions=report.insertions,
                status=report.status,
                solver_calls=report.stats.solver_calls,
                derivation_attempts=report.stats.derivation_attempts,
                shard_checkouts=report.shard_checkouts,
            )
        apply_span.finish()
        result = BatchResult(base, stats, coalesced)
        if result.ok:
            result.view = self._commit(base, working, programs, prepared)
        self._batches.append(stats)
        stats.apply_seconds = prepared.prepare_seconds + (
            time.perf_counter() - started
        )
        stats.seconds = stats.queue_seconds + stats.apply_seconds
        self._batch_epilogue(prepared)
        return result

    def _batch_epilogue(self, prepared: PreparedBatch) -> None:
        """Called once per batch after apply completes (timings final).

        The durability subclass interposes here to run its checkpoint
        policy inside the batch's trace before the trace seals.  The base
        implementation records the batch's metrics, finishes the trace,
        and applies the slow-batch policy."""
        stats = prepared.stats
        failed = sum(1 for unit in stats.units if unit.status != "applied")
        metrics = self._obs.metrics
        if metrics.enabled:
            metrics.inc("repro_batches_total")
            metrics.inc("repro_updates_applied_total", stats.applied)
            metrics.observe("repro_batch_seconds", stats.seconds)
            metrics.observe("repro_batch_queue_seconds", stats.queue_seconds)
            metrics.observe("repro_batch_apply_seconds", stats.apply_seconds)
            for unit in stats.units:
                metrics.inc("repro_units_total", status=unit.status)
            if stats.shard_checkouts:
                metrics.inc(
                    "repro_shard_checkouts_total", stats.shard_checkouts
                )
            # Mirror the hash-consing tables and the read path's counters
            # once per batch: both layers keep their own monotonic totals,
            # so this is a cheap absolute-value sync, not a hot-path hook.
            metrics.record_intern()
            metrics.record_domains(self._solver)
        trace = prepared.trace
        # Totals on the root are a convenience reading; reconciliation sums
        # the apply span (TraceView.counter_totals skips roots).
        trace.root.set(
            applied=stats.applied,
            units=len(stats.units),
            failed=failed,
            solver_calls=stats.solver_calls,
            derivation_attempts=stats.derivation_attempts,
            shard_checkouts=stats.shard_checkouts,
        )
        if failed:
            trace.root.fail("the batch's pass raised; nothing committed")
        trace.finish()
        self._obs.note_slow_batch(
            stats.seconds,
            trace=trace.trace_id,
            applied=stats.applied,
            units=len(stats.units),
        )

    def verify(self, universe=None) -> bool:
        """Cross-check the published view against the effective program.

        Recomputes ``T_P_effective`` from scratch and compares instance sets
        -- the executable form of Theorems 1-3 for the whole stream.
        Expensive; for tests and audits.
        """
        from repro.maintenance.baselines import full_recompute

        # One atomic (view, program) pair: reading the two attributes
        # separately races a concurrent commit into a torn snapshot (a
        # pre-batch view checked against a post-batch program).
        published, effective = self.snapshot_state()
        expected = full_recompute(effective, self._solver).view
        return published.instances(
            self._solver, universe
        ) == expected.instances(self._solver, universe)

    def snapshot_state(self) -> Tuple[MaterializedView, ConstrainedDatabase]:
        """An atomically consistent (published view, effective program) pair.

        Readers pairing the view with the program it satisfies must come
        through here; the commit step swaps both under the same lock.
        """
        with self._commit_lock:
            return self._published, self._effective_program

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------
    def _commit(
        self,
        base: MaterializedView,
        working: MaterializedView,
        programs: Programs,
        prepared: PreparedBatch,
    ) -> MaterializedView:
        """Journal the batch, then swap in its view and programs by pointer.

        The write lock keeps every other batch out, so the published view
        is still ``base``; if it is not, publishing ``working`` would drop
        whatever was published in between, and the commit raises instead.

        Under the shard sanitizer every commit that changes the view first
        checks that ``working`` diverges from ``base`` only in the batch's
        write scope and that no shard of ``base`` changed after it was
        shared: either would be a write the commit silently publishes.

        The journal (:meth:`_journal`) is the last step that can fail before
        the swap: a batch on disk is a batch the writer published.
        """
        if working is not base and sanitizer_enabled():
            working.assert_publish_scope(base, prepared.write_scope)
        if self._published is not base:
            raise MaintenanceError(
                "lost write: the published view changed while the batch applied"
            )
        self._journal(prepared)
        span = prepared.trace.span("commit")
        with self._commit_lock:
            if working is not base:
                self._published = working.without_write_scope()
            self._effective_program, self._deletion_program = programs
            self._commit_hook(prepared, self._published)
        span.set(shards=len(prepared.write_scope)).finish()
        return self._published

    def _journal(self, prepared: PreparedBatch) -> None:
        """Make the batch durable before it is published.

        Called after the pass and the sanitizer's publish check, before the
        pointer swap; the durability layer's scheduler appends
        ``prepared.drained`` to its write-ahead log here.  The base
        implementation does nothing."""

    def _commit_hook(
        self, prepared: PreparedBatch, next_view: MaterializedView
    ) -> None:
        """Called under the commit lock after every batch commits.

        The published view, effective program and deletion program are all
        current when this runs, so an override observes an atomically
        consistent post-commit state -- the durability layer uses it to
        advance its watermark and capture the checkpoint candidate.  The
        base implementation does nothing.  Overrides must stay cheap and
        must not call back into the scheduler: the commit lock is held."""

    # ------------------------------------------------------------------
    # The pass
    # ------------------------------------------------------------------
    def _run_pass(
        self,
        base: MaterializedView,
        coalesced: CoalescedBatch,
        programs: Programs,
        scope: Tuple[str, ...],
    ) -> Tuple[MaterializedView, MaintenanceStats, Programs]:
        """At most one batched deletion pass, then one insertion pass.

        Returns ``(view, stats, programs)``.  The batch's program edits are
        computed here, once -- the scheduler's only calls of the rewrites:
        the insertion pass needs the deletion rewrites anyway, and the
        commit takes the result over.
        """
        stats = MaintenanceStats()
        metrics = self._obs.metrics
        effective, deletion = programs
        if coalesced.deletions:
            # The purge is restricted to the batch's write scope: the
            # published view carries no unsolvable entries, so only entries
            # this batch's propagation can touch need the final
            # solvability check.
            algorithm = self._options.deletion_algorithm
            if algorithm == "stdel":
                del_result = StraightDelete(
                    self._program, self._solver, self._options.engine
                ).delete_many(base, coalesced.deletions, purge_predicates=scope)
            else:
                del_result = ExtendedDRed(
                    deletion, self._solver, self._options.engine
                ).delete_many(base, coalesced.deletions, purge_predicates=scope)
                if del_result.del_atoms:
                    # StDel needs no threaded rewrite for its own deletions.
                    deletion = deletion_rewrite(deletion, tuple(del_result.del_atoms))
            metrics.record_maintenance(algorithm, del_result.stats)
            base = del_result.view
            stats.merge(del_result.stats)
            effective = deletion_rewrite(
                effective, tuple(request.atom for request in coalesced.deletions)
            )
        if coalesced.insertions:
            # The P_ADD unfolding must run against the program carrying
            # every deletion rewrite applied so far -- previous batches'
            # (already in the effective program) AND this batch's own, which
            # precede the insertions in batch order -- or it would re-derive
            # instances those deletions removed.
            ins_result = ConstrainedAtomInsertion(
                effective, self._solver, self._options.engine
            ).insert_many(base, coalesced.insertions)
            metrics.record_maintenance("insert", ins_result.stats)
            base = ins_result.view
            stats.merge(ins_result.stats)
            if ins_result.add_atoms:
                effective = insertion_rewrite(effective, tuple(ins_result.add_atoms))
        return base, stats, (effective, deletion)
