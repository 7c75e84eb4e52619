"""The stream scheduler: one maintenance pass per algorithm per batch.

``StreamScheduler`` owns a materialized view and applies drained update
batches to it with the batch entry points of the maintenance algorithms:

* all of a unit's deletions go through **one**
  :meth:`~repro.maintenance.delete_stdel.StraightDelete.delete_many` /
  :meth:`~repro.maintenance.delete_dred.ExtendedDRed.delete_many` pass (one
  ``P_OUT`` unfolding, one rename/simplify regime, one final purge, the
  child-support index shared across the whole batch);
* all of a unit's insertions go through one
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

Independent strata (disjoint upward closures, see
:mod:`repro.stream.strata`) are applied as separate units, one after another
on the thread that applies the batch, and each unit is individually retried
and reported.  Each unit *checks out* exactly the shards of its write
closure from the view the previous unit left
(:meth:`~repro.datalog.view.MaterializedView.checkout`): copy-on-write
clones only the shards the unit actually rewrites, and the last applied
unit's view is the batch's next view -- no whole-view copy, no
entry-by-entry merge.  Readers are snapshot-isolated: the scheduler
publishes a new view reference only after the whole batch applied, so a
query served mid-batch sees the complete pre-batch view.

**Batch pipeline.**  Applying a batch is two stages with separate locks:

1. *Prepare* (:meth:`StreamScheduler.prepare_batch`, under the coalesce
   lock): compute the batch's net effect, partition it into stratum units
   and take a ticket.  Preparing batch ``n+1`` runs concurrently with
   applying batch ``n`` -- the coalescer never waits for a maintenance
   pass.
2. *Apply* (:meth:`StreamScheduler.apply_prepared`): wait at the turnstile
   until every earlier ticket is released, run the units against the
   published view, and commit with a single pointer swap under the (tiny)
   commit lock.

Batches apply **one at a time, in prepare order**: the paper's algorithms
take one view and one update set and return the next view, so the
mediator is one logical writer.  Each commit publishes the view its own
units left and the program pair they rewrote, by pointer; the published
sequence of views is the stream's.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis import ProgramReport, analyze_program
from repro.constraints.solver import ConstraintSolver
from repro.datalog.fixpoint import compute_tp_fixpoint
from repro.datalog.join import EngineOptions
from repro.datalog.program import ConstrainedDatabase
from repro.datalog.view import MaterializedView
from repro.errors import MaintenanceError, ShardSanitizerError, WriteScopeError
from repro.sanitizer import sanitizer_enabled
from repro.maintenance.declarative import deletion_rewrite, insertion_rewrite
from repro.maintenance.delete_dred import ExtendedDRed
from repro.maintenance.delete_stdel import StraightDelete
from repro.maintenance.insert import ConstrainedAtomInsertion
from repro.maintenance.requests import MaintenanceStats
from repro.obs import Observability
from repro.obs.trace import NULL_TRACE, Span, Trace
from repro.stream.coalesce import CoalescedBatch, CoalesceReport, Coalescer
from repro.stream.log import StreamPayload, Transaction, UpdateLog
from repro.stream.strata import PredicateStrata, StratumUnit


#: The ``(effective, deletion)`` program pair a batch maintains against.
Programs = Tuple[ConstrainedDatabase, ConstrainedDatabase]


def _edit_programs(programs: Programs, edits: Sequence[Tuple[str, Tuple]]) -> Programs:
    """Apply ``(kind, atoms)`` program edits, in order.

    ``"deletion"`` rewrites the DRed deletion program by its ``Del`` atoms,
    ``"effective_delete"`` / ``"effective_insert"`` the effective program by
    the requested atoms / the ``Add`` atoms.  The scheduler's only calls of
    the rewrites: everything that edits a program comes through here.
    """
    effective, deletion = programs
    for kind, atoms in edits:
        if kind == "deletion":
            deletion = deletion_rewrite(deletion, atoms)
        elif kind == "effective_delete":
            effective = deletion_rewrite(effective, atoms)
        else:
            effective = insertion_rewrite(effective, atoms)
    return effective, deletion


@dataclass(frozen=True)
class StreamOptions:
    """Tunable behaviour of the stream scheduler."""

    #: Deletion algorithm for the batched pass (``stdel`` or ``dred``).
    #: StDel runs against the *original* program (it never rederives, so the
    #: deletion rewrites are irrelevant to it -- the documented advantage);
    #: DRed runs against the threaded rewritten program it requires.
    deletion_algorithm: str = "stdel"
    #: Must be 1: a batch's units run one after another on the applying
    #: thread.  Nothing reads the field; it stays because the benchmark
    #: passes ``max_workers=1``.
    max_workers: int = 1
    #: How often a failing unit is attempted before it is reported failed.
    max_unit_attempts: int = 2
    #: The one engine configuration every maintenance pass runs with.
    engine: EngineOptions = EngineOptions()

    def __post_init__(self) -> None:
        if self.max_workers != 1:
            raise MaintenanceError(
                f"max_workers must be 1 (got {self.max_workers!r}): a batch's "
                "stratum units are applied one after another"
            )


@dataclass
class UnitReport:
    """Outcome of one stratum unit of one batch."""

    description: str
    predicates: Tuple[str, ...]
    strata: Tuple[int, ...]
    deletions: int
    insertions: int
    #: How many times the unit was attempted (1 = first try succeeded).
    attempts: int
    status: str  # "applied" | "failed"
    error: Optional[str] = None
    stats: MaintenanceStats = field(default_factory=MaintenanceStats)
    seconds: float = 0.0
    #: Every predicate the unit was allowed to rewrite (its checkout scope).
    write_closure: Tuple[str, ...] = ()
    #: Predicate shards the unit's passes actually cloned (copy-on-write).
    #: Untouched predicates -- inside or outside the closure -- cost nothing.
    shard_checkouts: int = 0


@dataclass
class StreamStats:
    """Per-batch statistics of the stream scheduler."""

    #: Requests submitted to the batch (before coalescing).
    submitted: int = 0
    #: Requests that survived coalescing and were applied.
    applied: int = 0
    coalesce: CoalesceReport = field(default_factory=CoalesceReport)
    units: List[UnitReport] = field(default_factory=list)
    #: External notices folded in (cost-free under ``W_P``).
    external_notices: int = 0
    #: Wall time spent *waiting* -- coalesce-lock wait plus the turnstile
    #: wait behind earlier batches.  Kept apart from
    #: :attr:`apply_seconds` so a batch queued behind another does not
    #: report inflated apply cost.
    queue_seconds: float = 0.0
    #: Wall time spent doing the batch's own work: coalescing, the
    #: maintenance passes, and the commit pointer swap.
    apply_seconds: float = 0.0
    #: Total = queue + apply (the historical ``seconds`` reading).
    seconds: float = 0.0

    def totals(self) -> MaintenanceStats:
        """All units' maintenance counters, summed."""
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
        """Predicate shards cloned (copy-on-write) across the batch's units.

        The predicate-sharded store's headline number: bounded by the units'
        write closures, independent of how many predicates the view holds --
        untouched predicates are never copied.
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
    def failed_units(self) -> Tuple[UnitReport, ...]:
        return tuple(
            unit for unit in self.stats.units if unit.status != "applied"
        )

    @property
    def ok(self) -> bool:
        return not self.failed_units


@dataclass
class PreparedBatch:
    """A coalesced, partitioned batch holding a turnstile ticket.

    Produced by :meth:`StreamScheduler.prepare_batch` (stage 1 of the
    pipeline) and consumed exactly once by
    :meth:`StreamScheduler.apply_prepared`.  Until then, the ticket holds
    back every later batch, so a prepared batch must not be parked
    indefinitely.
    """

    coalesced: CoalescedBatch
    #: The net effect's stratum units, in application order.
    units: Tuple[StratumUnit, ...]
    #: The batch's stats object; prepare fills the coalesce counters, apply
    #: fills the rest (shared by reference with the scheduler's history).
    stats: StreamStats
    #: Turnstile ticket: batches apply in ticket order, which is prepare
    #: order.
    ticket: int
    #: Time spent inside prepare (coalescing + partitioning); folded into
    #: :attr:`StreamStats.apply_seconds` when the batch applies.
    prepare_seconds: float
    #: Ids of the logged transactions this batch drains (empty when the
    #: payloads were raw requests, e.g. direct ``apply_batch`` calls).  The
    #: durability layer marks these committed -- and advances the snapshot
    #: watermark -- from the commit hook.
    txn_ids: Tuple[int, ...] = ()
    #: The batch's lifecycle trace (the no-op trace when tracing is off).
    #: Born at drain (or at prepare for raw batches), finished by the
    #: scheduler's batch epilogue after commit.
    trace: Trace = NULL_TRACE

    def __len__(self) -> int:
        return len(self.coalesced)


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
        # write closures and SCCs as precomputed truth (no
        # runtime dependency walks; under the sanitizer the walks come back
        # as audits).  Diagnostics are NOT gated here -- the mediator builder
        # fails fast on them; a bare scheduler only needs the tables.
        self._report: ProgramReport = analyze_program(program)
        self._strata = PredicateStrata.from_report(program, self._report)
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
        # Stage-1 lock: coalescing + partitioning (prepare_batch).  Held
        # only while computing a batch's net effect -- never during a
        # maintenance pass, so batch n+1 coalesces while batch n applies.
        self._coalesce_lock = threading.Lock()
        # Stage-2 lock: the commit pointer swap of view and programs (and
        # any reader needing a consistent view/program pair).  Held for
        # O(1) pointer work, never for maintenance.
        self._commit_lock = threading.Lock()
        # The turnstile: prepared batches carry tickets (prepare order); a
        # batch applies once every earlier ticket is released.
        self._turnstile = threading.Condition()
        self._tickets = itertools.count(1)
        self._outstanding: Set[int] = set()
        self._batches: List[StreamStats] = []
        # Observability: one bundle threaded through every seam.  Traces
        # created at drain wait here (keyed by first txn id) for the
        # prepare stage to claim -- drain and prepare may run on different
        # threads (the serve layer's writer pipeline).
        self._obs = obs if obs is not None else Observability.disabled()
        self._trace_lock = threading.Lock()
        self._pending_traces: Dict[int, Trace] = {}

    # ------------------------------------------------------------------
    # Introspection & snapshot-isolated reads
    # ------------------------------------------------------------------
    @property
    def view(self) -> MaterializedView:
        """The last *published* view.

        Mid-batch this is still the complete pre-batch view (snapshot
        isolation): the scheduler works on private copies and swaps the
        reference only once the whole batch has applied.  Treat it as
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
        """Per-batch statistics, in application order."""
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

    def drain(self, limit: Optional[int] = None) -> Tuple[Transaction, ...]:
        """Consume the log's pending transactions for one batch.

        The single seam between the update log and the batch pipeline: the
        serve layer's writer and :meth:`flush` both come through here, so a
        subclass that journals drained batches (the durability layer's
        scheduler) interposes once and covers every write path.

        The batch's trace is born here -- drain is the first thing that
        happens to a batch -- and parked until :meth:`prepare_batch` claims
        it by the first transaction id (the serve writer drains and
        prepares on different pool threads).
        """
        trace = self._obs.start_trace("batch")
        span = trace.span("drain")
        transactions = self._log.drain(limit=limit)
        if not transactions:
            # Nothing drained: drop the trace unfinished (no span was
            # finished, so no event was emitted).
            return transactions
        span.set(
            transactions=len(transactions),
            txn_first=transactions[0].txn_id,
            txn_last=transactions[-1].txn_id,
        ).finish()
        with self._trace_lock:
            self._pending_traces[transactions[0].txn_id] = trace
        return transactions

    def _pending_trace_for(self, transactions: Sequence[Transaction]) -> Trace:
        """Peek (without claiming) the trace a drain parked for a batch.

        The durability subclass wraps its WAL append in a child span while
        the batch is between drain and prepare."""
        with self._trace_lock:
            return self._pending_traces.get(transactions[0].txn_id, NULL_TRACE)

    def _trace_for_payloads(self, payloads: Sequence[StreamPayload]) -> Trace:
        """Claim the batch's parked trace, or start one for raw payloads.

        Batches that bypass drain (direct ``apply_batch`` calls, recovery
        replay) still get a trace -- just without a drain span, which is
        why trace verification takes a ``require_drain`` flag."""
        if not payloads:
            return NULL_TRACE
        first = payloads[0]
        if isinstance(first, Transaction):
            with self._trace_lock:
                trace = self._pending_traces.pop(first.txn_id, None)
            if trace is not None:
                return trace
        return self._obs.start_trace("batch")

    def flush(self) -> BatchResult:
        """Drain the log and apply the pending transactions as one batch."""
        return self.apply_batch(self.drain())

    def apply_batch(self, payloads: Sequence[StreamPayload]) -> BatchResult:
        """Apply one ordered batch of requests / notices.

        The batch is coalesced to its net effect, partitioned into
        independent stratum units, applied -- deletions first, then
        insertions, matching the net-effect construction of the coalescer --
        and published atomically at the end.  Equivalent to
        :meth:`prepare_batch` immediately followed by
        :meth:`apply_prepared`; callers that want the two stages pipelined
        (the serve layer's writer) call them separately.
        """
        return self.apply_prepared(self.prepare_batch(payloads))

    def prepare_batch(self, payloads: Sequence[StreamPayload]) -> PreparedBatch:
        """Stage 1: coalesce, partition, and take a ticket for one batch.

        Runs under the coalesce lock only -- preparing the next batch never
        waits for an in-flight maintenance pass.  The returned batch holds
        a ticket in prepare order; it must be handed to
        :meth:`apply_prepared` because the ticket holds back every later
        batch until released.
        """
        queued = time.perf_counter()
        with self._coalesce_lock:
            start = time.perf_counter()
            stats = StreamStats()
            stats.queue_seconds = start - queued
            trace = self._trace_for_payloads(payloads)
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
            units = self._strata.partition(coalesced.deletions, coalesced.insertions)
            prepare_seconds = time.perf_counter() - start
            prepare_span.set(units=len(units)).finish()
            metrics = self._obs.metrics
            if metrics.enabled:
                metrics.inc("repro_batches_prepared_total")
                metrics.observe("repro_prepare_seconds", prepare_seconds)
            txn_ids = tuple(
                payload.txn_id
                for payload in payloads
                if isinstance(payload, Transaction)
            )
            # The ticket comes last, so a prepare that raised holds back no
            # later batch, and before the coalesce lock is released, so
            # ticket order is exactly prepare order.
            return PreparedBatch(
                coalesced=coalesced,
                units=units,
                stats=stats,
                ticket=self._take_ticket(),
                prepare_seconds=prepare_seconds,
                txn_ids=txn_ids,
                trace=trace,
            )

    def apply_prepared(self, prepared: PreparedBatch) -> BatchResult:
        """Stage 2: admit, run the units, and commit one prepared batch.

        Blocks until every earlier ticket is released, so batches apply
        one at a time in prepare order.  A batch whose ticket was already
        applied raises :class:`~repro.errors.MaintenanceError`.
        """
        stats = prepared.stats
        trace = prepared.trace
        queued = time.perf_counter()
        admit_span = trace.span("admit")
        self._await_turn(prepared.ticket)
        admitted = time.perf_counter()
        stats.queue_seconds += admitted - queued
        admit_span.set(ticket=prepared.ticket).finish()
        try:
            coalesced = prepared.coalesced
            apply_span = trace.span("apply")

            # External changes first: the batch must be maintained against
            # the sources' *current* behaviour.  A tracked source's version
            # already invalidates what was remembered of it; the notice is
            # what reaches a source mutated behind the registry's back.
            for notice in coalesced.notices:
                self._solver.invalidate_external_functions(notice.source)

            # The (view, programs) pair to maintain against.  No other
            # batch commits until this one releases its ticket.
            with self._commit_lock:
                base = self._published
                programs: Programs = (
                    self._effective_program,
                    self._deletion_program,
                )

            # The units, one after another: each checks out the view and
            # programs the last applied unit left, so the last applied
            # unit's result is the batch's (a failed unit hands back what
            # it was given and its edits are dropped).
            working = base
            written: Set[str] = set()
            for unit in prepared.units:
                view, report, unit_programs = self._apply_unit_with_retry(
                    working.checkout(unit.write_closure),
                    unit,
                    programs,
                    trace,
                    apply_span,
                )
                stats.units.append(report)
                if report.status != "applied":
                    continue
                working = view
                written.update(unit.write_closure)
                programs = unit_programs

            apply_span.set(
                units=len(stats.units),
                failed=sum(1 for unit in stats.units if unit.status != "applied"),
            ).finish()
            commit_span = trace.span("commit")
            next_view = self._commit(base, working, written, programs, prepared)
            commit_span.set(shards=len(written)).finish()
        finally:
            self._release_ticket(prepared.ticket)
        stats.apply_seconds = prepared.prepare_seconds + (
            time.perf_counter() - admitted
        )
        stats.seconds = stats.queue_seconds + stats.apply_seconds
        self._batch_epilogue(prepared)
        return BatchResult(next_view, stats, prepared.coalesced)

    def _batch_epilogue(self, prepared: PreparedBatch) -> None:
        """Called once per batch after apply completes (timings final).

        The durability subclass interposes here to run its checkpoint
        policy inside the batch's trace before the trace seals.  The base
        implementation records the batch's metrics, finishes the trace,
        and applies the slow-batch policy."""
        stats = prepared.stats
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
        # the unit spans (TraceView.counter_totals skips roots).
        trace.root.set(
            applied=stats.applied,
            units=len(stats.units),
            failed=sum(1 for unit in stats.units if unit.status != "applied"),
            solver_calls=stats.solver_calls,
            derivation_attempts=stats.derivation_attempts,
            shard_checkouts=stats.shard_checkouts,
        )
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
    # Turnstile & commit
    # ------------------------------------------------------------------
    def _take_ticket(self) -> int:
        with self._turnstile:
            ticket = next(self._tickets)
            self._outstanding.add(ticket)
            return ticket

    def _await_turn(self, ticket: int) -> None:
        """Block until every earlier ticket is released.

        A ticket only ever waits on strictly earlier tickets, so the
        turnstile is deadlock-free as long as every prepared batch is
        applied, and batches apply in prepare order.
        """
        with self._turnstile:
            if ticket not in self._outstanding:
                raise MaintenanceError(
                    f"prepared batch (ticket {ticket}) was already applied"
                )
            while min(self._outstanding) < ticket:
                self._turnstile.wait()

    def _release_ticket(self, ticket: int) -> None:
        with self._turnstile:
            self._outstanding.discard(ticket)
            self._turnstile.notify_all()

    def _commit(
        self,
        base: MaterializedView,
        working: MaterializedView,
        written: Set[str],
        programs: Programs,
        prepared: PreparedBatch,
    ) -> MaterializedView:
        """Swap in the batch's view and its programs, both by pointer.

        Nothing else commits while a batch holds its turn, so the published
        view is still ``base``; if it is not, publishing ``working`` would
        drop whatever was published in between, and the commit raises
        instead.

        Under the shard sanitizer every commit that changes the view first
        checks that ``working`` diverges from ``base`` only in *written*
        and that no shard of ``base`` changed after it was shared: either
        would be a write the commit silently publishes.
        """
        if working is not base and sanitizer_enabled():
            working.assert_publish_scope(base, written)
        with self._commit_lock:
            if self._published is not base:
                raise MaintenanceError(
                    f"lost write: the published view changed while batch "
                    f"(ticket {prepared.ticket}) applied"
                )
            # When no unit applied the view stays as it was, but the
            # failed-unit stats still land in the history below.
            if working is not base:
                self._published = working.without_write_scope()
            self._effective_program, self._deletion_program = programs
            self._batches.append(prepared.stats)
            self._commit_hook(prepared, self._published)
            return self._published

    def _commit_hook(
        self, prepared: PreparedBatch, next_view: MaterializedView
    ) -> None:
        """Called under the commit lock after every batch commits.

        The published view, effective program and deletion program are all
        current when this runs, so an override observes an atomically
        consistent post-commit state -- the durability layer uses it to
        mark the batch's transactions committed and capture checkpoint
        candidates.  The base implementation does nothing.  Overrides must
        stay cheap and must not call back into the scheduler: the commit
        lock is held."""

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _apply_unit_with_retry(
        self,
        base: MaterializedView,
        unit: StratumUnit,
        programs: Programs,
        trace: Trace,
        parent: Span,
    ) -> tuple:
        """Run one unit up to ``max_unit_attempts`` times.

        Returns ``(view, report, programs)``; a failed unit returns its
        base view and no programs.
        """
        attempts = 0
        error: Optional[str] = None
        outcome: Optional[tuple] = None
        started = time.perf_counter()
        span = trace.span("unit", parent=parent)
        while outcome is None and attempts < max(1, self._options.max_unit_attempts):
            attempts += 1
            try:
                outcome = self._apply_unit(base, unit, programs)
            except (WriteScopeError, ShardSanitizerError) as exc:
                # Sanitizer verdicts are deterministic facts about the code,
                # not transient unit failures: retrying would only repeat
                # (or worse, mask) the illegal write.  Fail the unit now.
                error = f"{type(exc).__name__}: {exc}"
                break
            except Exception as exc:  # individually retryable by design
                error = f"{type(exc).__name__}: {exc}"
        if outcome is None:
            # A failed unit's attempts were discarded: it hands back its
            # base view, and its report and span carry zero counters, so
            # reconciliation with StreamStats stays exact.
            view, stats, after = base, MaintenanceStats(), None
            span.fail(str(error))
        else:
            view, stats, after = outcome
            error = None
        report = UnitReport(
            description=unit.describe(),
            predicates=tuple(sorted(unit.predicates)),
            strata=unit.strata,
            deletions=len(unit.deletions),
            insertions=len(unit.insertions),
            attempts=attempts,
            status="failed" if outcome is None else "applied",
            error=error,
            stats=stats,
            seconds=time.perf_counter() - started,
            write_closure=tuple(sorted(unit.write_closure)),
            # Copy-on-write clones this unit's passes made on top of the
            # checkout it was handed (the counter is carried through
            # ``copy()``, so the difference is exactly this unit's own).
            shard_checkouts=view.shard_checkouts - base.shard_checkouts,
        )
        # Counter deltas come from the same stats object StreamStats sums,
        # so span deltas reconcile with scheduler totals exactly, by
        # construction.
        span.set(
            unit=report.description,
            attempts=attempts,
            status=report.status,
            solver_calls=stats.solver_calls,
            derivation_attempts=stats.derivation_attempts,
            shard_checkouts=report.shard_checkouts,
        ).finish()
        return (view, report, after)

    def _apply_unit(
        self,
        base: MaterializedView,
        unit: StratumUnit,
        programs: Programs,
    ) -> tuple:
        """One unit = at most one batched deletion pass + one insertion pass.

        Returns ``(view, stats, programs)``.  The unit's program edits are
        computed here, once: the insertion pass needs the deletion rewrites
        anyway, and the batch and the commit take the result over.
        """
        stats = MaintenanceStats()
        metrics = self._obs.metrics
        current = base
        after = programs
        if unit.deletions:
            edits: List[Tuple[str, Tuple]] = []
            # The purge is restricted to the unit's write closure: the
            # published view carries no unsolvable entries, so only entries
            # this unit's propagation can touch need the final solvability
            # check.
            purge = tuple(sorted(unit.write_closure))
            algorithm = self._options.deletion_algorithm
            if algorithm == "stdel":
                del_result = StraightDelete(
                    self._program, self._solver, self._options.engine
                ).delete_many(current, unit.deletions, purge_predicates=purge)
            else:
                del_result = ExtendedDRed(
                    programs[1], self._solver, self._options.engine
                ).delete_many(current, unit.deletions, purge_predicates=purge)
                if del_result.del_atoms:
                    # StDel needs no threaded rewrite for its own deletions.
                    edits.append(("deletion", tuple(del_result.del_atoms)))
            metrics.record_maintenance(algorithm, del_result.stats)
            current = del_result.view
            stats.merge(del_result.stats)
            edits.append(
                ("effective_delete", tuple(request.atom for request in unit.deletions))
            )
            after = _edit_programs(programs, edits)
        if unit.insertions:
            # The P_ADD unfolding must run against the program carrying
            # every deletion rewrite applied so far -- previous batches'
            # (already in the effective program) AND this unit's own, which
            # precede the insertions in batch order -- or it would re-derive
            # instances those deletions removed.  The batch's other units'
            # deletions rewrite clauses outside this unit's closure and
            # cannot affect its unfolding.
            ins_result = ConstrainedAtomInsertion(
                after[0], self._solver, self._options.engine
            ).insert_many(current, unit.insertions)
            metrics.record_maintenance("insert", ins_result.stats)
            current = ins_result.view
            stats.merge(ins_result.stats)
            if ins_result.add_atoms:
                after = _edit_programs(
                    after, [("effective_insert", tuple(ins_result.add_atoms))]
                )
        return current, stats, after
