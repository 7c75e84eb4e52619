"""Applying whole streams of view updates.

The paper treats one update at a time; real maintenance workloads apply
*streams* of deletions and insertions.  :class:`ViewMaintainer` keeps the
bookkeeping straight across a stream:

* it tracks the *effective program* -- the original constrained database
  composed with the deletion/insertion rewrites applied so far -- which is
  what gives a sequence of updates a single declarative semantics
  (``T_P_effective ↑ ω``), and what Extended DRed's rederivation step needs
  (see :mod:`repro.maintenance.delete_dred`);
* it lets the caller choose the deletion algorithm per stream;
* it accumulates the per-update statistics so benchmarks and operators can
  see where time went.

Since the update-stream subsystem landed, the maintainer is a thin
per-request façade over :class:`repro.stream.scheduler.StreamScheduler`:
:meth:`ViewMaintainer.apply` runs a batch of one, and
:meth:`ViewMaintainer.apply_batched` hands a whole request sequence to the
scheduler's coalesced path (net-effect computation, one maintenance pass
per algorithm, stratified units).  One behavioural consequence: StDel
deletions now run against the *original* program rather than the effective
one -- StDel never rederives, so the deletion rewrites are irrelevant to it
(its documented advantage), and the differential harness pins the
original-program run key-identical to the recomputed rewrite semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.constraints.solver import ConstraintSolver
from repro.datalog.join import EngineOptions
from repro.datalog.program import ConstrainedDatabase
from repro.datalog.view import MaterializedView
from repro.errors import MaintenanceError
from repro.maintenance.requests import (
    DeletionRequest,
    InsertionRequest,
    MaintenanceStats,
)

UpdateRequest = Union[DeletionRequest, InsertionRequest]


@dataclass
class AppliedUpdate:
    """Record of one update applied by the maintainer."""

    request: UpdateRequest
    algorithm: str
    stats: MaintenanceStats
    view_size_after: int


@dataclass
class BatchReport:
    """Summary of a whole update stream."""

    applied: Tuple[AppliedUpdate, ...] = ()

    @property
    def deletions(self) -> int:
        """Number of deletion requests applied."""
        return sum(1 for item in self.applied if isinstance(item.request, DeletionRequest))

    @property
    def insertions(self) -> int:
        """Number of insertion requests applied."""
        return sum(1 for item in self.applied if isinstance(item.request, InsertionRequest))

    def total_solver_calls(self) -> int:
        """Solver invocations across the whole stream."""
        return sum(item.stats.solver_calls for item in self.applied)

    def total_replaced_entries(self) -> int:
        """View entries whose constraint was replaced in place."""
        return sum(item.stats.replaced_entries for item in self.applied)


class ViewMaintainer:
    """Maintains one materialized view across a stream of updates."""

    def __init__(
        self,
        program: ConstrainedDatabase,
        solver: Optional[ConstraintSolver] = None,
        view: Optional[MaterializedView] = None,
        deletion_algorithm: str = "stdel",
        options: Optional[EngineOptions] = None,
    ) -> None:
        # Imported lazily: repro.stream imports the maintenance algorithm
        # modules, so a module-level import here would be circular when
        # ``repro.stream`` is the first package loaded.
        from repro.stream.scheduler import StreamOptions, StreamScheduler

        self._deletion_algorithm = deletion_algorithm
        self._scheduler = StreamScheduler(
            program,
            solver,
            view=view,
            options=StreamOptions(
                deletion_algorithm=deletion_algorithm,
                coalesce=False,
                max_workers=1,
                # Per-request application keeps the algorithms' historical
                # fail-fast contract; the batched path retries per unit.
                max_unit_attempts=1,
                engine=options or EngineOptions(),
            ),
        )
        self._applied: List[AppliedUpdate] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def view(self) -> MaterializedView:
        """The current materialized view."""
        return self._scheduler.view

    @property
    def original_program(self) -> ConstrainedDatabase:
        """The constrained database the view was first materialized from."""
        return self._scheduler.program

    @property
    def effective_program(self) -> ConstrainedDatabase:
        """The original program composed with every rewrite applied so far.

        Its least model is the declarative semantics of the maintained view;
        :meth:`verify` recomputes it to cross-check the incremental state.
        """
        return self._scheduler.effective_program

    @property
    def deletion_algorithm(self) -> str:
        """Which deletion algorithm the maintainer uses (``stdel``/``dred``)."""
        return self._deletion_algorithm

    @property
    def scheduler(self):
        """The underlying :class:`~repro.stream.scheduler.StreamScheduler`."""
        return self._scheduler

    def report(self) -> BatchReport:
        """Summary of everything applied so far."""
        return BatchReport(tuple(self._applied))

    # ------------------------------------------------------------------
    # Applying updates
    # ------------------------------------------------------------------
    def apply(self, request: UpdateRequest) -> AppliedUpdate:
        """Apply a single deletion or insertion request."""
        if isinstance(request, DeletionRequest):
            algorithm = self._deletion_algorithm
        elif isinstance(request, InsertionRequest):
            algorithm = "insert"
        else:
            raise MaintenanceError(f"unknown update request: {request!r}")
        result = self._scheduler.apply_batch((request,), coalesce=False)
        failed = result.failed_units
        if failed:
            raise MaintenanceError(
                f"update failed: {request} ({failed[0].error})"
            )
        stats = result.stats.totals()
        record = AppliedUpdate(request, algorithm, stats, len(result.view))
        self._applied.append(record)
        return record

    def apply_all(self, requests: Iterable[UpdateRequest]) -> BatchReport:
        """Apply a whole stream in order, one request at a time."""
        for request in requests:
            self.apply(request)
        return self.report()

    def apply_batched(self, requests: Sequence[UpdateRequest]):
        """Apply a whole stream as one coalesced batch.

        Routes through the stream scheduler's net-effect path: duplicates
        dedup, insert-then-delete cancels, and each independent stratum gets
        one batched maintenance pass per algorithm.  Returns the scheduler's
        :class:`~repro.stream.scheduler.BatchResult`; the per-request
        :meth:`report` is not extended (the batch has no per-request cost
        attribution -- that is the point).
        """
        result = self._scheduler.apply_batch(tuple(requests), coalesce=True)
        failed = result.failed_units
        if failed:
            raise MaintenanceError(
                f"batched update failed: {failed[0].description} ({failed[0].error})"
            )
        return result

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def verify(self, universe: Optional[Sequence[object]] = None) -> bool:
        """Cross-check the incremental view against the effective program.

        Recomputes ``T_P_effective ↑ ω`` from scratch and compares instance
        sets -- the executable form of Theorems 1-3 for the whole stream.
        Expensive; intended for tests and audits, not for the hot path.
        """
        return self._scheduler.verify(universe)
