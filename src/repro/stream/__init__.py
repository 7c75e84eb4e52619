"""The update-stream subsystem: batched maintenance of mediated views.

Section 3 of the paper defines three kinds of updates to a materialized
mediated view -- deletion of a constrained atom (Algorithms 1 and 2),
insertion of a constrained atom (Algorithm 3), and changes to the external
sources (Section 4) -- and analyzes the maintenance cost of **one** update
at a time.  This package treats the paper's update model as a *stream*: an
ordered sequence of those same three update kinds, applied in batches whose
maintenance cost is proportional to the batch's net effect rather than to
the number of requests submitted.

* :mod:`repro.stream.log` -- the transaction log.  Interleaved
  :class:`~repro.maintenance.requests.InsertionRequest` /
  :class:`~repro.maintenance.requests.DeletionRequest` objects and external
  source-change notices are accepted as timestamped transactions, exactly
  the three update kinds of Section 3/4, in arrival order.
* :mod:`repro.stream.coalesce` -- net effect of a batch.  Duplicate
  requests are dropped, an insertion followed by a deletion that covers it
  cancels outright (checked with
  :meth:`~repro.constraints.solver.ConstraintSolver.subsumes_instances`),
  and a partially-covered insertion is narrowed by ``not(delta)`` -- the
  same construction Section 3.1's deletion semantics uses -- so the batch
  the scheduler applies is the smallest one with the stream's semantics.
* :mod:`repro.stream.strata` -- predicate stratification.  The strongly
  connected components of the program's clause -> body-predicate dependency
  index bound how far an update can propagate; requests whose reachable
  components are disjoint form independent units, each checked out to its
  own write closure and retried individually.
* :mod:`repro.stream.scheduler` -- one maintenance pass per algorithm per
  batch: StDel / Extended DRed seeded with the union of the batch's
  deletion atoms (one ``P_OUT`` unfolding, one rename/simplify regime, one
  final purge), one ``P_ADD`` fixpoint seeded with all insertions, and
  external changes folded in for free under the ``W_P`` discipline (the
  changed domain's version ends what the solver remembered about it; the
  view itself needs no work, per Theorem 4).  A batch's units are applied
  one after another on the applying thread; batches whose write closures
  fall in disjoint closure groups apply concurrently.  Queries served
  mid-batch read a snapshot-isolated pre-batch view.
"""

from repro.stream.coalesce import (
    CoalescedBatch,
    CoalesceReport,
    Coalescer,
)
from repro.stream.log import (
    ExternalChangeNotice,
    Transaction,
    UpdateLog,
    attach_changelog,
)
from repro.stream.scheduler import (
    BatchResult,
    PreparedBatch,
    StreamOptions,
    StreamScheduler,
    StreamStats,
    UnitReport,
)
from repro.stream.strata import (
    PredicateStrata,
    StratumUnit,
)

__all__ = [
    "BatchResult",
    "CoalesceReport",
    "CoalescedBatch",
    "Coalescer",
    "ExternalChangeNotice",
    "PredicateStrata",
    "PreparedBatch",
    "StratumUnit",
    "StreamOptions",
    "StreamScheduler",
    "StreamStats",
    "Transaction",
    "UpdateLog",
    "attach_changelog",
]
