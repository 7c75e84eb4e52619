"""Net-effect coalescing of an update batch.

A drained batch is an ordered mix of deletions, insertions and external
notices.  Before any maintenance pass runs, the coalescer shrinks it to its
net effect:

* **Deduplication** -- a request identical (same atom, same canonical
  constraint) to an earlier one of the same kind is dropped, *unless* an
  opposite-kind request of the same predicate sits between the two
  occurrences (a deletion between two identical insertions makes the second
  insertion a genuine re-insertion, and symmetrically for deletions).
* **Cancellation** -- an insertion followed by a deletion of the same
  predicate whose instances cover it (checked with
  :meth:`~repro.constraints.solver.ConstraintSolver.subsumes_instances`)
  cancels: the insertion is dropped, the deletion stays (it still applies
  to whatever the pre-batch view held).
* **Deletion subsumption** -- a deletion whose instances are covered by a
  *later, wider* deletion is dropped (the wider one removes everything the
  narrower one would), *unless* an insertion of the same predicate sits
  between the two: the narrower delete then still shapes which instances
  that insertion's ``Add`` set may contribute, so both survive.
* **Narrowing** -- an insertion *partially* covered by later deletions is
  narrowed by ``not(delta & bindings)`` per overlapping deletion -- the
  same construction Section 3.1 uses to give deletion its declarative
  semantics -- so applying all deletions first and the narrowed insertions
  second reproduces the interleaved stream's net effect.

The scheduler then runs one deletion pass and one insertion pass over the
surviving requests (:meth:`~repro.stream.StreamScheduler.apply_prepared`).

External notices are compacted per source (net row effect, latest version).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.constraints.projection import scoped_negation
from repro.constraints.simplify import canonical_form, simplify
from repro.constraints.solver import ConstraintSolver
from repro.constraints.ast import conjoin
from repro.constraints.terms import FreshVariableFactory
from repro.datalog.atoms import ConstrainedAtom
from repro.errors import MaintenanceError
from repro.maintenance.common import atom_overlap
from repro.maintenance.requests import DeletionRequest, InsertionRequest
from repro.stream.log import ExternalChangeNotice, StreamPayload, Transaction


@dataclass
class CoalesceReport:
    """What coalescing a batch did, for the stream statistics."""

    #: Update requests submitted (external notices not counted).
    submitted: int = 0
    #: Exact duplicates dropped.
    deduplicated: int = 0
    #: Insertions cancelled outright by a later covering deletion.
    cancelled: int = 0
    #: Insertions narrowed by a later overlapping deletion.
    narrowed: int = 0
    #: Deletions swallowed by a later, wider deletion of the same predicate.
    subsumed: int = 0
    #: External notices received / compacted away.
    notices: int = 0
    notices_compacted: int = 0
    #: Solver work spent deciding cancellation (subsumption + overlap).
    solver_calls: int = 0
    quick_rejects: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "submitted": self.submitted,
            "deduplicated": self.deduplicated,
            "cancelled": self.cancelled,
            "narrowed": self.narrowed,
            "subsumed": self.subsumed,
            "notices": self.notices,
            "notices_compacted": self.notices_compacted,
            "solver_calls": self.solver_calls,
            "quick_rejects": self.quick_rejects,
        }


@dataclass(frozen=True)
class CoalescedBatch:
    """The net effect of one drained batch, ready for scheduling."""

    #: Surviving deletions, in stream order.
    deletions: Tuple[DeletionRequest, ...]
    #: Surviving (possibly narrowed) insertions, in stream order.
    insertions: Tuple[InsertionRequest, ...]
    #: Compacted external notices, one per source, in first-seen order.
    notices: Tuple[ExternalChangeNotice, ...]
    report: CoalesceReport = field(default_factory=CoalesceReport)

    def __len__(self) -> int:
        return len(self.deletions) + len(self.insertions)


def _request_key(request) -> Tuple[str, object, object]:
    """Dedup key: request kind, interned atom, interned canonical constraint.

    With hash-consed nodes the atom and the canonical form *are* identity
    keys -- hashing mixes cached ints and equality is pointer comparison --
    so the old double render (``str(atom)`` + ``str(canonical_form(...))``)
    that re-serialized every request per batch is gone.
    """
    atom = request.atom
    return (
        type(request).__name__,
        atom.atom,
        canonical_form(atom.constraint),
    )


class Coalescer:
    """Computes the net effect of an ordered update batch."""

    def __init__(self, solver: Optional[ConstraintSolver] = None) -> None:
        self._solver = solver or ConstraintSolver()

    def coalesce(self, payloads: Sequence[StreamPayload]) -> CoalescedBatch:
        """Shrink *payloads* (stream order) to their net effect."""
        report = CoalesceReport()
        # Unwrap transactions; split kinds, keeping stream positions.
        deletions: List[Tuple[int, DeletionRequest]] = []
        insertions: List[Tuple[int, InsertionRequest]] = []
        notices: List[ExternalChangeNotice] = []
        for position, payload in enumerate(payloads):
            if isinstance(payload, Transaction):
                payload = payload.payload
            if isinstance(payload, DeletionRequest):
                report.submitted += 1
                deletions.append((position, payload))
            elif isinstance(payload, InsertionRequest):
                report.submitted += 1
                insertions.append((position, payload))
            elif isinstance(payload, ExternalChangeNotice):
                report.notices += 1
                notices.append(payload)
            else:
                raise MaintenanceError(f"unknown update request: {payload!r}")

        kept_deletions = self._dedupe(
            deletions, opposite=insertions, report=report
        )
        kept_deletions = self._subsume_deletions(
            kept_deletions, insertions, report
        )
        kept_insertions = self._dedupe(insertions, opposite=deletions, report=report)
        surviving_insertions = self._cancel_and_narrow(
            kept_insertions, deletions, report
        )
        return CoalescedBatch(
            tuple(request for _, request in kept_deletions),
            tuple(surviving_insertions),
            self._compact_notices(notices, report),
            report,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _dedupe(requests, opposite, report: CoalesceReport):
        """Drop later duplicates with no intervening opposite-kind request."""
        opposite_positions: Dict[str, List[int]] = {}
        for position, request in opposite:
            opposite_positions.setdefault(request.atom.predicate, []).append(position)
        first_seen: Dict[Tuple[str, object, object], int] = {}
        kept = []
        for position, request in requests:
            key = _request_key(request)
            earlier = first_seen.get(key)
            if earlier is not None:
                between = opposite_positions.get(request.atom.predicate, ())
                if not any(earlier < other < position for other in between):
                    report.deduplicated += 1
                    continue
            # Track the *latest* kept occurrence: a still-later duplicate
            # only needs no opposite request since this one.
            first_seen[key] = position
            kept.append((position, request))
        return kept

    def _subsume_deletions(self, deletions, insertions, report: CoalesceReport):
        """Drop deletions covered by a later, wider same-predicate deletion.

        The coalescer previously cancelled *insertions* against later
        deletions only; a narrow delete followed by a wider one both reached
        the maintenance pass, and the narrow one's whole ``Del``/``P_OUT``
        propagation was pure waste (the wider delete removes a superset).
        A candidate is swallowed only when

        * a later deletion of the same signature subsumes its instances
          (``instances(narrow) ⊆ instances(wide)``, via
          :meth:`~repro.constraints.solver.ConstraintSolver.subsumes_instances`),
          and
        * no insertion of the predicate sits between the two: an intervening
          insertion's ``Add`` set is disjointified against the view state
          the narrow delete produced, so dropping it would change which
          derivations the insertion contributes (the same guard the
          deduplication pass applies).

        The *wider, later* request survives -- mirroring cancellation, where
        the deletion (the later request) also wins.  Quick-reject runs
        first: profile-disjoint pairs cannot subsume unless the narrow
        request is empty, which a solver call on an empty request would
        also conclude, so the skip is sound and counted.
        """
        insertion_positions: Dict[str, List[int]] = {}
        for position, request in insertions:
            insertion_positions.setdefault(request.atom.predicate, []).append(
                position
            )
        solver = self._solver
        kept = []
        for index, (position, request) in enumerate(deletions):
            atom = request.atom
            blocking = insertion_positions.get(atom.predicate, ())
            swallowed = False
            for later_position, later in deletions[index + 1:]:
                wider = later.atom
                if wider.atom.signature != atom.atom.signature:
                    continue
                if any(
                    position < between < later_position for between in blocking
                ):
                    continue
                if solver.identical_instances(
                    atom.atom.args, atom.constraint,
                    wider.atom.args, wider.constraint,
                ):
                    # A later repeat of the same deletion (pointer-identical
                    # interned constraint) trivially subsumes it -- no
                    # counted solver call.
                    swallowed = True
                    break
                if solver.quick_reject(
                    atom.atom.args, atom.constraint,
                    wider.atom.args, wider.constraint,
                ):
                    report.quick_rejects += 1
                    continue
                report.solver_calls += 1
                if solver.subsumes_instances(
                    atom.atom.args, atom.constraint,
                    wider.atom.args, wider.constraint,
                ):
                    swallowed = True
                    break
            if swallowed:
                report.subsumed += 1
            else:
                kept.append((position, request))
        return kept

    def _cancel_and_narrow(self, insertions, deletions, report: CoalesceReport):
        """Apply later deletions to each insertion (cancel or narrow)."""
        solver = self._solver
        survivors: List[InsertionRequest] = []
        reserved = set()
        for _, request in insertions:
            reserved.update(v.name for v in request.atom.variables())
        for _, request in deletions:
            reserved.update(v.name for v in request.atom.variables())
        factory = FreshVariableFactory(reserved)
        for position, insertion in insertions:
            atom = insertion.atom
            constraint = atom.constraint
            cancelled = False
            narrowed = False
            for deletion_position, deletion in deletions:
                if deletion_position < position:
                    continue
                deleted = deletion.atom
                if deleted.atom.signature != atom.atom.signature:
                    continue
                if solver.identical_instances(
                    atom.atom.args, constraint,
                    deleted.atom.args, deleted.constraint,
                ):
                    # Insert-then-delete of the very same constrained atom is
                    # the classic churn pattern: with interned nodes it is a
                    # pointer comparison, so the pair cancels without a
                    # counted subsumption call.
                    cancelled = True
                    break
                if solver.quick_reject(
                    atom.atom.args, constraint,
                    deleted.atom.args, deleted.constraint,
                ):
                    report.quick_rejects += 1
                    continue
                report.solver_calls += 1
                if solver.subsumes_instances(
                    atom.atom.args, constraint,
                    deleted.atom.args, deleted.constraint,
                ):
                    cancelled = True
                    break
                positive = atom_overlap(atom.atom, deleted, factory)
                report.solver_calls += 1
                if not solver.is_satisfiable(conjoin(constraint, positive)):
                    continue  # no overlap after earlier narrowing
                negative = scoped_negation(positive, atom.atom.variables())
                constraint = simplify(conjoin(constraint, negative), solver)
                narrowed = True
            if cancelled:
                report.cancelled += 1
                continue
            if narrowed:
                report.solver_calls += 1
                if not solver.is_satisfiable(constraint):
                    report.cancelled += 1
                    continue
                report.narrowed += 1
                survivors.append(
                    InsertionRequest(ConstrainedAtom(atom.atom, constraint))
                )
            else:
                survivors.append(insertion)
        return survivors

    @staticmethod
    def _compact_notices(
        notices: Sequence[ExternalChangeNotice], report: CoalesceReport
    ) -> Tuple[ExternalChangeNotice, ...]:
        """One notice per source: net rows, latest version."""
        merged: Dict[str, ExternalChangeNotice] = {}
        order: List[str] = []
        for notice in notices:
            existing = merged.get(notice.source)
            if existing is None:
                merged[notice.source] = notice
                order.append(notice.source)
                continue
            report.notices_compacted += 1
            added = list(existing.added_rows)
            removed = list(existing.removed_rows)
            for row in notice.added_rows:
                if row in removed:
                    removed.remove(row)
                else:
                    added.append(row)
            for row in notice.removed_rows:
                if row in added:
                    added.remove(row)
                else:
                    removed.append(row)
            merged[notice.source] = ExternalChangeNotice(
                source=notice.source,
                added_rows=tuple(added),
                removed_rows=tuple(removed),
                version=notice.version
                if notice.version is not None
                else existing.version,
            )
        return tuple(merged[source] for source in order)
