"""Update requests against a materialized mediated view.

Section 3 of the paper considers three kinds of updates to a view: addition
of a constrained atom, deletion of a constrained atom, and changes to the
external sources.  The first two are represented here as small request
objects so the algorithms, the baselines and the benchmarks all speak the
same vocabulary; external changes are handled by
:mod:`repro.maintenance.external`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict

from repro.datalog.atoms import ConstrainedAtom


@dataclass(frozen=True)
class DeletionRequest:
    """Delete the instances of a constrained atom from the view."""

    atom: ConstrainedAtom

    def __str__(self) -> str:
        return f"delete {self.atom}"


@dataclass(frozen=True)
class InsertionRequest:
    """Insert the instances of a constrained atom into the view."""

    atom: ConstrainedAtom

    def __str__(self) -> str:
        return f"insert {self.atom}"


@dataclass
class MaintenanceStats:
    """Operation counters shared by all maintenance algorithms.

    The benchmarks report these alongside wall-clock time so the *shape* of
    the paper's efficiency claims (e.g. "StDel performs no rederivation") is
    visible independently of Python-level constant factors.
    """

    #: Entries of the Del / Add seed set.
    seed_atoms: int = 0
    #: Atoms produced by the P_OUT / P_ADD unfolding.
    unfolded_atoms: int = 0
    #: Entries whose constraint was replaced in place (StDel).
    replaced_entries: int = 0
    #: Entries added during rederivation (Extended DRed step 3) or insertion.
    rederived_entries: int = 0
    #: Entries removed from the view.
    removed_entries: int = 0
    #: Satisfiability checks issued to the constraint solver.
    solver_calls: int = 0
    #: Clause applications attempted (combinations of premises considered).
    clause_applications: int = 0
    #: Premise combinations enumerated by the semi-naive delta joins (both
    #: the P_OUT / P_ADD unfoldings and any embedded fixpoint computation).
    #: Proportional to the delta sizes, not the full view product -- the
    #: benchmarks assert this shape, not just wall-clock.
    derivation_attempts: int = 0
    #: Fixpoint iterations executed by any embedded fixpoint computation.
    fixpoint_iterations: int = 0
    #: Argument-index probes issued by the hash-join enumerations (both the
    #: unfoldings and any embedded fixpoint computation) and by the
    #: overlap-candidate lookups (one per probed atom: a request, a ``Del``
    #: atom narrowing the next request's view, a ``P_OUT`` atom of DRed's
    #: over-estimate).
    index_probes: int = 0
    #: Solver calls skipped by the quick-reject pre-filter (bound-tuple /
    #: interval-overlap test on canonical forms, see
    #: :meth:`repro.constraints.solver.ConstraintSolver.quick_reject`).
    quick_rejects: int = 0
    #: Parent entries returned by child-support index probes (StDel step 3).
    support_probes: int = 0
    #: Rederived entries DRed dropped as subsumed by a same-support sibling.
    subsumed_rederived: int = 0

    def merge(self, other: "MaintenanceStats") -> None:
        """Fold another stats object into this one (counter-wise addition).

        The stream scheduler applies one coalesced batch as two algorithm
        passes (one deletion pass, one insertion pass) and reports them as
        a single set of counters; the chained fallbacks of
        ``delete_many`` use it too.
        """
        mine, theirs = vars(self), vars(other)
        for name in _COUNTERS:
            mine[name] += theirs[name]

    def as_dict(self) -> Dict[str, int]:
        """Flatten to a plain dictionary (used by the benchmark reports)."""
        mine = vars(self)
        return {name: mine[name] for name in _COUNTERS}


#: The counters of :class:`MaintenanceStats`, in declaration order.
_COUNTERS = tuple(f.name for f in fields(MaintenanceStats))
