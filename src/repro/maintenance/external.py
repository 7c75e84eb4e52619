"""Maintenance under changes to the external sources (paper Section 4).

When an integrated domain changes (a PARADOX table is updated, a face
database gains photographs, ...), the paper contrasts two strategies:

* **T_P maintenance** -- the materialized view was built with the
  solvability check, so a source change can invalidate entries (Example 7)
  or require new ones; the honest way to restore consistency is to
  re-materialize (or propagate the ``ADD`` / ``REM`` deltas of equations
  (6)/(7)).  :class:`TpExternalMaintenance` implements re-materialization
  and exposes the deltas for analysis.

* **W_P maintenance** -- the view is built *without* the solvability check;
  Theorem 4 says its syntactic form never changes when sources change, and
  Corollary 1 says evaluating its constraints at query time always gives the
  instances ``T_P`` would give at that moment.  :class:`WpExternalMaintenance`
  therefore performs **no work at all** on a source change and defers
  everything to :meth:`query`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Optional, Sequence, Tuple

from repro.constraints.solver import ConstraintSolver
from repro.datalog.fixpoint import compute_tp_fixpoint, compute_wp_fixpoint
from repro.datalog.join import EngineOptions
from repro.datalog.program import ConstrainedDatabase
from repro.datalog.view import MaterializedView
from repro.domains.versioned import FunctionDelta, add_rem_sets
from repro.maintenance.requests import MaintenanceStats


@dataclass
class ExternalChangeReport:
    """What one source change cost under a maintenance strategy."""

    strategy: str
    #: Number of view entries that were recomputed / rebuilt (0 for W_P).
    recomputed_entries: int
    #: Whether the syntactic view changed at all.
    view_changed: bool
    #: The ADD / REM delta sizes, when they were computed for analysis.
    added_facts: int = 0
    removed_facts: int = 0
    stats: MaintenanceStats = field(default_factory=MaintenanceStats)


class TpExternalMaintenance:
    """Maintain a ``T_P``-materialized view across source changes."""

    def __init__(
        self,
        program: ConstrainedDatabase,
        solver: ConstraintSolver,
        options: Optional[EngineOptions] = None,
    ) -> None:
        self._program = program
        self._solver = solver
        self._options = options
        self._view = compute_tp_fixpoint(program, self._solver, options=self._options)

    @property
    def view(self) -> MaterializedView:
        """The current materialized view."""
        return self._view

    def on_source_changed(
        self, deltas: Sequence[FunctionDelta] = ()
    ) -> ExternalChangeReport:
        """React to a source change by re-materializing the view.

        *deltas* (optional) are reported for analysis; they are not needed to
        restore consistency because the view is recomputed outright, which is
        exactly the cost the paper's ``W_P`` proposal avoids.
        """
        _notify_solver(self._solver, deltas)
        added, removed = add_rem_sets(deltas)
        old_entries = {entry.key() for entry in self._view}
        self._view = compute_tp_fixpoint(self._program, self._solver, options=self._options)
        new_entries = {entry.key() for entry in self._view}
        stats = MaintenanceStats()
        stats.rederived_entries = len(self._view)
        return ExternalChangeReport(
            strategy="tp-rematerialize",
            recomputed_entries=len(self._view),
            view_changed=old_entries != new_entries,
            added_facts=len(added),
            removed_facts=len(removed),
            stats=stats,
        )

    def query(
        self, predicate: str, universe: Optional[Iterable[object]] = None
    ) -> FrozenSet[Tuple[object, ...]]:
        """Ground instances of *predicate* according to the current view."""
        return self._view.instances_for(predicate, solver=self._solver, universe=universe)


class WpExternalMaintenance:
    """Maintain a ``W_P``-materialized view across source changes (a no-op)."""

    def __init__(
        self,
        program: ConstrainedDatabase,
        solver: ConstraintSolver,
        options: Optional[EngineOptions] = None,
    ) -> None:
        self._program = program
        self._solver = solver
        self._options = options
        self._view = compute_wp_fixpoint(program, self._solver, options=self._options)

    @property
    def view(self) -> MaterializedView:
        """The (syntactically invariant) materialized view."""
        return self._view

    def on_source_changed(
        self, deltas: Sequence[FunctionDelta] = ()
    ) -> ExternalChangeReport:
        """React to a source change: only the change notice is passed on.

        The view itself needs no work at all (Theorem 4); the notice moves
        the changed sources to a new version, which keeps query-time
        evaluation honest about their *current* behaviour (Corollary 1).
        """
        _notify_solver(self._solver, deltas)
        added, removed = add_rem_sets(deltas)
        return ExternalChangeReport(
            strategy="wp-noop",
            recomputed_entries=0,
            view_changed=False,
            added_facts=len(added),
            removed_facts=len(removed),
        )

    def query(
        self, predicate: str, universe: Optional[Iterable[object]] = None
    ) -> FrozenSet[Tuple[object, ...]]:
        """Ground instances at the *current* time (Corollary 1).

        Constraint solvability (and DCA evaluation) happens here, at query
        time, against whatever the sources currently return.
        """
        return self._view.instances_for(predicate, solver=self._solver, universe=universe)


def _notify_solver(solver: ConstraintSolver, deltas: Sequence[FunctionDelta]) -> None:
    """Pass a source change on as change notices, one per domain in *deltas*.

    Without deltas the change cannot be attributed: every source is
    treated as changed.
    """
    for source in {delta.domain for delta in deltas} or (None,):
        solver.invalidate_external_functions(source)

