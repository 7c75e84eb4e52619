"""The counting algorithm baseline (Gupta, Katiyar, Mumick 1992).

The paper positions StDel against the *counting* approach to view
maintenance: keep, for every (ground) derived fact, the number of its
derivations; a base-fact deletion decrements the counts of facts derived
through it, and facts whose count reaches zero disappear.

Two properties of the counting approach matter for the reproduction:

* on **non-recursive** ground views it works and is cheap -- implemented
  here so the benchmarks can compare it fairly against StDel, and
* on **recursive** views the derivation counts can be infinite (a fact can
  have unboundedly many derivations through a cycle); the paper's Section 6
  cites this as the reason StDel "improves upon the counting method (that
  can lead to infinite counts)".  This implementation detects the situation
  and raises :class:`~repro.errors.CountingDivergenceError` instead of
  looping, which is the behaviour the ablation benchmark demonstrates.

The baseline deliberately supports only *ground* views (every entry denotes
exactly one tuple): that is the setting of the original counting algorithm,
and the paper's point is precisely that supports generalize where counts do
not (non-ground constrained atoms, recursion).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.constraints.solver import ConstraintSolver
from repro.datalog.atoms import ConstrainedAtom
from repro.datalog.fixpoint import FixpointEngine
from repro.datalog.join import EngineOptions
from repro.datalog.program import ConstrainedDatabase
from repro.datalog.view import MaterializedView
from repro.errors import CountingDivergenceError, FixpointDivergenceError, MaintenanceError
from repro.maintenance.requests import MaintenanceStats

#: A ground fact: (predicate, value tuple).
GroundFact = Tuple[str, Tuple[object, ...]]


@dataclass
class CountingView:
    """A ground materialized view with derivation counts."""

    counts: Dict[GroundFact, int] = field(default_factory=dict)

    def facts(self) -> Tuple[GroundFact, ...]:
        """Facts with a strictly positive count."""
        return tuple(sorted(
            (fact for fact, count in self.counts.items() if count > 0),
            key=repr,
        ))

    def count_of(self, fact: GroundFact) -> int:
        """Derivation count of one fact (0 when absent)."""
        return self.counts.get(fact, 0)

    def __len__(self) -> int:
        return sum(1 for count in self.counts.values() if count > 0)


@dataclass
class CountingDeletionResult:
    """Outcome of a counting-based deletion."""

    view: CountingView
    removed_facts: Tuple[GroundFact, ...]
    stats: MaintenanceStats = field(default_factory=MaintenanceStats)


class CountingMaintenance:
    """Counting-based maintenance for ground, non-recursive views."""

    def __init__(
        self,
        program: ConstrainedDatabase,
        solver: Optional[ConstraintSolver] = None,
        max_iterations: int = 200,
    ) -> None:
        self._program = program
        self._solver = solver or ConstraintSolver()
        self._max_iterations = max_iterations

    # ------------------------------------------------------------------
    # Materialization with counts
    # ------------------------------------------------------------------
    def materialize(self) -> CountingView:
        """Compute the ground view with one count per derivation.

        Raises :class:`CountingDivergenceError` when the program is recursive
        over cyclic data (infinitely many derivations).
        """
        if self._program.is_recursive():
            # A recursive program *may* still have finitely many derivations
            # (acyclic data); try the duplicate-semantics fixpoint and treat
            # divergence as the infinite-count situation.
            try:
                view = self._duplicate_fixpoint()
            except FixpointDivergenceError as exc:
                raise CountingDivergenceError(
                    "counting maintenance cannot handle this recursive view: "
                    "derivation counts are unbounded"
                ) from exc
        else:
            view = self._duplicate_fixpoint()
        return self._to_counts(view)

    def _duplicate_fixpoint(self) -> MaterializedView:
        engine = FixpointEngine(
            self._program,
            self._solver,
            EngineOptions(max_iterations=self._max_iterations),
        )
        return engine.compute()

    def _to_counts(self, view: MaterializedView) -> CountingView:
        counts: Dict[GroundFact, int] = {}
        for entry in view:
            bound = entry.constrained_atom.bound_tuple()
            if bound is None:
                raise MaintenanceError(
                    "counting maintenance only supports ground views; entry "
                    f"{entry.constrained_atom} is not ground"
                )
            fact = (entry.predicate, bound)
            counts[fact] = counts.get(fact, 0) + 1
        return CountingView(counts)

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------
    def delete(
        self, view: CountingView, atom: ConstrainedAtom
    ) -> CountingDeletionResult:
        """Delete a ground fact and propagate count decrements.

        The decrements are obtained by re-deriving, with the duplicate
        semantics fixpoint, the derivations of the *rewritten* program and
        differencing the counts -- the standard counting-maintenance outcome
        without its delta-rule machinery (adequate for measuring the shape of
        the comparison; the per-fact work is proportional to the number of
        affected derivations, as in the original algorithm).
        """
        stats = MaintenanceStats()
        bound = atom.bound_tuple()
        if bound is None:
            raise MaintenanceError(
                "counting deletion requires a ground atom, got "
                f"{atom}"
            )
        from repro.maintenance.declarative import deletion_rewrite

        rewritten = deletion_rewrite(self._program, (atom,))
        engine = FixpointEngine(
            rewritten,
            self._solver,
            EngineOptions(max_iterations=self._max_iterations),
        )
        try:
            new_counts = self._to_counts(engine.compute())
        except FixpointDivergenceError as exc:
            raise CountingDivergenceError(
                "counting deletion diverged on a recursive view"
            ) from exc
        removed = tuple(
            fact for fact in view.counts if new_counts.count_of(fact) == 0
        )
        stats.removed_entries = len(removed)
        stats.seed_atoms = 1
        return CountingDeletionResult(new_counts, removed, stats)
