"""Algorithm 3: insertion of constrained atoms into a materialized view.

Inserting ``A(X̄) <- ψ`` (paper Section 3.2):

1. ``Add`` -- the instances of ``ψ`` not already represented in the view
   (see :func:`repro.maintenance.declarative.build_add_set`);
2. ``P_ADD`` -- unfold the new atoms upward through the program: a clause
   application contributes when **at least one** body premise comes from
   ``P_ADD`` (contrast with the deletion unfolding, which requires *exactly
   one* premise from ``P_OUT``), the remaining premises coming from the view
   or from ``P_ADD`` itself;
3. the new view is ``M ∪ P_ADD``.

Theorem 3: the result has the same instances as the least model of the
insertion rewrite ``P♭``.

Inserted base atoms carry the reserved clause number 0 in their supports
(no program clause produced them) and the text of the ``Add`` atom they
inserted, so later deletions via StDel track the derivations that use them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.constraints.solver import ConstraintSolver
from repro.datalog.atoms import ConstrainedAtom
from repro.datalog.join import (
    DeltaJoinKernel,
    DeltaRound,
    EngineOptions,
    MAX_UNFOLD_ROUNDS,
    derived_entry,
    make_fresh_factory,
)
from repro.datalog.program import ConstrainedDatabase
from repro.datalog.view import MaterializedView, ViewEntry
from repro.errors import MaintenanceError
from repro.maintenance.common import external_support
from repro.maintenance.declarative import build_add_set
from repro.maintenance.requests import InsertionRequest, MaintenanceStats


@dataclass
class InsertionResult:
    """Outcome of one insertion run."""

    view: MaterializedView
    add_atoms: Tuple[ConstrainedAtom, ...]
    added_entries: Tuple[ViewEntry, ...]
    stats: MaintenanceStats = field(default_factory=MaintenanceStats)


class ConstrainedAtomInsertion:
    """The constrained-atom insertion algorithm (paper Algorithm 3)."""

    def __init__(
        self,
        program: ConstrainedDatabase,
        solver: Optional[ConstraintSolver] = None,
        options: EngineOptions = EngineOptions(),
    ) -> None:
        self._program = program
        self._solver = solver or ConstraintSolver()
        self._options = options

    def insert(
        self, view: MaterializedView, request: InsertionRequest
    ) -> InsertionResult:
        """Insert the requested constrained atom's instances into *view*."""
        return self.insert_many(view, (request,))

    def insert_many(
        self, view: MaterializedView, requests: Sequence[InsertionRequest]
    ) -> InsertionResult:
        """Insert a whole batch of constrained atoms in one maintenance pass.

        The ``Add`` sets are built sequentially (each against the working
        view including the previous requests' external entries, so the
        disjointification matches a one-at-a-time run), but the ``P_ADD``
        unfolding runs **once**, seeded with the union of the external
        entries -- amortizing the per-request pool construction, probe setup
        and renaming across the batch (see :mod:`repro.stream`).  The union
        unfolding enumerates exactly the clause applications the sequential
        runs would (every combination using at least one inserted entry,
        each exactly once), so the result is identical.

        A request whose predicate is *derivable* (the head of a rule clause)
        first drains the accumulated frontier: its ``Add`` set must be
        narrowed by everything earlier insertions can derive, which only the
        unfolded view provides.
        """
        requests = tuple(requests)
        stats = MaintenanceStats()
        working = view.copy()
        factory = make_fresh_factory(
            self._program, working, tuple(request.atom for request in requests)
        )
        derivable = self._program.derivable_predicates()

        added: List[ViewEntry] = []
        frontier: List[ViewEntry] = []
        all_add_atoms: List[ConstrainedAtom] = []
        for request in requests:
            if frontier and request.atom.predicate in derivable:
                self._unfold_p_add(working, frontier, factory, added, stats)
                frontier = []
            add_atoms = build_add_set(
                working, request.atom, self._solver, factory, options=self._options
            )
            stats.seed_atoms += len(add_atoms)
            all_add_atoms.extend(add_atoms)
            for atom in add_atoms:
                entry = ViewEntry(atom.atom, atom.constraint, external_support(atom))
                if working.add(entry):
                    added.append(entry)
                    frontier.append(entry)
        if frontier:
            self._unfold_p_add(working, frontier, factory, added, stats)
        stats.unfolded_atoms = len(added) - stats.seed_atoms
        stats.rederived_entries = len(added)
        return InsertionResult(working, tuple(all_add_atoms), tuple(added), stats)

    def _unfold_p_add(
        self,
        working: MaterializedView,
        frontier: List[ViewEntry],
        factory,
        added: List[ViewEntry],
        stats: MaintenanceStats,
    ) -> None:
        """Run the ``P_ADD`` unfolding to fixpoint for one frontier."""
        kernel = DeltaJoinKernel(
            self._program, self._solver, self._options, factory, stats
        )
        rounds = 0
        while frontier:
            rounds += 1
            if rounds > MAX_UNFOLD_ROUNDS:
                raise MaintenanceError(
                    f"P_ADD unfolding exceeded {MAX_UNFOLD_ROUNDS} rounds"
                )
            # P_ADD: at least one premise from the frontier, the rest from
            # the view, which (unlike deletion's P_OUT) already contains the
            # frontier -- the kernel's default in-view seed policy.
            produced: List[ViewEntry] = []
            produced_keys: set = set()
            for clause, premises, derived in DeltaRound(kernel, working, frontier):
                entry = derived_entry(clause, premises, derived)
                # Membership against the sharded view is O(1) per check, no
                # O(|view|) key snapshot per batch.  ``produced_keys`` dedups
                # within the round (those entries are not in the view yet).
                key = entry.key()
                if key in produced_keys or entry in working:
                    continue
                produced_keys.add(key)
                produced.append(entry)
            frontier = []
            for entry in produced:
                if working.add(entry):
                    added.append(entry)
                    frontier.append(entry)


def insert_atom(
    program: ConstrainedDatabase,
    view: MaterializedView,
    atom: ConstrainedAtom,
    solver: Optional[ConstraintSolver] = None,
    options: EngineOptions = EngineOptions(),
) -> InsertionResult:
    """Convenience wrapper: run the insertion algorithm for one request."""
    algorithm = ConstrainedAtomInsertion(program, solver, options)
    return algorithm.insert(view, InsertionRequest(atom))
