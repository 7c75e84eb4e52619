"""Algorithm 2: the Straight Delete (StDel) algorithm.

StDel (paper Section 3.1.2) deletes a constrained atom from a materialized
mediated view **without any rederivation step** and without duplicate
elimination, which is the paper's main algorithmic improvement over the
(extended) DRed algorithm.  It relies on every view entry being indexed by
the *support* of its derivation:

1. every entry is initially marked;
2. entries of the deleted predicate that overlap the deletion request have
   their constraint narrowed by ``& (X̄ = Ȳ) & not(δ)``, and the pair
   ``(deleted instances, support)`` is recorded in ``P_OUT``;
3. repeatedly, any marked entry whose derivation used (as a *direct*
   premise) a support recorded in ``P_OUT`` gets its constraint rebuilt from
   its clause and premises with ``not(ψj)`` substituted for the deleted
   premise's contribution, and a new ``P_OUT`` pair is recorded for it;
4. finally, entries whose constraint became unsolvable are removed.

Theorem 2: the result has the same instances as the deletion rewrite
``T_{P'} ↑ ω(∅)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.constraints.ast import FalseConstraint, conjoin
from repro.constraints.simplify import simplify
from repro.constraints.solver import ConstraintSolver
from repro.datalog.atoms import ConstrainedAtom
from repro.datalog.join import (
    DeltaJoinKernel,
    EngineOptions,
    make_fresh_factory,
    overlap_candidates,
)
from repro.datalog.program import ConstrainedDatabase
from repro.datalog.support import Support
from repro.datalog.view import MaterializedView, ViewEntry
from repro.errors import MaintenanceError
from repro.maintenance.common import negated_atom_constraint
from repro.maintenance.requests import DeletionRequest, MaintenanceStats


@dataclass(frozen=True)
class POutPair:
    """One ``(constrained atom, support)`` pair recorded in ``P_OUT``.

    The constrained atom describes the instances that the entry carrying
    *support* lost; parents whose derivation used that support subtract these
    instances in turn.
    """

    atom: ConstrainedAtom
    support: Support

    def __str__(self) -> str:
        return f"({self.atom}, {self.support})"


@dataclass
class StDelResult:
    """Outcome of one Straight Delete run."""

    view: MaterializedView
    p_out: Tuple[POutPair, ...]
    replaced: Tuple[ViewEntry, ...]
    removed: Tuple[ViewEntry, ...]
    stats: MaintenanceStats = field(default_factory=MaintenanceStats)


#: Defensive bound on step-3 propagation rounds.
MAX_PROPAGATION_ROUNDS = 10_000


class StraightDelete:
    """The Straight Delete algorithm (paper Algorithm 2)."""

    def __init__(
        self,
        program: ConstrainedDatabase,
        solver: Optional[ConstraintSolver] = None,
        options: EngineOptions = EngineOptions(),
    ) -> None:
        self._program = program
        self._solver = solver or ConstraintSolver()
        self._options = options

    def delete(
        self, view: MaterializedView, request: DeletionRequest
    ) -> StDelResult:
        """Delete the requested constrained atom's instances from *view*.

        The input view is not modified; the updated view is returned inside
        the result object.
        """
        return self.delete_many(view, (request,))

    def delete_many(
        self,
        view: MaterializedView,
        requests: Sequence[DeletionRequest],
        purge_predicates: Optional[Sequence[str]] = None,
    ) -> StDelResult:
        """Delete a whole batch of constrained atoms in one maintenance pass.

        Applying the requests in batch order against a single working view is
        *result-identical* to applying them one at a time (each request's
        step 2/3 sees exactly the view state a sequential run would), but the
        per-request view-proportional costs are paid once per batch:

        * one working-view copy instead of one per request -- and with the
          predicate-sharded store that copy is itself copy-on-write, so the
          batch only ever clones the shards of predicates its steps 2/3/4
          actually rewrite (the request predicates and their upward
          closure), never the untouched rest of the view,
        * one fresh-variable factory for the batch, reading the name tables
          of the read scope's shards in place,
        * one step-4 purge at the end of the batch instead of one full
          solvability sweep per request.  Deferring the purge is safe: an
          entry narrowed to an unsolvable constraint can never seed a new
          ``P_OUT`` pair (its step-2 overlap and step-3 applicability checks
          are unsatisfiable), so later requests behave exactly as if it had
          already been removed.

        With *purge_predicates* the purge checks only the entries this pass
        replaced, and of those only the given predicates'.  The stream
        scheduler passes the batch's write closure: on an input view with no
        unsolvable entries (any ``T_P``-maintained view) nothing else can
        need purging, so the purge is proportional to the propagation cone.
        An unsolvable entry the input view already held stays (it denotes
        no instance).  Leave it ``None`` for the paper's full final sweep.

        This is the deletion half of the update-stream subsystem's "one
        maintenance pass per algorithm per batch" discipline (see
        :mod:`repro.stream`).
        """
        requests = tuple(requests)
        stats = MaintenanceStats()
        working = view.copy()

        # The batch setup is scoped by the program's static dependency
        # structure, not the view: steps 2/3 only ever rewrite entries in the
        # *write closure* of the request predicates (upward dependency
        # reachability -- the same closure the stream scheduler checks out),
        # and only ever *read* premises of those entries, whose predicates
        # are the body predicates of the closure heads' clauses.  Everything
        # outside that read scope is untouched and unread, so the fresh-name
        # reservation need not consult it.
        factory = make_fresh_factory(
            self._program,
            working,
            tuple(request.atom for request in requests),
            predicates=self._read_scope(
                frozenset(request.atom.predicate for request in requests)
            ),
        )

        # P_OUT pair constraints are always built from *pre-request* premises
        # so they stay free of nested negation unless the input view already
        # had it.  A premise is looked up when it is needed; for an entry
        # this request has replaced, ``superseded`` (keyed by the entry now
        # in the view) keeps the atom it carried before.  Emptied between
        # requests, matching the fresh snapshot a sequential run would take.
        superseded: Dict[object, ConstrainedAtom] = {}
        p_out: List[POutPair] = []
        replaced: List[ViewEntry] = []
        processed: Set[Tuple[Support, int, int]] = set()

        def replace(old: ViewEntry, new: ViewEntry) -> None:
            superseded[new.key()] = superseded.pop(old.key(), old.constrained_atom)
            working.replace(old, new)
            replaced.append(new)

        kernel = DeltaJoinKernel(self._program, self._solver, self._options, factory, stats)

        def original(support: Support) -> Optional[ConstrainedAtom]:
            # A support identifies its entry (Lemma 1; the view refuses a
            # second predicate under one support).
            entry = working.find_by_support(support)
            if entry is None:
                return None
            return superseded.get(entry.key(), entry.constrained_atom)

        for request in requests:
            seed_start = len(p_out)

            # Step 2: narrow directly affected entries, seed P_OUT.
            for entry in overlap_candidates(
                working, request.atom, self._solver, self._options, stats
            ):
                if self._solver.quick_reject(
                    entry.atom.args, entry.constraint,
                    request.atom.atom.args, request.atom.constraint,
                ):
                    stats.quick_rejects += 1
                    continue
                positive, negative = negated_atom_constraint(
                    entry.atom, request.atom, factory
                )
                stats.solver_calls += 1
                if not self._solver.is_satisfiable(conjoin(entry.constraint, positive)):
                    continue
                deleted_part = ConstrainedAtom(
                    entry.atom,
                    simplify(
                        conjoin(entry.constraint, positive),
                        self._solver,
                        drop_redundant_comparisons=True,
                    ),
                )
                new_constraint = simplify(
                    conjoin(entry.constraint, negative),
                    self._solver,
                    drop_redundant_comparisons=True,
                )
                replace(entry, entry.with_constraint(new_constraint))
                p_out.append(POutPair(deleted_part, entry.support))
            stats.seed_atoms += len(p_out) - seed_start

            # Step 3: propagate upwards along supports.  Each P_OUT pair
            # probes the child-support index for exactly the parents whose
            # derivation used the pair's support as a direct premise, instead
            # of scanning ``working.entries`` per pair -- the propagation
            # cost becomes proportional to the affected derivations, not the
            # view size.  The ``processed`` dedup set lives outside the whole
            # propagation loop (one membership test per probed parent, keys
            # built once), so a diamond of supports sharing a premise is
            # subtracted exactly once per (parent support, premise position,
            # pair); pair indexes are unique across the batch, so sharing the
            # set across requests changes nothing.
            rounds = 0
            frontier_start = seed_start
            while frontier_start < len(p_out):
                rounds += 1
                if rounds > MAX_PROPAGATION_ROUNDS:
                    raise MaintenanceError(
                        f"StDel propagation exceeded {MAX_PROPAGATION_ROUNDS} rounds"
                    )
                frontier_end = len(p_out)
                for pair_index in range(frontier_start, frontier_end):
                    pair = p_out[pair_index]
                    for parent in working.find_parents_of(pair.support):
                        stats.support_probes += 1
                        for child_position, child in enumerate(parent.support.children):
                            if child != pair.support:
                                continue
                            key = (parent.support, child_position, pair_index)
                            if key in processed:
                                continue
                            processed.add(key)
                            # Re-fetch: the parent may already have been
                            # replaced (for a different affected premise) in
                            # this round.
                            current = working.find_by_support(parent.support)
                            if current is None:
                                continue
                            replacement = self._replace_parent(
                                current, child_position, pair, original, kernel
                            )
                            if replacement is None:
                                continue
                            new_entry, deleted_part = replacement
                            replace(current, new_entry)
                            p_out.append(POutPair(deleted_part, parent.support))
                frontier_start = frontier_end

            # The next request's step 3 rebuilds parents from the premises
            # as this request left them, like a sequential run.
            superseded.clear()
        stats.unfolded_atoms = len(p_out) - stats.seed_atoms
        stats.replaced_entries = len(replaced)

        # Step 4: drop entries whose constraint became unsolvable -- once for
        # the whole batch.
        removed: List[ViewEntry] = []
        if purge_predicates is None:
            candidates: Sequence[ViewEntry] = working.entries
        else:
            # An entry replaced twice is in the view once, as it was last
            # left.
            scope = frozenset(purge_predicates)
            candidates = [
                entry
                for entry in {entry.key(): entry for entry in replaced}.values()
                if entry.predicate in scope and entry in working
            ]
        for entry in candidates:
            stats.solver_calls += 1
            if not self._solver.is_satisfiable(entry.constraint):
                working.remove(entry)
                removed.append(entry)
        stats.removed_entries = len(removed)

        return StDelResult(working, tuple(p_out), tuple(replaced), tuple(removed), stats)

    # ------------------------------------------------------------------
    # Internal steps
    # ------------------------------------------------------------------
    def _read_scope(self, predicates: FrozenSet[str]) -> FrozenSet[str]:
        """Write closure of *predicates* plus the closure clauses' body
        predicates -- everything a batch over *predicates* can read."""
        edges = self._program.predicate_dependency_edges()
        write_scope = set(predicates)
        frontier = list(predicates)
        while frontier:
            node = frontier.pop()
            for successor in edges.get(node, ()):
                if successor not in write_scope:
                    write_scope.add(successor)
                    frontier.append(successor)
        # An edge ``body -> head`` into the closure is a body predicate of
        # one of the closure heads' clauses.
        return frozenset(write_scope).union(
            body
            for body, heads in edges.items()
            if not write_scope.isdisjoint(heads)
        )

    def _replace_parent(
        self,
        entry: ViewEntry,
        child_position: int,
        pair: POutPair,
        original: Callable[[Support], Optional[ConstrainedAtom]],
        kernel: DeltaJoinKernel,
    ) -> Optional[Tuple[ViewEntry, ConstrainedAtom]]:
        """Rebuild a parent entry's constraint with ``not(ψj)`` at one premise.

        Returns ``(new entry, deleted part)`` or ``None`` when the paper's
        applicability condition (c) fails (the deleted premise contributed
        nothing to this derivation, so nothing changes).  Both halves are
        clause applications tied to the entry
        (:meth:`DeltaJoinKernel.apply_clause` with ``onto``): the deleted
        part with the premise as it was, the replacement with it negated.

        The other premises are the entries carrying the derivation's child
        supports, as *original* finds them: each as it was before this
        request.
        """
        if isinstance(entry.constraint, FalseConstraint):
            return None  # nothing left for the premise to have contributed
        clause = self._clause_for(entry.support)
        if clause is None or len(clause.body) != len(entry.support.children):
            raise MaintenanceError(
                f"support {entry.support} does not match clause "
                f"{entry.support.clause_number} of the program"
            )
        premises: List[ConstrainedAtom] = []
        for position, child_support in enumerate(entry.support.children):
            premise = pair.atom if position == child_position else original(child_support)
            if premise is None:
                return None  # a premise already gone: nothing to delete
            premises.append(premise)
        onto = entry.constrained_atom
        renamed: Dict[Tuple[int, int], object] = {}
        deleted_part = kernel.apply_clause(clause, premises, renamed, onto)
        if deleted_part is None:
            return None  # condition (c)
        kept = kernel.apply_clause(clause, premises, renamed, onto, child_position)
        return entry.with_constraint(kept.constraint), deleted_part

    def _clause_for(self, support: Support):
        if not self._program.has_clause(support.clause_number):
            return None
        return self._program.clause(support.clause_number)


def delete_with_stdel(
    program: ConstrainedDatabase,
    view: MaterializedView,
    atom: ConstrainedAtom,
    solver: Optional[ConstraintSolver] = None,
    options: EngineOptions = EngineOptions(),
) -> StDelResult:
    """Convenience wrapper: run Straight Delete for one deletion request."""
    algorithm = StraightDelete(program, solver, options)
    return algorithm.delete(view, DeletionRequest(atom))
