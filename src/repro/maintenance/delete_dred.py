"""Algorithm 1: the Extended DRed deletion algorithm.

Extends the DRed algorithm of Gupta, Mumick and Subrahmanian (SIGMOD 1993)
to constrained / mediated views (paper Section 3.1.1):

1. **Over-deletion** -- unfold the atoms to be deleted through the program to
   compute ``P_OUT``, the constrained atoms that are *candidates* for
   deletion (each uses the deleted atom in exactly one body position, all
   other body positions coming from the current view).
2. **Over-estimate** -- ``M'`` subtracts the ``P_OUT`` instances from every
   affected view entry by conjoining ``not(ψ & bindings)``.
3. **Rederivation** -- re-run the fixpoint of the *rewritten* program ``P'``
   seeded with ``M'``; alternative derivations put over-deleted instances
   back.  The program is pruned to the clauses that can actually contribute
   (head predicate touched by ``P_OUT``), which is the incrementality lever
   the paper describes in steps 3(a)-(c).

Theorem 1: the result has the same instances as ``T_{P'} ↑ ω(∅)``.

The algorithm is intended for *duplicate-free* views; on views with
duplicate entries it remains sound for instances but may do extra work --
exactly the weakness the Straight Delete algorithm (Algorithm 2) removes.

**Sequences of deletions.**  Because step 3 rederives from the *program*, a
later deletion must be run against the program produced by the earlier
deletion's rewrite (``DRedResult.rewritten_program``); otherwise rederivation
can resurrect instances the earlier request removed.  The Straight Delete
algorithm has no such requirement -- it never rederives -- which is one more
practical advantage the benchmarks quantify.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.constraints.simplify import canonical_form
from repro.constraints.solver import ConstraintSolver
from repro.datalog.atoms import ConstrainedAtom
from repro.datalog.fixpoint import FixpointEngine
from repro.datalog.join import (
    DeltaJoinKernel,
    DeltaRound,
    EngineOptions,
    MAX_UNFOLD_ROUNDS,
    Seed,
    make_fresh_factory,
)
from repro.datalog.program import ConstrainedDatabase
from repro.datalog.view import MaterializedView, ViewEntry
from repro.errors import MaintenanceError
from repro.maintenance.common import build_del_set, subtract_instances
from repro.maintenance.declarative import deletion_rewrite
from repro.maintenance.requests import DeletionRequest, MaintenanceStats


@dataclass
class DRedResult:
    """Outcome of one Extended DRed run."""

    view: MaterializedView
    del_atoms: Tuple[ConstrainedAtom, ...]
    p_out: Tuple[ConstrainedAtom, ...]
    overestimate: MaterializedView
    rewritten_program: ConstrainedDatabase
    stats: MaintenanceStats = field(default_factory=MaintenanceStats)


class ExtendedDRed:
    """The Extended DRed deletion algorithm (paper Algorithm 1)."""

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
    ) -> DRedResult:
        """Delete the requested constrained atom's instances from *view*.

        The input view is not modified; a new view is returned inside the
        result object.
        """
        return self.delete_many(view, (request,))

    def delete_many(
        self,
        view: MaterializedView,
        requests: Sequence[DeletionRequest],
        purge_predicates: Optional[Sequence[str]] = None,
    ) -> DRedResult:
        """Delete a whole batch of constrained atoms in one maintenance pass.

        A batch runs **one** ``P_OUT`` unfolding seeded with the union of the
        requests' ``Del`` atoms, one over-estimation pass, one deletion
        rewrite, one rederivation fixpoint and one subsumption/purge pass --
        amortizing the renaming, simplification and fixpoint setup that a
        sequential run pays per request (see :mod:`repro.stream`).

        The ``Del`` sets are composed *sequentially*: after each request, the
        touched same-predicate entries are narrowed in a working copy, so a
        later request's ``Del`` atoms are computed from exactly the entries a
        sequential run would see.  The shared unfolding draws its view-side
        premises from the pre-batch entries, which can only *widen* ``P_OUT``
        relative to the sequential runs -- over-deletion is the side DRed is
        robust against (rederivation restores, the subsumption pass drops the
        narrowed twins), so the batch result has the same instances, and on
        duplicate-free and interval views the same keys, as the sequential
        chain.

        Requests deleting a *derivable* predicate (the head of a rule clause)
        cannot share the single pass: their ``Del`` sets depend on the
        previous request's rederivation, which the cheap same-predicate
        narrowing cannot reproduce.  The batch is therefore *segmented*
        around them: each maximal run of EDB-only requests stays one batched
        pass, each derivable-deleting request runs as its own chained step,
        and the rewritten program threads through the segments.  Result-
        equivalent to the one-at-a-time chain (each segment sees exactly the
        view and program a chained run would) at a cost that is at most the
        chain's; ``EngineOptions.segment_batches=False`` keeps that chain --
        the degenerate segmentation where every request is its own segment
        -- as the reference the differential harness compares against.

        *purge_predicates* restricts the final unsolvability purge to the
        given predicates (the stream scheduler passes the batch's write
        closure; see :meth:`StraightDelete.delete_many`).
        """
        requests = tuple(requests)
        stats = MaintenanceStats()
        if len(requests) > 1 and any(
            self._is_derivable(request.atom.predicate) for request in requests
        ):
            segments = (
                self._segments(requests)
                if self._options.segment_batches
                else [(request,) for request in requests]
            )
            return self._run_segments(view, segments, stats, purge_predicates)

        factory = make_fresh_factory(
            self._program, view, tuple(request.atom for request in requests)
        )

        # Step 0: Del -- the actually-present instances to delete, composed
        # sequentially across the batch (same-predicate entries are narrowed
        # between requests so each Del set matches its sequential twin).
        working = view.copy()
        original_keys = {entry.key() for entry in view}
        del_atoms_all: List[ConstrainedAtom] = []
        for request in requests:
            del_pairs = build_del_set(
                working, request.atom, self._solver, factory, stats, self._options
            )
            atoms_here = tuple(atom for _, atom in del_pairs)
            del_atoms_all.extend(atoms_here)
            if len(requests) > 1 and atoms_here:
                narrow_cache: Dict[int, ConstrainedAtom] = {}
                for entry, _ in del_pairs:
                    replacement = subtract_instances(
                        entry, atoms_here, self._solver, factory, stats, narrow_cache
                    )
                    if replacement is not entry:
                        working.replace(entry, replacement)
        del_atoms = tuple(del_atoms_all)
        if not del_atoms:
            # Nothing to delete: the view is returned unchanged (but copied,
            # to keep the no-mutation contract).
            return DRedResult(view.copy(), (), (), view.copy(), self._program, stats)

        # Step 1: P_OUT -- unfold the deletions upward through the program.
        # Premises come from the pre-batch view: a superset of what any
        # sequential step would use, so the unfolding can only over-delete.
        p_out = self._unfold_p_out(view, del_atoms, factory, stats)

        # Step 2: M' -- subtract the P_OUT instances from affected entries.
        # ``working`` already carries the between-request narrowing of the
        # deleted predicates; subtracting a Del atom twice is a no-op (the
        # overlap check against the already-narrowed constraint is
        # unsatisfiable).
        p_out_by_signature: Dict[Tuple[str, int], List[ConstrainedAtom]] = {}
        for atom in p_out:
            p_out_by_signature.setdefault(atom.atom.signature, []).append(atom)
        renamed_cache: Dict[int, ConstrainedAtom] = {}
        # The over-estimate is a copy-on-write copy of the working view with
        # only the affected entries replaced: predicates outside the
        # propagation cone keep their shard pointers, so building M' costs
        # the narrowed entries, not a re-index of the whole view.
        overestimate = working.copy()
        narrowed: List[ViewEntry] = []
        for entry in working:
            relevant = p_out_by_signature.get(entry.atom.signature)
            replacement = entry
            if relevant:
                replacement = subtract_instances(
                    entry, relevant, self._solver, factory, stats, renamed_cache
                )
            if replacement is not entry:
                # ``replace`` keeps the slot (insertion order) and merges
                # key collisions exactly like the old rebuild's ``add`` did.
                overestimate.replace(entry, replacement)
            if replacement.key() not in original_keys:
                # Narrowed either by this pass or by the between-request
                # composition above -- both disturb the entry's derivations.
                narrowed.append(replacement)

        # Step 3: rederive using the rewritten program seeded with M'.
        rewritten = deletion_rewrite(self._program, del_atoms, factory)
        rederivation_program = self._prune_program(rewritten, p_out)
        engine = FixpointEngine(rederivation_program, self._solver, self._options)
        before = len(overestimate)
        initial_delta = (
            self._rederivation_seed(overestimate, narrowed, stats)
            if self._options.delta_rederivation
            else None
        )
        result_view = engine.compute(initial=overestimate, initial_delta=initial_delta)
        stats.rederived_entries = len(result_view) - before
        engine.stats.merge_into(stats)

        # One satisfiability check per scanned entry: count them like StDel's
        # step 4 does, so the batched purge restriction (scan only the write
        # closure, once per batch) shows up in the counters the benchmarks
        # gate on.
        if purge_predicates is None:
            stats.solver_calls += len(result_view)
        else:
            stats.solver_calls += sum(
                len(result_view.entries_for(predicate))
                for predicate in set(purge_predicates)
            )
        stats.removed_entries += result_view.prune_unsolvable(
            self._solver, purge_predicates
        )

        self._subsume_rederived(result_view, narrowed, stats)

        return DRedResult(result_view, del_atoms, p_out, overestimate, rewritten, stats)

    def _is_derivable(self, predicate: str) -> bool:
        """True when some rule clause (non-empty body) derives *predicate*."""
        return any(
            clause.body for clause in self._program.clauses_for(predicate)
        )

    def _segments(
        self, requests: Sequence[DeletionRequest]
    ) -> List[Tuple[DeletionRequest, ...]]:
        """Split a batch into single-pass-able segments, in stream order.

        Maximal runs of EDB-only requests stay together (they take the
        batched path); every request deleting a derivable predicate becomes
        its own segment (its ``Del`` set depends on the preceding segment's
        rederivation).  Derivability is judged against the original program
        -- the deletion rewrite only narrows clause constraints, never the
        clause bodies, so it cannot change which predicates are derivable.
        """
        segments: List[Tuple[DeletionRequest, ...]] = []
        run: List[DeletionRequest] = []
        for request in requests:
            if self._is_derivable(request.atom.predicate):
                if run:
                    segments.append(tuple(run))
                    run = []
                segments.append((request,))
            else:
                run.append(request)
        if run:
            segments.append(tuple(run))
        return segments

    def _run_segments(
        self,
        view: MaterializedView,
        segments: Sequence[Tuple[DeletionRequest, ...]],
        stats: MaintenanceStats,
        purge_predicates: Optional[Sequence[str]] = None,
    ) -> DRedResult:
        """Apply *segments* in order, threading the rewritten program.

        Each segment runs against the program the
        previous segment's rewrite produced, the purge restriction applies
        per segment (each segment must purge -- its successor's ``Del`` set
        depends on it -- but never outside the batch's write closure), and
        the combined result carries the accumulated Del / P_OUT atoms, the
        final rewritten program and the last segment's over-estimate.
        """
        program = self._program
        current = view
        del_atoms: List[ConstrainedAtom] = []
        p_out: List[ConstrainedAtom] = []
        result: Optional[DRedResult] = None
        for segment in segments:
            step = ExtendedDRed(program, self._solver, self._options).delete_many(
                current, segment, purge_predicates=purge_predicates
            )
            stats.merge(step.stats)
            del_atoms.extend(step.del_atoms)
            p_out.extend(step.p_out)
            current = step.view
            program = step.rewritten_program
            result = step
        assert result is not None  # segments are non-empty on this path
        return DRedResult(
            current, tuple(del_atoms), tuple(p_out), result.overestimate, program, stats
        )

    # ------------------------------------------------------------------
    # Internal steps
    # ------------------------------------------------------------------
    def _subsume_rederived(
        self,
        view: MaterializedView,
        narrowed: Sequence[ViewEntry],
        stats: MaintenanceStats,
    ) -> None:
        """Drop narrowed entries subsumed by a fully-rederived same-support twin.

        Rederivation re-runs derivations the over-deletion disturbed; when a
        derivation survives the rewrite in full, the fixpoint adds an entry
        with the *same support* as the narrowed one but a wider constraint.
        Both are sound, but recomputation (and StDel) represent that
        derivation once -- so for every narrowed entry still in the view, its
        same-support siblings are checked for syntactic subsumption
        (``instances(narrowed) ⊆ instances(sibling)``, see
        :meth:`~repro.constraints.solver.ConstraintSolver.subsumes_instances`)
        and the narrowed duplicate is removed when one subsumes it.  Only
        narrowed entries are candidates for removal; ties (mutual
        subsumption) therefore keep the rederived twin, whose canonical form
        matches what recomputation produces.
        """
        dropped = 0
        for entry in narrowed:
            if entry not in view:
                continue  # purged, or merged away by a replace
            stats.solver_calls += 1
            if not self._solver.is_satisfiable(entry.constraint):
                # An empty instance set is vacuously subsumed by *any*
                # sibling; dropping it here would count a purge as a
                # subsumption.  Unsolvable narrows are the purge's to drop
                # (inside its scope they are already gone and this check is
                # a memo hit).
                continue
            for sibling in view.find_all_by_support(entry.support):
                if sibling.key() == entry.key():
                    continue
                stats.solver_calls += 1
                if self._solver.subsumes_instances(
                    entry.atom.args,
                    entry.constraint,
                    sibling.atom.args,
                    sibling.constraint,
                ):
                    view.remove(entry)
                    dropped += 1
                    break
        if dropped:
            stats.removed_entries += dropped
            stats.subsumed_rederived += dropped

    def _rederivation_seed(
        self,
        overestimate: MaterializedView,
        narrowed: Sequence[ViewEntry],
        stats: Optional[MaintenanceStats] = None,
    ) -> Tuple[ViewEntry, ...]:
        """The delta-aware seed of the rederivation fixpoint.

        Rederivation only has to revisit derivations the over-deletion
        disturbed: joins that *use* a narrowed entry (seeded by the narrowed
        entries themselves) and joins that *re-derive* a narrowed entry from
        its own, possibly untouched, premises (seeded by the direct premises
        of every narrowed entry, found through the view's support index --
        each probe is counted under ``support_probes``, the same counter
        StDel's child-support propagation reports).

        A probe returns the premise and, when an earlier pass left one, its
        rederived twin (:meth:`MaterializedView.find_all_by_support`).
        """
        seed: List[ViewEntry] = []
        seen: set = set()

        def push(entry: ViewEntry) -> None:
            key = entry.key()
            if key not in seen:
                seen.add(key)
                seed.append(entry)

        for entry in narrowed:
            push(entry)
            for child in entry.support.children:
                if stats is not None:
                    stats.support_probes += 1
                for premise in overestimate.find_all_by_support(child):
                    push(premise)
        return tuple(seed)

    def _unfold_p_out(
        self,
        view: MaterializedView,
        del_atoms: Sequence[ConstrainedAtom],
        factory,
        stats: MaintenanceStats,
    ) -> Tuple[ConstrainedAtom, ...]:
        """Compute ``P_OUT = ∪_k P_OUT_k`` (paper step 1).

        ``P_OUT_{k+1}`` uses a clause with *exactly one* body premise drawn
        from ``P_OUT_k`` and every other premise drawn from the materialized
        view.
        """
        collected: List[ConstrainedAtom] = list(del_atoms)
        seen = {_atom_key(atom) for atom in collected}
        frontier: List[ConstrainedAtom] = list(del_atoms)
        kernel = DeltaJoinKernel(
            self._program, self._solver, self._options, factory, stats
        )
        rounds = 0
        while frontier:
            rounds += 1
            if rounds > MAX_UNFOLD_ROUNDS:
                raise MaintenanceError(
                    f"P_OUT unfolding exceeded {MAX_UNFOLD_ROUNDS} rounds"
                )
            # The frontier seed policy draws *exactly one* premise from the
            # frontier (P_OUT_k) and every other premise from the
            # materialized view, which is precisely the paper's unfolding
            # discipline.
            next_frontier: List[ConstrainedAtom] = []
            for _, _, derived in DeltaRound(kernel, view, frontier, Seed.FRONTIER):
                key = _atom_key(derived)
                if key in seen:
                    continue
                seen.add(key)
                collected.append(derived)
                next_frontier.append(derived)
            frontier = next_frontier
        stats.unfolded_atoms = len(collected) - len(del_atoms)
        return tuple(collected)

    @staticmethod
    def _prune_program(
        rewritten: ConstrainedDatabase, p_out: Sequence[ConstrainedAtom]
    ) -> ConstrainedDatabase:
        """Keep only the clauses that can rederive over-deleted atoms."""
        touched = {atom.atom.signature for atom in p_out}
        kept = [
            clause for clause in rewritten if clause.head.signature in touched
        ]
        return ConstrainedDatabase(kept)


def _atom_key(atom: ConstrainedAtom):
    """Dedup key of a ``P_OUT`` atom: the atom and its canonical constraint."""
    return (atom.atom, canonical_form(atom.constraint))


def delete_with_dred(
    program: ConstrainedDatabase,
    view: MaterializedView,
    atom: ConstrainedAtom,
    solver: Optional[ConstraintSolver] = None,
    options: EngineOptions = EngineOptions(),
) -> DRedResult:
    """Convenience wrapper: run Extended DRed for one deletion request."""
    algorithm = ExtendedDRed(program, solver, options)
    return algorithm.delete(view, DeletionRequest(atom))
