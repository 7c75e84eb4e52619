"""Building blocks shared by the maintenance algorithms.

Both deletion algorithms and the recomputation baseline narrow the entries a
list of removed atoms overlaps through one routine, :func:`narrow_overlapping`
(StDel's step 2, DRed's ``Del`` set and over-estimate); the insertion
algorithm starts from the analogous ``Add`` set.  Factoring these out here
keeps the algorithm modules close to the paper's pseudo-code.  (The clause
application the ``P_OUT`` / ``P_ADD`` unfoldings share with the fixpoint
lives in :mod:`repro.datalog.join`.)
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.constraints.ast import (
    Constraint,
    FALSE,
    conjoin,
    tuple_equalities,
)
from repro.constraints.intern import EVENTS
from repro.constraints.projection import scoped_negation
from repro.constraints.simplify import canonical_form, simplify
from repro.constraints.solver import ConstraintSolver
from repro.constraints.terms import FreshVariableFactory
from repro.datalog.atoms import Atom, ConstrainedAtom
from repro.datalog.join import EngineOptions, overlap_candidates
from repro.datalog.support import Support
from repro.datalog.view import MaterializedView, ViewEntry
from repro.maintenance.requests import MaintenanceStats

#: Clause number used in supports of externally inserted atoms.
EXTERNAL_CLAUSE_NUMBER = 0


def external_support(add_atom: ConstrainedAtom) -> Support:
    """The leaf of the fact Algorithm 3 inserts for one ``Add`` atom.

    The paper numbers the fact clause ``P♭`` gains; here the leaf names the
    fact itself, by its canonical text: a value of the insertion alone (the
    same under WAL replay, with any number of workers, on every algorithm's
    track), and as the ``Add`` atoms of a predicate are disjoint, no two
    live entries carry one leaf (Lemma 1).
    """
    origin = f"{add_atom.atom} <- {canonical_form(add_atom.constraint)}"
    return Support(EXTERNAL_CLAUSE_NUMBER, (), origin)


def atom_overlap(
    target_atom: Atom,
    source: ConstrainedAtom,
    factory: FreshVariableFactory,
    renamed_cache: Optional[Dict[int, ConstrainedAtom]] = None,
) -> Constraint:
    """Express "is an instance of *source*" over *target_atom*'s terms.

    The source atom's constraint, renamed apart, with the binding
    equalities ``X̄ = Ȳ`` of the paper.  Its negation ("no instantiation of
    the source atom matches the target tuple") is
    ``scoped_negation(overlap, target_atom.variables())``: the renamed
    variables are quantified inside the ``not(...)``, and the ones the
    bindings pin are eliminated before the node is built
    (``not(X' = 5 & X' = X)`` is built as ``not(X = 5)``).

    *renamed_cache* (keyed by ``id(source)``) lets a caller that matches the
    same source atom against many view entries rename it apart only once:
    the fresh names never collide with any entry's variables, and each use
    scopes them independently (inside its own ``not(...)`` / conjunction).
    """
    renamed = None if renamed_cache is None else renamed_cache.get(id(source))
    if renamed is None:
        renamed, _ = source.renamed_apart(factory)
        if renamed_cache is not None:
            renamed_cache[id(source)] = renamed
    return conjoin(renamed.constraint, tuple_equalities(renamed.atom.args, target_atom.args))


class Narrowing(NamedTuple):
    """A view entry removed atoms overlap: ``not(ψ & bindings)`` for each
    (``false`` for the entry itself) and, when asked for, ``φ & ψ & (Ȳ = X̄)``."""

    entry: ViewEntry
    negations: Tuple[Constraint, ...]
    overlaps: Tuple[Constraint, ...]

    def replacement(self, solver: ConstraintSolver) -> ViewEntry:
        """The entry minus the removed instances (``entry`` itself when the
        subtraction simplifies back to its constraint).

        Redundant comparisons are dropped like the fixpoint engine drops
        them: a two-sided entry narrowed by an overlapping deletion
        (``X <= 50`` minus ``X >= 46``) otherwise keeps the now-entailed
        bound and differs by key() from a recomputation.
        """
        constraint = simplify(
            conjoin(self.entry.constraint, *self.negations),
            solver,
            drop_redundant_comparisons=True,
        )
        if constraint == self.entry.constraint:
            return self.entry
        return self.entry.with_constraint(constraint)


def narrow_overlapping(
    view: MaterializedView,
    removed: Sequence[ConstrainedAtom],
    solver: ConstraintSolver,
    factory: FreshVariableFactory,
    options: EngineOptions,
    stats: Optional[MaintenanceStats] = None,
    overlaps: bool = False,
) -> Tuple[Narrowing, ...]:
    """The entries the *removed* atoms overlap, each with what it loses.

    The narrowing step of every deletion: StDel's step 2, DRed's ``Del``
    set, between-request composition and over-estimate ``M'``, and the
    recomputation baseline.  Each removed atom probes the view once
    (:func:`~repro.datalog.join.overlap_candidates`) and is tested once
    against each candidate it returns: the identity test, ``quick_reject``,
    then a counted solver call on the entry as narrowed so far.  *overlaps*
    keeps the overlap conjunctions, for callers that record the deleted
    part.  Entries come back in the order the probes first returned them;
    one no atom overlaps is left out, so it keeps its exact constraint.
    """
    renamed: Dict[int, ConstrainedAtom] = {}
    probed: Dict[object, Tuple[ViewEntry, List[ConstrainedAtom]]] = {}
    for atom in removed:
        for entry in overlap_candidates(view, atom, solver, options, stats):
            if entry.atom.signature == atom.atom.signature:
                probed.setdefault(entry.key(), (entry, []))[1].append(atom)
    result: List[Narrowing] = []
    for entry, atoms in probed.values():
        negations: List[Constraint] = []
        found: List[Constraint] = []
        for atom in atoms:
            if solver.identical_instances(
                entry.atom.args, entry.constraint, atom.atom.args, atom.constraint
            ):
                # The atom is this entry: the overlap is solvable iff the
                # entry is, and every instance goes.
                if not solver.is_satisfiable(entry.constraint):
                    break
                EVENTS.identity_subtractions += 1
                if overlaps:
                    positive = atom_overlap(entry.atom, atom, factory, renamed)
                    found.append(conjoin(entry.constraint, positive))
                negations.append(FALSE)
                break
            if solver.quick_reject(
                entry.atom.args, entry.constraint, atom.atom.args, atom.constraint
            ):
                if stats is not None:
                    stats.quick_rejects += 1
                continue
            positive = atom_overlap(entry.atom, atom, factory, renamed)
            # Tested against the entry as narrowed so far.
            overlap = conjoin(entry.constraint, *negations, positive)
            if stats is not None:
                stats.solver_calls += 1
            if not solver.is_satisfiable(overlap):
                continue
            if overlaps:
                found.append(overlap)
            negations.append(scoped_negation(positive, entry.atom.variables()))
        if negations:
            result.append(Narrowing(entry, tuple(negations), tuple(found)))
    return tuple(result)


def narrowed_external_entries(
    view: MaterializedView,
    deleted: Sequence[ConstrainedAtom],
    solver: ConstraintSolver,
    factory: FreshVariableFactory,
    options: EngineOptions,
) -> Tuple[ViewEntry, ...]:
    """Externally inserted entries, narrowed by a deletion's ``Del`` atoms.

    Entries whose support is a leaf with the reserved number 0 were inserted
    by Algorithm 3, not produced by any program clause, so a from-scratch
    recomputation of the rewritten program would silently lose them.  The
    declarative reading treats them as extra EDB: they survive a deletion as
    ``φ & not(δ & bindings)`` -- the same narrowing the deletion rewrite
    applies to program clauses -- and seed the recomputation fixpoint.
    Entries whose narrowed constraint is unsolvable are dropped (they would
    be purged by ``T_P`` anyway).
    """
    narrowed = {
        narrowing.entry.key(): narrowing.replacement(solver)
        for narrowing in narrow_overlapping(view, deleted, solver, factory, options)
    }
    # Shard by shard: the merged ``view.entries`` tuple is view-sized and
    # stays cached on the view.
    external = (
        narrowed.get(entry.key(), entry)
        for predicate in view.predicates()
        for entry in view.shard_for(predicate)
        if entry.support.clause_number == EXTERNAL_CLAUSE_NUMBER
        and not entry.support.children
    )
    return tuple(entry for entry in external if solver.is_satisfiable(entry.constraint))
