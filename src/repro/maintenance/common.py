"""Building blocks shared by the maintenance algorithms.

Both deletion algorithms start from the same ``Del`` set and the insertion
algorithm from the analogous ``Add`` set.  Factoring these out here keeps
the three algorithm modules close to the paper's pseudo-code.  (The clause
application the ``P_OUT`` / ``P_ADD`` unfoldings share with the fixpoint
lives in :mod:`repro.datalog.join`.)
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.constraints.ast import (
    Constraint,
    FALSE,
    NegatedConjunction,
    conjoin,
    tuple_equalities,
)
from repro.constraints.intern import EVENTS
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


def negated_atom_constraint(
    target_atom: Atom,
    source: ConstrainedAtom,
    factory: FreshVariableFactory,
    renamed_cache: Optional[Dict[int, ConstrainedAtom]] = None,
) -> Tuple[Constraint, Constraint]:
    """Express "is (not) an instance of *source*" over *target_atom*'s terms.

    Returns a pair ``(positive, negative)``: the constraint stating that the
    target atom's arguments satisfy the source atom's constraint (with the
    binding equalities ``X̄ = Ȳ`` of the paper), and its negation
    ``not(... )``.  The source is renamed apart first, and the negation is
    always built as an explicit ``not(...)`` node so that the renamed
    variables are quantified *inside* it ("no instantiation of the source
    atom matches the target tuple"), per the library's quantification
    convention.

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
    equalities = tuple_equalities(renamed.atom.args, target_atom.args)
    positive = conjoin(renamed.constraint, equalities)
    negative = NegatedConjunction(tuple(positive.conjuncts()))
    return positive, negative


def restrict_entry_to_instances(
    entry: ViewEntry,
    request_atom: ConstrainedAtom,
    solver: ConstraintSolver,
    factory: FreshVariableFactory,
    stats: Optional[MaintenanceStats] = None,
    renamed_cache: Optional[Dict[int, ConstrainedAtom]] = None,
) -> Optional[ConstrainedAtom]:
    """The ``Del`` construction for one view entry.

    For a view entry ``A(Ȳ) <- φ`` and a deletion request ``A(X̄) <- δ``,
    return ``A(Ȳ) <- φ & (Ȳ = X̄) & δ`` when that conjunction is solvable
    (those are the instances of the entry that are actually being deleted),
    otherwise ``None``.
    """
    if entry.atom.signature != request_atom.atom.signature:
        return None
    if solver.quick_reject(
        entry.atom.args, entry.constraint,
        request_atom.atom.args, request_atom.constraint,
    ):
        if stats is not None:
            stats.quick_rejects += 1
        return None
    positive, _ = negated_atom_constraint(
        entry.atom, request_atom, factory, renamed_cache
    )
    combined = conjoin(entry.constraint, positive)
    if solver.identical_instances(
        entry.atom.args, entry.constraint,
        request_atom.atom.args, request_atom.constraint,
    ):
        # The request is the entry itself (pointer-identical interned
        # constraint): the overlap is the whole entry, and the combined
        # constraint ``φ & φ' & (Ȳ = Ȳ')`` is solvable iff ``φ`` is (give
        # the renamed copy the same witness).  Checking ``φ`` instead is a
        # per-node ``_sat`` slot read in the common case, so the counted
        # solver call is skipped; the returned atom is built through the
        # same ``simplify(combined)`` path so differential keys match.
        if not solver.is_satisfiable(entry.constraint):
            return None
    else:
        if stats is not None:
            stats.solver_calls += 1
        if not solver.is_satisfiable(combined):
            return None
    simplified = simplify(combined, solver)
    return ConstrainedAtom(entry.atom, simplified)


def build_del_set(
    view: MaterializedView,
    request_atom: ConstrainedAtom,
    solver: ConstraintSolver,
    factory: FreshVariableFactory,
    stats: Optional[MaintenanceStats] = None,
    options: EngineOptions = EngineOptions(),
) -> Tuple[Tuple[ViewEntry, ConstrainedAtom], ...]:
    """The paper's ``Del`` set, paired with the view entries it came from.

    Only constrained atoms that are actually in the existing materialized
    view are deleted (the paper stresses this); entries of other predicates
    or with empty overlap are skipped.
    """
    result: List[Tuple[ViewEntry, ConstrainedAtom]] = []
    renamed_cache: Dict[int, ConstrainedAtom] = {}
    for entry in overlap_candidates(view, request_atom, solver, options, stats):
        restricted = restrict_entry_to_instances(
            entry, request_atom, solver, factory, stats, renamed_cache
        )
        if restricted is not None:
            result.append((entry, restricted))
    if stats is not None:
        stats.seed_atoms += len(result)
    return tuple(result)


def narrowed_external_entries(
    view: MaterializedView,
    deleted: Sequence[ConstrainedAtom],
    solver: ConstraintSolver,
    factory: FreshVariableFactory,
    stats: Optional[MaintenanceStats] = None,
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
    survivors: List[ViewEntry] = []
    renamed_cache: Dict[int, ConstrainedAtom] = {}
    # Shard by shard: the merged ``view.entries`` tuple is view-sized and
    # stays cached on the view.
    external = (
        entry
        for predicate in view.predicates()
        for entry in view.shard_for(predicate)
        if entry.support.clause_number == EXTERNAL_CLAUSE_NUMBER
        and not entry.support.children
    )
    for entry in external:
        narrowed = subtract_instances(entry, deleted, solver, factory, stats, renamed_cache)
        # Counted like every other satisfiability check: this sweep used to
        # run off the books, understating the recompute baseline's cost.
        if stats is not None:
            stats.solver_calls += 1
        if solver.is_satisfiable(narrowed.constraint):
            survivors.append(narrowed)
    return tuple(survivors)


def subtract_instances(
    entry: ViewEntry,
    removed: Iterable[ConstrainedAtom],
    solver: ConstraintSolver,
    factory: FreshVariableFactory,
    stats: Optional[MaintenanceStats] = None,
    renamed_cache: Optional[Dict[int, ConstrainedAtom]] = None,
) -> ViewEntry:
    """Conjoin ``not(ψ & bindings)`` onto an entry for each removed atom.

    This is the over-estimation step of the Extended DRed algorithm: the
    entry's constraint is narrowed so its instances no longer include any
    instance of the removed atoms.  Pass one *renamed_cache* for a whole
    batch of entries so each removed atom is renamed apart only once.

    Most (entry, removed atom) pairs do not overlap at all; the quick-reject
    profile comparison (bound tuples, intervals, domain hooks) skips those
    without a solver call.  The profile is built from the entry's *original*
    constraint -- a weaker summary than the evolving narrowed constraint,
    hence still sound -- so it is computed once per entry, not once per pair.
    """
    constraint = entry.constraint
    subtracted = False
    for atom in removed:
        if atom.atom.signature != entry.atom.signature:
            continue
        if solver.identical_instances(
            entry.atom.args, entry.constraint, atom.atom.args, atom.constraint
        ):
            # The removed atom *is* this entry (interned constraints are
            # pointer-identical): every instance is subtracted.  Any prior
            # narrowing in this loop only shrank the instance set, so the
            # result collapses to FALSE outright -- no overlap check, no
            # negation build, and the remaining removed atoms are moot.
            EVENTS.identity_subtractions += 1
            constraint = FALSE
            subtracted = True
            break
        if solver.quick_reject(
            entry.atom.args, entry.constraint, atom.atom.args, atom.constraint
        ):
            # Definitely no overlap: same outcome as the unsat branch below.
            if stats is not None:
                stats.quick_rejects += 1
            continue
        positive, negative = negated_atom_constraint(
            entry.atom, atom, factory, renamed_cache
        )
        if stats is not None:
            stats.solver_calls += 1
        if not solver.is_satisfiable(conjoin(constraint, positive)):
            # No overlap: nothing to subtract for this removed atom.
            continue
        constraint = conjoin(constraint, negative)
        subtracted = True
    if not subtracted:
        # Untouched entries keep their exact constraint: re-canonicalizing
        # them here would change keys StDel (which only rewrites affected
        # entries) leaves alone.
        return entry
    # Drop redundant comparisons like the fixpoint engine (and StDel's
    # replacement step) do: a two-sided entry narrowed by an overlapping
    # deletion (e.g. ``X <= 50`` minus ``X >= 46``) otherwise keeps the
    # now-entailed bound and diverges from the other algorithms by key().
    constraint = simplify(constraint, solver, drop_redundant_comparisons=True)
    if constraint == entry.constraint:
        return entry
    return entry.with_constraint(constraint)
