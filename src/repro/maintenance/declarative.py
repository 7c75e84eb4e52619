"""Declarative semantics of view updates as rewritten constrained databases.

The paper defines what a deletion/insertion *means* by rewriting the
constrained database and taking the least model of the rewritten program:

* **Deletion** of ``A(X̄) <- δ`` (Section 3.1): every clause with head
  predicate ``A`` gets ``not(δ) & (X̄ = Ȳ)`` conjoined onto its constraint
  part, all other clauses are kept; the new view is ``T_{P'} ↑ ω(∅)``.
  Theorems 1 and 2 state that the Extended DRed and StDel algorithms compute
  exactly the instances of this program.

* **Insertion** of ``A(X̄) <- ψ`` (Section 3.2): the program is extended
  with the ``Add`` atoms as constrained facts; the new view is
  ``T_{P♭} ↑ ω(∅)``.  (The paper's ``P♭`` additionally rewrites the
  constraint parts of existing ``A``-clauses with ``not(φ)`` conjuncts; that
  component only affects duplicate bookkeeping, not the instance set ``[·]``
  that Theorem 3 is stated over, so this module keeps the instance-equivalent
  ``P ∪ Add`` form.)

These rewrites are the correctness yardstick: the test-suite checks every
incremental algorithm against the least model of the rewritten program.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.constraints.ast import TRUE, Constraint, conjoin
from repro.constraints.simplify import simplify
from repro.constraints.solver import ConstraintSolver
from repro.constraints.terms import FreshVariableFactory
from repro.datalog.atoms import ConstrainedAtom
from repro.datalog.clauses import Clause
from repro.datalog.join import EngineOptions, overlap_candidates
from repro.datalog.program import ConstrainedDatabase
from repro.datalog.view import MaterializedView
from repro.maintenance.common import negated_atom_constraint


def deletion_rewrite(
    program: ConstrainedDatabase,
    deleted: Sequence[ConstrainedAtom],
    factory: Optional[FreshVariableFactory] = None,
) -> ConstrainedDatabase:
    """Build ``P'`` for a deletion (the paper's rewrite (4)).

    For every clause ``A(X̄) <- φ || B1, ..., Bn`` in ``P`` and every deleted
    atom ``A(Ȳ) <- δ`` the rewritten clause carries
    ``φ & not(δ & (X̄ = Ȳ))``.  Clause numbers are preserved so supports
    remain comparable across the rewrite.

    Only clauses whose head can unify with a deleted atom are touched: they
    are found through the program's head-argument index and kept only when
    ``quick_reject`` cannot separate ``φ`` from ``δ & (X̄ = Ȳ)``.  For a
    clause it does separate, ``φ & δ & (X̄ = Ȳ)`` has no solution, hence
    ``φ & not(δ & (X̄ = Ȳ))`` is equivalent to ``φ``: leaving the clause as
    it is gives the same least model as the paper's rewrite of every
    ``A``-clause.  Every untouched clause is the same object as in
    *program*, and the result shares *program*'s tables.
    """
    factory = factory or FreshVariableFactory(
        {variable.name for atom in deleted for variable in atom.variables()},
        (program.variable_names(),),
    )
    # Without an evaluator the separation is decided from the constraints'
    # syntax alone (pinned constants, intervals), so it holds at every time
    # point and not only for the sources' current state.
    separator = ConstraintSolver()
    touched = [
        (clause, atom)
        for atom in deleted
        for clause in program.head_candidates(atom)
        if not separator.quick_reject(
            clause.head.args, clause.constraint, atom.atom.args, atom.constraint
        )
    ]
    # Clause by clause, as the paper's rewrite walks the program: the fresh
    # names come out in the order a rewrite of every ``A``-clause gives them.
    touched.sort(key=lambda pair: pair[0].number)
    extras: Dict[int, Constraint] = {}
    for clause, atom in touched:
        _, negative = negated_atom_constraint(clause.head, atom, factory)
        extras[clause.number] = conjoin(extras.get(clause.number, TRUE), negative)
    return program.with_extra_constraints(extras)


def insertion_rewrite(
    program: ConstrainedDatabase,
    add_atoms: Sequence[ConstrainedAtom],
) -> ConstrainedDatabase:
    """Build the instance-equivalent ``P♭`` for an insertion.

    The ``Add`` atoms become constrained facts appended after the original
    clauses (so original clause numbers are preserved).
    """
    facts = [Clause(atom.atom, atom.constraint, ()) for atom in add_atoms]
    return program.with_clauses_added(facts)


def build_add_set(
    view: MaterializedView,
    inserted: ConstrainedAtom,
    solver: ConstraintSolver,
    factory: Optional[FreshVariableFactory] = None,
    options: EngineOptions = EngineOptions(),
) -> Tuple[ConstrainedAtom, ...]:
    """The paper's ``Add`` set for an insertion request.

    ``Add`` describes the instances of the inserted atom that are not already
    instances of the view: the inserted constraint ``ψ`` narrowed by
    ``not(φi & (X̄ = Ȳi))`` for every existing entry ``A(Ȳi) <- φi`` that
    overlaps it (looked up with
    :func:`~repro.datalog.join.overlap_candidates` under *options*).  When
    the result is unsolvable (everything already present) the set is empty.
    """
    factory = factory or FreshVariableFactory(
        {variable.name for variable in inserted.variables()},
        view.variable_name_tables(),
    )
    constraint = inserted.constraint
    for entry in overlap_candidates(view, inserted, solver, options):
        positive, negative = negated_atom_constraint(
            inserted.atom, entry.constrained_atom, factory
        )
        if not solver.is_satisfiable(conjoin(constraint, positive)):
            continue
        constraint = conjoin(constraint, negative)
    constraint = simplify(constraint, solver)
    if not solver.is_satisfiable(constraint):
        return ()
    return (ConstrainedAtom(inserted.atom, constraint),)
