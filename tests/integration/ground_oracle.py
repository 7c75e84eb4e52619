"""A ground oracle: instance sets by naive bottom-up evaluation.

It shares no code with the engine it checks.  It reads the constraint AST's
node classes, the datalog atoms and clauses, and asks the domain registry
for memberships; nothing of projection, simplification, the solver, the
solution search, interning or maintenance.  So a defect in one of those
cannot hide from it the way it hides from a check that reads instances
through the same code.

* A program is evaluated over a finite *universe* of values, naively:
  every clause is applied to the ground tuples derived so far, until
  nothing changes.  A clause variable no body atom binds ranges over the
  universe (or over the constant a top-level ``V = c`` pins it to).
* Comparisons are written here.  ``not(ψ)`` holds when no assignment of
  ψ's local variables -- those the clause names nowhere else (head, body
  atoms, other conjuncts) -- over the universe satisfies ψ.
* Updates are applied to instance sets, never as rewrites: a deletion
  removes the request's instances from what every clause of its predicate
  derives, from then on; an insertion adds its instances as a ground fact.
"""

from __future__ import annotations

import itertools
import operator
from collections import defaultdict
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set

from repro.constraints.ast import (
    Comparison,
    Conjunction,
    FalseConstraint,
    Membership,
    NegatedConjunction,
    TrueConstraint,
)
from repro.constraints.terms import Constant, Variable

Instances = Dict[str, Set[tuple]]

_ORDERINGS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def compare(left: object, op: str, right: object) -> bool:
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    try:
        return _ORDERINGS[op](left, right)
    except TypeError:  # 'a' < 1: no order between a string and a number
        return False


def _value(term, assignment: Mapping[Variable, object]) -> object:
    return term.value if isinstance(term, Constant) else assignment[term]


def holds(constraint, assignment: Mapping[Variable, object], universe: Sequence[object], registry=None) -> bool:
    """*constraint* under *assignment*; a variable it does not bind is local
    to the ``not(...)`` it occurs in."""
    if isinstance(constraint, TrueConstraint):
        return True
    if isinstance(constraint, FalseConstraint):
        return False
    if isinstance(constraint, Conjunction):
        return all(holds(part, assignment, universe, registry) for part in constraint.parts)
    if isinstance(constraint, Comparison):
        return compare(_value(constraint.left, assignment), constraint.op, _value(constraint.right, assignment))
    if isinstance(constraint, Membership):
        call = constraint.call
        result = registry.evaluate_call(
            call.domain, call.function, tuple(_value(arg, assignment) for arg in call.args)
        )
        return bool(result.contains(_value(constraint.element, assignment))) == constraint.positive
    if isinstance(constraint, NegatedConjunction):
        local = sorted(constraint.variables() - assignment.keys(), key=lambda v: v.name)
        for values in itertools.product(universe, repeat=len(local)):
            extended = {**assignment, **dict(zip(local, values))}
            if all(holds(part, extended, universe, registry) for part in constraint.parts):
                return False
        return True
    raise TypeError(f"unknown constraint node: {constraint!r}")


def outer_variables(constraint, atoms: Iterable) -> Set[Variable]:
    """What a clause (or a constrained atom) names outside each of its
    ``not(...)`` conjuncts: its atoms' variables, those of its other
    conjuncts, and those two negations share."""
    outer: Set[Variable] = set()
    for atom in atoms:
        outer.update(arg for arg in atom.args if isinstance(arg, Variable))
    seen: Set[Variable] = set()
    for part in constraint.conjuncts():
        if isinstance(part, NegatedConjunction):
            outer.update(part.variables() & seen)
            seen.update(part.variables())
        else:
            outer.update(part.variables())
    return outer


def _candidates(variable: Variable, constraint, universe: Sequence[object]) -> Sequence[object]:
    """The constant a top-level ``V = c`` pins *variable* to, else the universe."""
    for part in constraint.conjuncts():
        if isinstance(part, Comparison) and part.op == "=":
            for this, other in ((part.left, part.right), (part.right, part.left)):
                if this == variable and isinstance(other, Constant):
                    return (other.value,)
    return universe


def _assignments(free: List[Variable], bound: Dict[Variable, object], constraint, universe):
    choices = [_candidates(variable, constraint, universe) for variable in free]
    for values in itertools.product(*choices):
        yield {**bound, **dict(zip(free, values))}


def _match(args, row: tuple, bindings: Dict[Variable, object]) -> Optional[Dict[Variable, object]]:
    extended = dict(bindings)
    for arg, value in zip(args, row):
        if isinstance(arg, Constant):
            if arg.value != value:
                return None
        elif extended.setdefault(arg, value) != value:
            return None
    return extended


def constrained_atom_instances(atom, constraint, universe, registry=None) -> FrozenSet[tuple]:
    """The ground instances of ``atom <- constraint`` over *universe*."""
    free = sorted(outer_variables(constraint, (atom,)), key=lambda v: v.name)
    return frozenset(
        tuple(_value(arg, assignment) for arg in atom.args)
        for assignment in _assignments(free, {}, constraint, universe)
        if holds(constraint, assignment, universe, registry)
    )


class _Rule:
    """A clause, or an inserted fact's instances, and what deletions issued
    after it entered remove from what it derives."""

    def __init__(self, clause=None, predicate=None, rows=frozenset()):
        self.clause = clause
        self.predicate = clause.head.predicate if clause is not None else predicate
        self.rows = rows
        self.removed: Set[tuple] = set()

    def derive(self, facts: Instances, universe, registry) -> Set[tuple]:
        if self.clause is None:
            return set(self.rows) - self.removed
        clause = self.clause
        partial: List[Dict[Variable, object]] = [{}]
        for body_atom in clause.body:
            rows = facts.get(body_atom.predicate, ())
            partial = [
                extended
                for bindings in partial
                for row in rows
                if len(row) == len(body_atom.args)
                and (extended := _match(body_atom.args, row, bindings)) is not None
            ]
        names = outer_variables(clause.constraint, (clause.head, *clause.body))
        derived = set()
        for bindings in partial:
            free = sorted(names - bindings.keys(), key=lambda v: v.name)
            for assignment in _assignments(free, bindings, clause.constraint, universe):
                if holds(clause.constraint, assignment, universe, registry):
                    derived.add(tuple(_value(arg, assignment) for arg in clause.head.args))
        return derived - self.removed


class GroundOracle:
    """A program and the updates applied to it, evaluated afresh on demand."""

    def __init__(self, program, universe: Iterable[object], registry=None) -> None:
        self.universe = tuple(universe)
        self.registry = registry
        self.rules = [_Rule(clause) for clause in program]

    def delete(self, atom) -> None:
        """Delete the instances of a constrained atom from its predicate."""
        gone = constrained_atom_instances(atom.atom, atom.constraint, self.universe, self.registry)
        for rule in self.rules:
            if rule.predicate == atom.atom.predicate:
                rule.removed.update(gone)

    def insert(self, atom) -> None:
        """Insert the instances of a constrained atom as a ground fact."""
        rows = constrained_atom_instances(atom.atom, atom.constraint, self.universe, self.registry)
        self.rules.append(_Rule(predicate=atom.atom.predicate, rows=rows))

    def instances(self) -> Instances:
        facts: Instances = defaultdict(set)
        changed = True
        while changed:
            changed = False
            for rule in self.rules:
                fresh = rule.derive(facts, self.universe, self.registry) - facts[rule.predicate]
                if fresh:
                    facts[rule.predicate] |= fresh
                    changed = True
        return facts


def constants_of(clauses_and_atoms: Iterable) -> Set[object]:
    """Every constant a clause or constrained atom names (a universe must
    hold them: a pinned value outside it would go unseen)."""
    found: Set[object] = set()

    def visit(node) -> None:
        if isinstance(node, Constant):
            found.add(node.value)
        elif isinstance(node, Comparison):
            visit(node.left)
            visit(node.right)
        elif isinstance(node, Membership):
            visit(node.element)
            for arg in node.call.args:
                visit(arg)
        elif isinstance(node, (Conjunction, NegatedConjunction)):
            for part in node.parts:
                visit(part)

    for item in clauses_and_atoms:
        atoms = (item.head, *item.body) if hasattr(item, "body") else (item.atom,)
        for atom in atoms:
            for arg in atom.args:
                visit(arg)
        visit(item.constraint)
    return found
