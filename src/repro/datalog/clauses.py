"""Constrained clauses (mediator rules).

A mediator / constrained database is a set of rules

    ``A  <-  D1 & ... & Dm  ||  A1, ..., An``

where ``A, A1, ..., An`` are atoms and ``D1, ..., Dm`` are constraints
(DCA-atoms, comparisons, or their negations after a rewrite).  ``||``
separates the constraint part from the ordinary body atoms, following the
paper's notation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Tuple

from repro.constraints.ast import Constraint, TRUE, conjoin
from repro.constraints.terms import FreshVariableFactory, Substitution, Variable
from repro.datalog.atoms import Atom
from repro.errors import ProgramError


@dataclass(frozen=True)
class Clause:
    """One constrained clause ``head <- constraint || body``."""

    head: Atom
    constraint: Constraint = TRUE
    body: Tuple[Atom, ...] = field(default_factory=tuple)
    number: Optional[int] = None

    #: :meth:`application_plan`, once compiled.  Not a field: no part of the
    #: clause's identity.
    _plan = None

    def __post_init__(self) -> None:
        if not isinstance(self.head, Atom):
            raise ProgramError(f"clause head must be an atom: {self.head!r}")
        object.__setattr__(self, "body", tuple(self.body))
        for atom in self.body:
            if not isinstance(atom, Atom):
                raise ProgramError(f"clause body element is not an atom: {atom!r}")
        if not isinstance(self.constraint, Constraint):
            raise ProgramError(f"clause constraint is invalid: {self.constraint!r}")
        if self.number is not None and self.number <= 0:
            raise ProgramError("clause numbers start at 1")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def is_fact_clause(self) -> bool:
        """True when the clause has no body atoms (only a constraint)."""
        return not self.body

    @property
    def predicate(self) -> str:
        """The predicate the clause defines."""
        return self.head.predicate

    def variables(self) -> FrozenSet[Variable]:
        """All variables occurring anywhere in the clause."""
        found = set(self.head.variables())
        found.update(self.constraint.variables())
        for atom in self.body:
            found.update(atom.variables())
        return frozenset(found)

    def application_plan(self) -> tuple:
        """What applying the clause to premises that pin their arguments
        comes down to, compiled once (see ``DeltaJoinKernel.apply_clause``).

        ``(bodies, emitted, plain_head)``: the argument tuple the values of
        each body position must equal; the head variables the body binds, in
        the order the derived constraint pins them (first occurrence in the
        body); whether the head arguments are distinct variables or
        constants.
        """
        plan = self._plan
        if plan is None:
            heads = self.head.variables()
            bound = dict.fromkeys(arg for atom in self.body for arg in atom.args)
            plan = (
                tuple(atom.args for atom in self.body),
                tuple(arg for arg in bound if arg in heads),
                len(heads) == sum(isinstance(arg, Variable) for arg in self.head.args),
            )
            object.__setattr__(self, "_plan", plan)
        return plan

    def body_predicates(self) -> Tuple[str, ...]:
        """Predicates referenced in the body, in order."""
        return tuple(atom.predicate for atom in self.body)

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------
    def substitute(self, subst: Substitution) -> "Clause":
        """Apply a substitution to every component (keeps the number)."""
        return Clause(
            self.head.substitute(subst),
            self.constraint.substitute(subst),
            tuple(atom.substitute(subst) for atom in self.body),
            self.number,
        )

    def renamed_apart(self, factory: FreshVariableFactory) -> "Clause":
        """Return a variant of the clause with fresh variables."""
        renaming = factory.renaming_for(self.variables())
        return self.substitute(renaming)

    def with_constraint(self, constraint: Constraint) -> "Clause":
        """Return a copy with the constraint part replaced."""
        return Clause(self.head, constraint, self.body, self.number)

    def with_extra_constraint(self, extra: Constraint) -> "Clause":
        """Return a copy with *extra* conjoined onto the constraint part."""
        return Clause(self.head, conjoin(self.constraint, extra), self.body, self.number)

    def with_number(self, number: Optional[int]) -> "Clause":
        """Return a copy carrying a (new) clause number."""
        return Clause(self.head, self.constraint, self.body, number)

    def __str__(self) -> str:
        prefix = f"[{self.number}] " if self.number is not None else ""
        pieces = [f"{prefix}{self.head}"]
        has_constraint = not isinstance(self.constraint, type(TRUE))
        if has_constraint or self.body:
            pieces.append(" <- ")
            if has_constraint:
                pieces.append(str(self.constraint))
            if self.body:
                if has_constraint:
                    pieces.append(" || ")
                pieces.append(", ".join(str(atom) for atom in self.body))
        return "".join(pieces)


def fact(head: Atom, constraint: Constraint = TRUE) -> Clause:
    """Build a body-free clause (a constrained fact)."""
    return Clause(head, constraint, ())


def rule(head: Atom, body: Tuple[Atom, ...], constraint: Constraint = TRUE) -> Clause:
    """Build a clause with body atoms and an optional constraint part."""
    return Clause(head, constraint, tuple(body))
