"""Atoms and constrained atoms.

A *constrained atom* ``A(X̄) <- φ`` (paper Section 2.3) pairs an atom whose
arguments are terms with a constraint over (at least) the atom's variables.
Materialized mediated views are sets of constrained atoms; their semantics
``[A(X̄) <- φ]`` is the set of ground instances obtained from the solutions
of ``φ``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Optional, Sequence, Tuple

from repro.constraints.ast import Constraint, TRUE, conjoin
from repro.constraints.solutions import solution_set
from repro.constraints.solver import ConstraintSolver, bounds_of
from repro.constraints.terms import (
    Constant,
    FreshVariableFactory,
    Substitution,
    Term,
    Variable,
)
from repro.errors import ProgramError, SolverError


@dataclass(frozen=True)
class Atom:
    """A predicate applied to a tuple of terms, e.g. ``seenwith(X, Y)``."""

    predicate: str
    args: Tuple[Term, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.predicate:
            raise ProgramError("atoms need a predicate name")
        object.__setattr__(self, "args", tuple(self.args))
        for arg in self.args:
            if not isinstance(arg, (Variable, Constant)):
                raise ProgramError(f"atom argument is not a term: {arg!r}")

    @property
    def arity(self) -> int:
        """Number of arguments."""
        return len(self.args)

    @property
    def signature(self) -> Tuple[str, int]:
        """The (predicate, arity) pair identifying the relation."""
        return (self.predicate, len(self.args))

    def variables(self) -> FrozenSet[Variable]:
        """Set of variables occurring in the arguments."""
        return frozenset(arg for arg in self.args if isinstance(arg, Variable))

    def substitute(self, subst: Substitution) -> "Atom":
        """Apply a substitution to the arguments.

        When no argument is bound, ``apply_all`` hands the argument tuple
        back unchanged and the atom itself is returned, preserving sharing
        (and any equality caches keyed on it) through no-op renamings.
        """
        args = subst.apply_all(self.args)
        if args is self.args:
            return self
        return Atom(self.predicate, args)

    def __str__(self) -> str:
        if not self.args:
            return self.predicate
        rendered = ", ".join(str(arg) for arg in self.args)
        return f"{self.predicate}({rendered})"


@dataclass(frozen=True)
class ConstrainedAtom:
    """An atom together with the constraint restricting its variables."""

    atom: Atom
    constraint: Constraint = TRUE

    #: The instance set read without a universe, once enumerated, when the
    #: constraint is membership-free (written through the solver's
    #: ``cache_instances``).  Not a field: it is no part of the atom's
    #: identity and costs nothing until the atom is read.
    _instances = None

    def __post_init__(self) -> None:
        if not isinstance(self.atom, Atom):
            raise ProgramError(f"not an atom: {self.atom!r}")
        if not isinstance(self.constraint, Constraint):
            raise ProgramError(f"not a constraint: {self.constraint!r}")

    @property
    def predicate(self) -> str:
        """Predicate name of the underlying atom."""
        return self.atom.predicate

    @property
    def signature(self) -> Tuple[str, int]:
        """The (predicate, arity) pair of the underlying atom."""
        return self.atom.signature

    def variables(self) -> FrozenSet[Variable]:
        """All variables of the atom and its constraint."""
        return self.atom.variables() | self.constraint.variables()

    def substitute(self, subst: Substitution) -> "ConstrainedAtom":
        """Apply a substitution to atom and constraint.

        Both components detect no-op substitutions by identity (interned
        constraint nodes return themselves when no bound variable occurs),
        in which case this constrained atom is returned unchanged.
        """
        atom = self.atom.substitute(subst)
        constraint = self.constraint.substitute(subst)
        if atom is self.atom and constraint is self.constraint:
            return self
        return ConstrainedAtom(atom, constraint)

    def renamed_apart(
        self, factory: FreshVariableFactory
    ) -> Tuple["ConstrainedAtom", Substitution]:
        """Return a variant whose variables are fresh w.r.t. *factory*."""
        renaming = factory.renaming_for(self.variables())
        return self.substitute(renaming), renaming

    def with_constraint(self, constraint: Constraint) -> "ConstrainedAtom":
        """Return a copy with the constraint replaced."""
        return ConstrainedAtom(self.atom, constraint)

    def instances(
        self,
        solver: Optional[ConstraintSolver] = None,
        universe: Optional[Iterable[object]] = None,
    ) -> FrozenSet[Tuple[str, Tuple[object, ...]]]:
        """Return the ground instances ``[A(X̄) <- φ]``.

        Each instance is a ``(predicate, value-tuple)`` pair.  Constant
        arguments are kept as-is; variable arguments take every value allowed
        by the constraint (clipped to *universe* when the constraint alone
        does not determine a finite set).  Auxiliary variables occurring only
        in the constraint are existentially quantified: solutions are
        enumerated over all variables and projected onto the atom arguments.

        Without a universe the set is a function of the atom and of the
        sources its constraint names, and the solver remembers it (see
        :meth:`ConstraintSolver.cached_instances`): a repeated read
        enumerates only what changed.  After a change of some, the conjuncts
        over the others (the *stable* part) are read as an atom over the
        variables they share, remembered under their own sources' versions,
        and the rest is searched seeded with its rows (∃ distributes over &).
        """
        if universe is not None:
            return self._enumerate_instances(solver, universe)
        solver = solver or ConstraintSolver()
        instances, gate = solver.cached_instances(self)
        if instances is None:
            changed = solver.changed_domains(self, gate)
            instances = self._split_instances(solver, changed) if changed else None
            if instances is None:
                instances = self._enumerate_instances(solver, None)
            solver.cache_instances(self, gate, instances)
        return instances

    def _split_instances(self, solver: ConstraintSolver, changed: FrozenSet[str]):
        """The instances read through the split by *changed*, or ``None``: no
        stable conjunct calls a source, or the stable part cannot be enumerated
        alone (a shared variable it names only inside ``not(...)``, say)."""
        parts = self.constraint.conjuncts()
        moving = [part for part in parts if changed.intersection(part.domains())]
        stable = conjoin(*(part for part in parts if part not in moving))
        outside = self.atom.variables().union(*(part.variables() for part in moving))
        shared = tuple(sorted(stable.variables() & outside, key=lambda v: v.name))
        if stable._membership:
            try:
                rows = ConstrainedAtom(Atom("stable", shared), stable).instances(solver)
                return ConstrainedAtom(self.atom, conjoin(*moving))._enumerate_instances(
                    solver, None, shared, [row for _, row in rows]
                )
            except SolverError:
                pass
        solver.refuse_split(self, changed)
        return None

    def _enumerate_instances(
        self, solver: Optional[ConstraintSolver], universe: Optional[Iterable[object]],
        seeded: Sequence[Variable] = (), rows: Iterable[Sequence[object]] = ((),),
    ) -> FrozenSet[Tuple[str, Tuple[object, ...]]]:
        args = self.atom.args
        variables = list(dict.fromkeys(arg for arg in args if isinstance(arg, Variable)))
        solutions = solution_set(
            self.constraint, variables, solver, universe, seeded=seeded, rows=rows
        )
        return frozenset(
            (self.atom.predicate, tuple(a.value if type(a) is Constant else row[a] for a in args))
            for row in (dict(zip(variables, solution)) for solution in solutions)
        )

    def bound_tuple(self) -> Optional[Tuple[object, ...]]:
        """Return the single ground tuple this atom denotes, if determined.

        A constrained atom like ``P(X, Y) <- X = a & Y = b`` denotes exactly
        one ground fact; this helper extracts it (``None`` when some argument
        is not pinned to a constant by the constraint's equalities).
        """
        pins = bounds_of(self.constraint).pins
        try:
            return tuple(
                arg.value if isinstance(arg, Constant) else pins[arg].value
                for arg in self.atom.args
            )
        except KeyError:
            return None

    def __str__(self) -> str:
        return f"{self.atom} <- {self.constraint}"


def make_atom(predicate: str, *args: object) -> Atom:
    """Convenience constructor: non-term arguments become constants."""
    terms = tuple(
        arg if isinstance(arg, (Variable, Constant)) else Constant(arg)  # type: ignore[arg-type]
        for arg in args
    )
    return Atom(predicate, terms)


def ground_atom(predicate: str, values: Sequence[object]) -> Atom:
    """Build a ground atom from raw Python values."""
    return Atom(predicate, tuple(Constant(value) for value in values))
