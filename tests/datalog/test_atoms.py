"""Unit tests for atoms and constrained atoms."""

from __future__ import annotations

import pytest

from repro.constraints import (
    Constant,
    ConstraintSolver,
    FreshVariableFactory,
    Substitution,
    TRUE,
    Variable,
    compare,
    conjoin,
    equals,
)
from repro.datalog import Atom, ConstrainedAtom, ground_atom, make_atom
from repro.errors import ProgramError

X, Y = Variable("X"), Variable("Y")


class TestAtom:
    def test_construction_and_str(self):
        atom = Atom("seenwith", (X, Constant("Don")))
        assert str(atom) == "seenwith(X, 'Don')"
        assert atom.arity == 2
        assert atom.signature == ("seenwith", 2)

    def test_zero_arity(self):
        atom = Atom("flag")
        assert str(atom) == "flag"
        assert atom.arity == 0

    def test_variables(self):
        assert Atom("p", (X, Constant(1), Y)).variables() == frozenset({X, Y})

    def test_substitute(self):
        atom = Atom("p", (X, Y))
        substituted = atom.substitute(Substitution({X: Constant(1)}))
        assert substituted == Atom("p", (Constant(1), Y))

    def test_ground_atom_wraps_values(self):
        assert ground_atom("p", [1, "a"]) == Atom("p", (Constant(1), Constant("a")))

    def test_make_atom_coerces(self):
        atom = make_atom("p", X, 3, "s")
        assert atom.args == (X, Constant(3), Constant("s"))

    def test_invalid_construction(self):
        with pytest.raises(ProgramError):
            Atom("", ())
        with pytest.raises(ProgramError):
            Atom("p", ("raw",))  # type: ignore[arg-type]


class TestConstrainedAtom:
    def test_str(self):
        catom = ConstrainedAtom(Atom("a", (X,)), compare(X, ">=", 3))
        assert str(catom) == "a(X) <- X >= 3"

    def test_default_constraint_is_true(self):
        catom = ConstrainedAtom(Atom("a", (X,)))
        assert catom.constraint is TRUE

    def test_variables_include_constraint(self):
        catom = ConstrainedAtom(Atom("a", (X,)), equals(Y, 2))
        assert catom.variables() == frozenset({X, Y})

    def test_substitute(self):
        catom = ConstrainedAtom(Atom("a", (X,)), compare(X, ">", Y))
        substituted = catom.substitute(Substitution({Y: Constant(0)}))
        assert substituted.constraint == compare(X, ">", 0)

    def test_renamed_apart(self):
        factory = FreshVariableFactory(["X"])
        catom = ConstrainedAtom(Atom("a", (X,)), compare(X, ">=", 3))
        renamed, renaming = catom.renamed_apart(factory)
        assert renamed.atom.args[0] != X
        assert renaming[X] == renamed.atom.args[0]

    def test_with_constraint(self):
        catom = ConstrainedAtom(Atom("a", (X,)), compare(X, ">=", 3))
        replaced = catom.with_constraint(equals(X, 1))
        assert replaced.constraint == equals(X, 1)

    def test_instances_with_bounded_constraint(self):
        catom = ConstrainedAtom(
            Atom("a", (X,)), conjoin(compare(X, ">=", 1), compare(X, "<=", 3))
        )
        assert catom.instances() == {("a", (1,)), ("a", (2,)), ("a", (3,))}

    def test_instances_with_universe(self):
        catom = ConstrainedAtom(Atom("a", (X,)), compare(X, ">=", 8))
        instances = catom.instances(universe=range(0, 11))
        assert instances == {("a", (8,)), ("a", (9,)), ("a", (10,))}

    def test_instances_with_constant_argument(self):
        catom = ConstrainedAtom(Atom("p", (Constant("k"), X)), equals(X, 1))
        assert catom.instances() == {("p", ("k", 1))}

    def test_instances_project_auxiliary_variables(self):
        solver = ConstraintSolver()
        catom = ConstrainedAtom(
            Atom("a", (X,)), conjoin(equals(Y, 4), equals(X, Y))
        )
        assert catom.instances(solver) == {("a", (4,))}

    def test_bound_tuple(self):
        bound = ConstrainedAtom(Atom("p", (X, Y)), conjoin(equals(X, 1), equals(Y, 2)))
        assert bound.bound_tuple() == (1, 2)
        unbound = ConstrainedAtom(Atom("p", (X, Y)), equals(X, 1))
        assert unbound.bound_tuple() is None
        with_constant = ConstrainedAtom(Atom("p", (Constant("c"), X)), equals(X, 5))
        assert with_constant.bound_tuple() == ("c", 5)

    def test_invalid_construction(self):
        with pytest.raises(ProgramError):
            ConstrainedAtom("not an atom", TRUE)  # type: ignore[arg-type]
        with pytest.raises(ProgramError):
            ConstrainedAtom(Atom("p", (X,)), "not a constraint")  # type: ignore[arg-type]
