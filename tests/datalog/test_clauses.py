"""Unit tests for constrained clauses."""

from __future__ import annotations

import pytest

from repro.constraints import (
    Constant,
    FreshVariableFactory,
    Substitution,
    TRUE,
    Variable,
    compare,
    equals,
    member,
)
from repro.datalog import Atom, Clause, fact, rule
from repro.errors import ProgramError

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


class TestClauseBasics:
    def test_fact_clause(self):
        clause = fact(Atom("b", (X,)), compare(X, ">=", 5))
        assert clause.is_fact_clause
        assert clause.predicate == "b"
        assert clause.body == ()

    def test_rule_clause(self):
        clause = rule(Atom("c", (X,)), (Atom("a", (X,)),))
        assert not clause.is_fact_clause
        assert clause.body_predicates() == ("a",)

    def test_str_rendering(self):
        clause = Clause(Atom("a", (X,)), compare(X, ">=", 3), (), number=1)
        assert str(clause) == "[1] a(X) <- X >= 3"
        pure = Clause(Atom("c", (X,)), TRUE, (Atom("a", (X,)),))
        assert str(pure) == "c(X) <- a(X)"
        both = Clause(Atom("c", (X,)), equals(Y, 1), (Atom("a", (X,)),))
        assert " || " in str(both)

    def test_variables(self):
        clause = Clause(Atom("p", (X,)), member(Y, "d", "f"), (Atom("q", (Z,)),))
        assert clause.variables() == frozenset({X, Y, Z})

    def test_invalid_construction(self):
        with pytest.raises(ProgramError):
            Clause("head", TRUE, ())  # type: ignore[arg-type]
        with pytest.raises(ProgramError):
            Clause(Atom("p", (X,)), TRUE, ("q",))  # type: ignore[arg-type]
        with pytest.raises(ProgramError):
            Clause(Atom("p", (X,)), TRUE, (), number=0)


class TestClauseTransformations:
    def test_substitute_keeps_number(self):
        clause = Clause(Atom("p", (X,)), equals(X, Y), (Atom("q", (Y,)),), number=7)
        substituted = clause.substitute(Substitution({Y: Constant(2)}))
        assert substituted.number == 7
        assert substituted.constraint == equals(X, 2)
        assert substituted.body[0] == Atom("q", (Constant(2),))

    def test_renamed_apart(self):
        clause = Clause(Atom("p", (X,)), equals(X, Y), (Atom("q", (Y,)),))
        factory = FreshVariableFactory(["X", "Y"])
        renamed = clause.renamed_apart(factory)
        assert renamed.variables().isdisjoint({X, Y})
        # Internal sharing is preserved: head var equals constraint var link.
        head_var = renamed.head.args[0]
        assert head_var in renamed.constraint.variables()

    def test_with_constraint_and_extra_constraint(self):
        clause = fact(Atom("b", (X,)), compare(X, ">=", 5))
        replaced = clause.with_constraint(equals(X, 1))
        assert replaced.constraint == equals(X, 1)
        extended = clause.with_extra_constraint(compare(X, "<=", 9))
        assert len(list(extended.constraint.conjuncts())) == 2

    def test_with_number(self):
        clause = fact(Atom("b", (X,)))
        assert clause.with_number(9).number == 9
        assert clause.with_number(None).number is None
