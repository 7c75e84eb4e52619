"""Unit tests for the constraint AST."""

from __future__ import annotations

import pytest

from repro.constraints import (
    Comparison,
    Conjunction,
    Constant,
    DomainCall,
    FALSE,
    NegatedConjunction,
    Substitution,
    TRUE,
    Variable,
    bindings_constraint,
    compare,
    conjoin,
    equals,
    member,
    negate,
    not_equals,
    tuple_equalities,
)
from repro.errors import ConstraintError

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


class TestComparison:
    def test_construction_and_str(self):
        comparison = compare(X, "<=", 5)
        assert str(comparison) == "X <= 5"
        assert comparison.variables() == frozenset({X})

    def test_invalid_operator_rejected(self):
        with pytest.raises(ConstraintError):
            Comparison(X, "<>", Constant(1))

    def test_non_term_operand_rejected(self):
        with pytest.raises(ConstraintError):
            Comparison("X", "=", Constant(1))  # type: ignore[arg-type]

    def test_negated(self):
        assert compare(X, "<", 3).negated() == compare(X, ">=", 3)
        assert equals(X, Y).negated() == not_equals(X, Y)

    def test_flipped(self):
        assert compare(X, "<", 3).flipped() == Comparison(Constant(3), ">", X)
        assert equals(X, 3).flipped() == Comparison(Constant(3), "=", X)

    def test_classification(self):
        assert equals(X, 1).is_equality()

    def test_substitute(self):
        substituted = compare(X, "<", Y).substitute(Substitution({Y: Constant(7)}))
        assert substituted == compare(X, "<", 7)


class TestDomainCallAndMembership:
    def test_domain_call_str(self):
        atom = member(X, "paradox", "select_eq", "phonebook", "name", Y)
        assert "paradox:select_eq('phonebook', 'name', Y)" in str(atom)

    def test_membership_variables(self):
        atom = member(X, "d", "f", Y, 3)
        assert atom.variables() == frozenset({X, Y})

    def test_membership_negation_flips_polarity(self):
        atom = member(X, "d", "f")
        negative = atom.negated()
        assert negative.positive is False
        assert str(negative).startswith("not in(")
        assert negative.negated() == atom

    def test_membership_substitute(self):
        atom = member(X, "d", "f", Y)
        substituted = atom.substitute(Substitution({X: Constant(1), Y: Constant(2)}))
        assert substituted.element == Constant(1)
        assert substituted.call.args == (Constant(2),)

    def test_empty_domain_or_function_rejected(self):
        with pytest.raises(ConstraintError):
            DomainCall("", "f", ())
        with pytest.raises(ConstraintError):
            DomainCall("d", "", ())


class TestConjoin:
    def test_empty_is_true(self):
        assert conjoin() is TRUE

    def test_single_passthrough(self):
        only = equals(X, 1)
        assert conjoin(only) is only

    def test_flattening(self):
        nested = conjoin(conjoin(equals(X, 1), equals(Y, 2)), equals(Z, 3))
        assert isinstance(nested, Conjunction)
        assert len(nested.parts) == 3

    def test_true_dropped_false_dominates(self):
        assert conjoin(TRUE, equals(X, 1)) == equals(X, 1)
        assert conjoin(equals(X, 1), FALSE) is FALSE

    def test_and_operator(self):
        combined = equals(X, 1) & equals(Y, 2)
        assert isinstance(combined, Conjunction)

    def test_direct_conjunction_must_be_flat(self):
        with pytest.raises(ConstraintError):
            Conjunction((TRUE,))


class TestNegation:
    def test_negate_primitive(self):
        assert negate(equals(X, 1)) == not_equals(X, 1)
        assert negate(member(X, "d", "f")).positive is False

    def test_negate_true_false(self):
        assert negate(TRUE) is FALSE
        assert negate(FALSE) is TRUE

    def test_negate_conjunction_and_double_negation(self):
        conjunction = conjoin(equals(X, 1), equals(Y, 2))
        negated = negate(conjunction)
        assert isinstance(negated, NegatedConjunction)
        assert negate(negated) == conjunction

    def test_nested_negations_allowed(self):
        inner = negate(conjoin(equals(X, 1), equals(Y, 2)))
        outer = NegatedConjunction((equals(Z, 3), inner))
        assert inner in outer.parts

    def test_negated_conjunction_flattens_inner_conjunction(self):
        negated = NegatedConjunction((conjoin(equals(X, 1), equals(Y, 2)),))
        assert len(negated.parts) == 2

    def test_negated_conjunction_rejects_non_primitives(self):
        with pytest.raises(ConstraintError):
            NegatedConjunction((object(),))  # type: ignore[arg-type]

    def test_negated_conjunction_variables_and_substitution(self):
        negated = NegatedConjunction((equals(X, 1), equals(Y, Z)))
        assert negated.variables() == frozenset({X, Y, Z})
        substituted = negated.substitute(Substitution({Z: Constant(5)}))
        assert equals(Y, 5) in substituted.parts


class TestBindingHelpers:
    def test_bindings_constraint(self):
        constraint = bindings_constraint([(X, Constant(1)), (Y, Constant(2))])
        assert str(constraint) == "X = 1 & Y = 2"

    def test_tuple_equalities(self):
        constraint = tuple_equalities((X, Y), (Constant("a"), Z))
        assert str(constraint) == "X = 'a' & Y = Z"

    def test_tuple_equalities_length_mismatch(self):
        with pytest.raises(ConstraintError):
            tuple_equalities((X,), (Constant(1), Constant(2)))

    def test_trivial_constraints_str(self):
        assert str(TRUE) == "true"
        assert str(FALSE) == "false"
        assert TRUE.variables() == frozenset()
        assert FALSE.substitute(Substitution()) is FALSE
