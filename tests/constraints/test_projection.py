"""Unit tests for variable elimination (projection) and negation scoping."""

from __future__ import annotations


from repro.constraints import (
    ConstraintSolver,
    FALSE,
    NegatedConjunction,
    TRUE,
    Variable,
    compare,
    conjoin,
    eliminate_variables,
    equals,
    member,
    negate,
    solution_set,
)
from repro.constraints.projection import scope_negations

X, Y, Z, W = Variable("X"), Variable("Y"), Variable("Z"), Variable("W")


class TestEliminateVariables:
    def test_auxiliary_equal_to_kept_variable(self):
        constraint = conjoin(compare(Z, ">=", 5), equals(Z, X))
        assert eliminate_variables(constraint, [X]) == compare(X, ">=", 5)

    def test_auxiliary_equal_to_constant(self):
        constraint = conjoin(equals(Z, 7), compare(X, "<", Z))
        assert eliminate_variables(constraint, [X]) == compare(X, "<", 7)

    def test_kept_variables_never_eliminated(self):
        constraint = conjoin(equals(X, Y), compare(X, ">", 0))
        projected = eliminate_variables(constraint, [X, Y])
        assert projected == constraint

    def test_chain_of_auxiliaries(self):
        constraint = conjoin(equals(Z, W), equals(W, 3), compare(X, ">=", Z))
        assert eliminate_variables(constraint, [X]) == compare(X, ">=", 3)

    def test_elimination_preserves_solutions(self):
        constraint = conjoin(equals(Z, X), compare(Z, ">=", 2), compare(Z, "<=", 4))
        projected = eliminate_variables(constraint, [X])
        universe = range(0, 8)
        assert solution_set(constraint, [X], universe=universe) == solution_set(
            projected, [X], universe=universe
        )

    def test_substitution_inside_negation(self):
        constraint = conjoin(equals(Z, 6), negate(conjoin(equals(X, Z))))
        projected = eliminate_variables(constraint, [X])
        # Z is gone and the negation now refers to the constant directly.
        assert Z not in projected.variables()

    def test_trivial_equalities_removed(self):
        constraint = conjoin(equals(Z, Z), equals(X, 1))
        assert eliminate_variables(constraint, [X]) == equals(X, 1)

    def test_true_false_passthrough(self):
        assert eliminate_variables(TRUE, [X]) is TRUE
        assert eliminate_variables(FALSE, [X]) is FALSE

    def test_membership_arguments_substituted(self):
        constraint = conjoin(equals(Z, "t"), member(X, "d", "f", Z))
        projected = eliminate_variables(constraint, [X])
        assert projected == member(X, "d", "f", "t")


class TestScopeNegations:
    def test_local_variable_inlined(self):
        constraint = conjoin(
            compare(X, ">=", 5), negate(conjoin(equals(Z, 6), equals(Z, X)))
        )
        scoped = scope_negations(constraint, ())
        negations = [p for p in scoped.conjuncts() if isinstance(p, NegatedConjunction)]
        assert len(negations) == 1
        assert Z not in negations[0].variables()

    def test_outer_variables_preserved(self):
        constraint = conjoin(equals(Y, 1), negate(conjoin(equals(Y, 1), equals(X, 2))))
        scoped = scope_negations(constraint, ())
        negations = [p for p in scoped.conjuncts() if isinstance(p, NegatedConjunction)]
        assert negations and Y in negations[0].variables()

    def test_fully_eliminable_inner_becomes_false(self):
        # not(Z = 6) as an explicit negated conjunction: Z is local and
        # pinned, so the inner conjunction always has a witness and the
        # negation is unsatisfiable.
        constraint = conjoin(compare(X, ">", 0), NegatedConjunction((equals(Z, 6),)))
        scoped = scope_negations(constraint, ())
        assert scoped is FALSE

    def test_outer_argument_stays_outer(self):
        # The atom the constraint is attached to names X: only Z is local.
        negation = negate(conjoin(equals(Z, 6), equals(Z, X)))
        assert scope_negations(negation, [X]) is NegatedConjunction((equals(6, X),))
        # With no atom in view nothing else names X, so X is local too and
        # ``Z = 6 & Z = X`` always has a witness.
        assert scope_negations(negation, ()) is FALSE

    def test_no_negations_returns_same_object(self):
        constraint = conjoin(equals(X, 1), compare(Y, "<", 2))
        assert scope_negations(constraint, ()) is constraint

    def test_scoping_preserves_solutions(self):
        solver = ConstraintSolver()
        constraint = conjoin(
            compare(X, ">=", 5), negate(conjoin(equals(Z, 6), equals(Z, X)))
        )
        scoped = scope_negations(constraint, ())
        universe = range(0, 10)
        assert solution_set(constraint, [X], solver=solver, universe=universe) == \
            solution_set(scoped, [X], solver=solver, universe=universe)
