"""Unit tests for constraint simplification and canonical forms."""

from __future__ import annotations

import pytest

from repro.constraints import (
    Comparison,
    Constant,
    ConstraintSolver,
    FALSE,
    NegatedConjunction,
    TRUE,
    Variable,
    canonical_form,
    compare,
    conjoin,
    equals,
    member,
    negate,
    not_equals,
    simplify,
)
from repro.constraints.projection import scope_negations

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


@pytest.fixture
def solver():
    return ConstraintSolver()


class TestSimplify:
    def test_trivial_passthrough(self, solver):
        assert simplify(TRUE, solver) is TRUE
        assert simplify(FALSE, solver) is FALSE
        assert simplify(equals(X, 1), solver) == equals(X, 1)

    def test_duplicate_conjuncts_removed(self, solver):
        constraint = conjoin(equals(X, 1), equals(X, 1), compare(Y, ">", 2))
        simplified = simplify(constraint, solver)
        assert len(list(simplified.conjuncts())) == 2

    def test_oriented_duplicates_removed(self, solver):
        constraint = conjoin(equals(X, 1), Comparison(Constant(1), "=", X))
        assert simplify(constraint, solver) == equals(X, 1)

    def test_paper_example5_simplification(self, solver):
        # (X >= 5) & not(X >= 5 & X = 6)  ==>  X >= 5 & X != 6
        constraint = conjoin(
            compare(X, ">=", 5),
            negate(conjoin(compare(X, ">=", 5), equals(X, 6))),
        )
        simplified = simplify(constraint, solver)
        assert simplified == conjoin(compare(X, ">=", 5), not_equals(X, 6))

    def test_negation_contradicted_by_context_disappears(self, solver):
        # X <= 5 & not(X >= 5 & X = 6): the inner conjunction can never hold,
        # so the negation is vacuously true.
        constraint = conjoin(
            compare(X, "<=", 5),
            negate(conjoin(compare(X, ">=", 5), equals(X, 6))),
        )
        assert simplify(constraint, solver) == compare(X, "<=", 5)

    def test_negation_entailed_by_context_gives_false(self, solver):
        # X = 6 & Y = 2 & not(X = 6 & Y = 2) is unsatisfiable.
        constraint = conjoin(
            equals(X, 6), equals(Y, 2), negate(conjoin(equals(X, 6), equals(Y, 2)))
        )
        assert simplify(constraint, solver) is FALSE

    def test_primitive_contradiction_detected_by_solver(self, solver):
        # negate() of a single primitive yields the dual primitive, so the
        # simplifier keeps both conjuncts; the solver still sees through it.
        constraint = conjoin(equals(X, 6), negate(equals(X, 6)))
        assert not solver.is_satisfiable(simplify(constraint, solver))

    def test_negation_with_local_variable_scoped(self, solver):
        # X >= 5 & not(Z = 6 & Z = X) over an atom p(X): Z is local to the
        # negation and pinned, so scoping where it is built leaves
        # not(X = 6), and the constraint reads X >= 5 & X != 6 after
        # simplification.
        constraint = scope_negations(
            conjoin(compare(X, ">=", 5), negate(conjoin(equals(Z, 6), equals(Z, X)))),
            [X],
        )
        simplified = simplify(constraint, solver)
        assert simplified == conjoin(compare(X, ">=", 5), not_equals(Constant(6), X)) or \
            simplified == conjoin(compare(X, ">=", 5), not_equals(X, 6))

    def test_multi_conjunct_residue_stays_negated(self, solver):
        # Both inner variables also occur positively, so neither inner
        # conjunct can be reduced away and the negation survives whole.
        constraint = conjoin(
            compare(X, ">=", 0),
            compare(Y, ">=", 0),
            negate(conjoin(equals(X, 1), equals(Y, 2))),
        )
        simplified = simplify(constraint, solver)
        assert any(isinstance(part, NegatedConjunction) for part in simplified.conjuncts())

    def test_membership_atoms_never_dropped(self, solver):
        constraint = conjoin(equals(X, 3), member(X, "d", "f"))
        simplified = simplify(constraint, solver, drop_redundant_comparisons=True)
        assert member(X, "d", "f") in simplified.conjuncts()

    def test_drop_redundant_comparisons(self, solver):
        constraint = conjoin(equals(X, 2), compare(X, ">=", 1), compare(X, "<=", 10))
        simplified = simplify(constraint, solver, drop_redundant_comparisons=True)
        assert simplified == equals(X, 2)

    def test_redundant_dropping_keeps_defining_equalities(self, solver):
        # Y = 3 defines Y even though nothing else constrains it.
        constraint = conjoin(equals(X, 2), equals(Y, 3))
        simplified = simplify(constraint, solver, drop_redundant_comparisons=True)
        assert equals(Y, 3) in simplified.conjuncts()

    def test_false_conjunct_collapses(self, solver):
        assert simplify(conjoin(equals(X, 1), FALSE), solver) is FALSE


class TestCanonicalForm:
    def test_orientation_constant_to_right(self):
        assert canonical_form(Comparison(Constant(5), "=", X)) == equals(X, 5)

    def test_orientation_of_orderings(self):
        assert canonical_form(Comparison(Constant(5), ">=", X)) == compare(X, "<=", 5)

    def test_variable_pair_ordering(self):
        assert canonical_form(equals(Y, X)) == equals(X, Y)

    def test_sorted_and_deduplicated(self):
        left = conjoin(equals(X, 1), compare(Y, ">", 2))
        right = conjoin(compare(Y, ">", 2), equals(X, 1), Comparison(Constant(1), "=", X))
        assert canonical_form(left) == canonical_form(right)

    def test_trivial(self):
        assert canonical_form(TRUE) is TRUE
        assert canonical_form(FALSE) is FALSE
