"""Property-based tests for the constraint solver and simplifier.

Strategy: generate random conjunctions (optionally with one negated
conjunction) over a small pool of variables and small integer constants, and
check the solver's answers against brute-force evaluation over a finite
universe.  Because the constraint language is interpreted over an unbounded
numeric domain while the brute force uses a finite slice, the checks are
directional where they must be:

* brute-force satisfiable on the slice  =>  solver must say satisfiable;
* solver says entailed                   =>  brute force must find no
  counterexample on the slice;
* simplification must preserve the solution set on the slice exactly.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.constraints import (
    ConstraintSolver,
    Variable,
    canonical_form,
    compare,
    conjoin,
    negate,
    simplify,
    solution_set,
)

VARIABLES = (Variable("X"), Variable("Y"), Variable("Z"))
UNIVERSE = tuple(range(0, 6))
OPERATORS = ("=", "!=", "<", "<=", ">", ">=")


@st.composite
def comparisons(draw):
    left = draw(st.sampled_from(VARIABLES))
    operator = draw(st.sampled_from(OPERATORS))
    if draw(st.booleans()):
        right = draw(st.sampled_from(VARIABLES))
    else:
        right = draw(st.integers(min_value=0, max_value=5))
    return compare(left, operator, right)


@st.composite
def conjunctions(draw, max_size=4):
    parts = draw(st.lists(comparisons(), min_size=1, max_size=max_size))
    return conjoin(*parts)


@st.composite
def constraints_with_negation(draw):
    """A positive conjunction plus one negated conjunction.

    The inner conjuncts only use variables that also occur positively, so the
    library's quantification convention (variables occurring only inside a
    negation are quantified inside it) coincides with the brute-force
    evaluation over free variables.
    """
    positive = draw(conjunctions(max_size=3))
    used = sorted(positive.variables(), key=lambda v: v.name)
    if not used:
        return positive
    inner_parts = []
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        left = draw(st.sampled_from(used))
        operator = draw(st.sampled_from(OPERATORS))
        right_is_var = draw(st.booleans())
        right = draw(st.sampled_from(used)) if right_is_var else draw(
            st.integers(min_value=0, max_value=5)
        )
        inner_parts.append(compare(left, operator, right))
    return conjoin(positive, negate(conjoin(*inner_parts)))


def brute_force_solutions(constraint, solver):
    return solution_set(constraint, list(VARIABLES), solver=solver, universe=UNIVERSE)


@settings(max_examples=120, deadline=None)
@given(conjunctions())
def test_brute_force_sat_implies_solver_sat(constraint):
    solver = ConstraintSolver()
    if brute_force_solutions(constraint, solver):
        assert solver.is_satisfiable(constraint)


@settings(max_examples=120, deadline=None)
@given(conjunctions())
def test_solver_unsat_implies_no_finite_solutions(constraint):
    solver = ConstraintSolver()
    if not solver.is_satisfiable(constraint):
        assert not brute_force_solutions(constraint, solver)


@settings(max_examples=100, deadline=None)
@given(constraints_with_negation())
def test_negated_constraints_sat_consistency(constraint):
    solver = ConstraintSolver()
    if brute_force_solutions(constraint, solver):
        assert solver.is_satisfiable(constraint)


@settings(max_examples=100, deadline=None)
@given(conjunctions())
def test_simplify_preserves_solutions(constraint):
    solver = ConstraintSolver()
    simplified = simplify(constraint, solver)
    assert brute_force_solutions(simplified, solver) == brute_force_solutions(constraint, solver)


@settings(max_examples=80, deadline=None)
@given(constraints_with_negation())
def test_simplify_preserves_solutions_with_negations(constraint):
    solver = ConstraintSolver()
    simplified = simplify(constraint, solver)
    assert brute_force_solutions(simplified, solver) == brute_force_solutions(constraint, solver)


@settings(max_examples=80, deadline=None)
@given(conjunctions())
def test_simplify_with_redundancy_dropping_preserves_solutions(constraint):
    solver = ConstraintSolver()
    simplified = simplify(constraint, solver, drop_redundant_comparisons=True)
    assert brute_force_solutions(simplified, solver) == brute_force_solutions(constraint, solver)


@settings(max_examples=100, deadline=None)
@given(conjunctions(), comparisons())
def test_entailment_has_no_finite_counterexample(context, fact):
    solver = ConstraintSolver()
    if solver.entails(context, fact):
        context_solutions = brute_force_solutions(context, solver)
        fact_solutions = brute_force_solutions(fact, solver)
        assert context_solutions <= fact_solutions


@settings(max_examples=100, deadline=None)
@given(conjunctions())
def test_canonical_form_is_idempotent_and_solution_preserving(constraint):
    solver = ConstraintSolver()
    canonical = canonical_form(constraint)
    assert canonical_form(canonical) == canonical
    assert brute_force_solutions(canonical, solver) == brute_force_solutions(constraint, solver)


@settings(max_examples=60, deadline=None)
@given(conjunctions(), conjunctions())
def test_conjoin_is_intersection(left, right):
    solver = ConstraintSolver()
    combined = conjoin(left, right)
    assert brute_force_solutions(combined, solver) == (
        brute_force_solutions(left, solver) & brute_force_solutions(right, solver)
    )
