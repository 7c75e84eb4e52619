"""A box is the branch procedure, decided by bounds arithmetic.

A conjunction of ``variable op constant`` comparisons -- a *box* -- never
reaches the DNF branch procedure: ``box_of`` reads it once per interned node
and ``box_satisfiable`` / ``box_entails`` decide it one variable at a time.
The branch procedure (``ConstraintSolver._branch_satisfiable``) stays the
reference.  Generated conjunctions of 1-6 literals over 1-3 variables, all
six operators in both orientations, meet constants from ints, floats,
``1`` / ``1.0``, strings, ``True``, ``2**53 ± 1`` and ``10**400``.

Numbers compare exactly, in the box and in the branch procedure alike: no
constant is converted to a float on the way.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.constraints import ConstraintSolver, Variable, compare, conjoin, solution_set
from repro.constraints.ast import COMPARISON_OPERATORS, Comparison, negate
from repro.constraints.solver import (
    _Branch,
    box_entails,
    box_literal,
    box_of,
    box_satisfiable,
)
from repro.constraints.terms import Constant

X, Y, Z = (Variable(name) for name in "XYZ")
BIG = 2**53

values = st.one_of(
    st.integers(-3, 8),
    st.floats(-3, 8, allow_nan=False).map(lambda value: round(value * 2) / 2),
    st.floats(allow_nan=False),
    st.sampled_from([1, 1.0, "a", "b", True, BIG - 1, BIG, BIG + 1, float(BIG), 10**400]),
)


@st.composite
def literals(draw, variables=(X, Y, Z)):
    variable = draw(st.sampled_from(variables))
    constant = Constant(draw(values))
    op = draw(st.sampled_from(COMPARISON_OPERATORS))
    if draw(st.booleans()):
        return Comparison(constant, op, variable)
    return Comparison(variable, op, constant)


@st.composite
def conjunctions(draw):
    variables = [X, Y, Z][: draw(st.integers(1, 3))]
    return draw(st.lists(literals(variables), min_size=1, max_size=6))


def branch_satisfiable(parts) -> bool:
    branch = _Branch()
    for part in parts:
        branch.add(part)
    return ConstraintSolver()._branch_satisfiable(branch)


def is_box_literal(part: Comparison) -> bool:
    value = (part.right if isinstance(part.right, Constant) else part.left).value
    if isinstance(value, bool):
        return False
    return part.op in ("=", "!=") or isinstance(value, (int, float))


@settings(max_examples=600, deadline=None)
@given(conjunctions())
def test_a_box_is_satisfiable_when_the_branch_procedure_says_so(parts):
    solver = ConstraintSolver()
    constraint = conjoin(*parts)
    box = box_of(constraint)
    assert (box is not None) == all(map(is_box_literal, parts))
    if box is not None:
        assert box_satisfiable(box) == branch_satisfiable(parts), str(constraint)
    assert solver.is_satisfiable(constraint) == branch_satisfiable(parts)


@settings(max_examples=600, deadline=None)
@given(conjunctions(), literals())
def test_a_box_entails_a_literal_when_the_branch_procedure_says_so(rest, literal):
    solver = ConstraintSolver()
    box = box_of(conjoin(*rest))
    assert box is not None or not all(map(is_box_literal, rest))
    if box is None or not is_box_literal(literal):
        return
    expected = not branch_satisfiable([*rest, negate(literal)])
    assert box_entails(box, box_literal(literal)) == expected, f"{conjoin(*rest)} |= {literal}"
    assert solver.entails(conjoin(*rest), literal) == expected


def test_the_box_is_read_once_per_node():
    constraint = conjoin(compare(X, ">=", 5), compare(6, ">", X), compare(Y, "!=", "a"))
    assert box_of(constraint) == ((X, ">=", 5), (X, "<", 6), (Y, "!=", "a"))
    assert box_of(constraint) is box_of(constraint)
    assert box_of(conjoin()) == ()
    for not_a_box in (
        compare(X, "<", Y),
        compare(X, "=", True),
        compare(X, "<", "b"),
        compare(X, "<=", float("nan")),
        conjoin(compare(X, ">=", 5), negate(compare(X, "=", 6) & compare(Y, "=", 1))),
    ):
        assert box_of(not_a_box) is None, str(not_a_box)


def test_a_point_with_a_hole_is_empty_and_a_bound_with_one_is_not():
    solver = ConstraintSolver()
    # The order is dense: ``X <= 5 & X != 5`` leaves every value below 5.
    assert not solver.is_satisfiable(
        conjoin(compare(X, ">=", 5), compare(X, "<=", 5), compare(X, "!=", 5))
    )
    assert solver.is_satisfiable(conjoin(compare(X, "<=", 5), compare(X, "!=", 5)))
    assert not solver.is_satisfiable(conjoin(compare(X, "=", 1), compare(X, "!=", 1.0)))
    assert not solver.is_satisfiable(conjoin(compare(X, "=", "a"), compare(X, "<", 5)))


class TestNumbersCompareExactly:
    """Constants beyond float precision or range, in the box and in the
    branch procedure (a var-var literal keeps a constraint out of the box)."""

    link = compare(Z, "=", Z)

    def test_an_int_beyond_float_range_is_a_bound(self):
        solver = ConstraintSolver()
        for extra in ((), (self.link,)):
            assert solver.is_satisfiable(conjoin(compare(Y, "<=", 10**400), *extra))
            assert not solver.is_satisfiable(
                conjoin(compare(Y, ">", 10**400), compare(Y, "<", 10**400), *extra)
            )

    def test_bounds_one_apart_beyond_float_precision_do_not_meet(self):
        solver = ConstraintSolver()
        for extra in ((), (self.link,)):
            assert not solver.is_satisfiable(
                conjoin(compare(X, ">=", BIG + 1), compare(X, "<=", BIG), *extra)
            )

    def test_a_pin_beyond_float_precision_is_not_the_value_below_it(self):
        solver = ConstraintSolver()
        # Calling it unsatisfiable would let a deletion purge a live entry.
        for extra in ((), (self.link,)):
            assert solver.is_satisfiable(
                conjoin(compare(X, "=", BIG + 1), compare(X, "!=", BIG), *extra)
            )
            assert solver.is_satisfiable(
                conjoin(compare(X, ">=", BIG + 1), compare(X, "<=", BIG + 1),
                        compare(X, "!=", BIG), *extra)
            )

    def test_the_quick_reject_profile_keeps_exact_bounds(self):
        solver = ConstraintSolver()
        assert solver.quick_reject((X,), compare(X, "<=", 10**400), (X,), compare(X, "=", 10**400 + 1))
        assert not solver.quick_reject((X,), compare(X, "<=", BIG), (X,), compare(X, "=", float(BIG)))
        assert solver.quick_reject((X,), compare(X, ">=", BIG + 1), (X,), compare(X, "=", BIG))

    def test_an_integer_interval_beyond_float_range_is_enumerated(self):
        huge = 10**400
        constraint = conjoin(compare(X, ">", huge), compare(X, "<", huge + 3))
        assert solution_set(constraint, [X]) == {(huge + 1,), (huge + 2,)}
        assert solution_set(conjoin(compare(X, ">", 2.5), compare(X, "<", 4)), [X]) == {(3,)}
