"""Unit tests for the quick-reject pre-filter (``bounds_of``).

``ConstraintSolver.quick_reject(left_args, left_constraint, right_args,
right_constraint)`` may answer True only when conjoining the two constraints
with the binding equalities is *definitely* unsatisfiable.  The tests cover
the deciding summaries (pinned constants, intervals, per-domain hooks), the
conservative False cases, and -- the property everything rests on -- that a
True answer always agrees with the full satisfiability check.
"""

from __future__ import annotations

import pytest

from repro.constraints import (
    Comparison,
    Constant,
    ConstraintSolver,
    TRUE,
    Variable,
    compare,
    conjoin,
    equals,
    member,
    negate,
    tuple_equalities,
)
from repro.constraints.solver import bounds_of
from repro.constraints.terms import FreshVariableFactory
from repro.domains import DomainRegistry, make_arithmetic_domain

X, Y = Variable("X"), Variable("Y")


@pytest.fixture
def solver():
    return ConstraintSolver()


@pytest.fixture
def arith_solver():
    return ConstraintSolver(DomainRegistry([make_arithmetic_domain()]))


class TestBoundsOf:
    def test_pinned_value_via_equality_chain(self):
        bounds = bounds_of(conjoin(equals(X, Y), equals(Y, 5)))
        assert bounds.value_of(X, None) == 5

    def test_interval_from_orderings(self):
        bounds = bounds_of(conjoin(compare(X, ">=", 3), compare(X, "<", 9)))
        interval = bounds.intervals.get(X)
        assert interval is not None
        assert interval.low == 3 and not interval.low_strict
        assert interval.high == 9 and interval.high_strict

    def test_self_contradiction_is_detected(self):
        assert bounds_of(conjoin(equals(X, 2), compare(X, ">=", 5))).unsatisfiable

    def test_negations_are_ignored(self):
        unknown = object()
        bounds = bounds_of(conjoin(compare(X, ">=", 3), negate(equals(X, 4))))
        # The negated equality contributes nothing: no pinned value, only
        # the interval from the positive ordering survives.
        assert bounds.value_of(X, unknown) is unknown
        assert bounds.intervals.get(X) is not None
        assert not bounds.unsatisfiable

    # The pins bound_tuple and the argument index read.
    def test_direct_pin(self):
        assert bounds_of(equals(X, 3)).pins == {X: Constant(3)}

    def test_chained_pin(self):
        pins = bounds_of(conjoin(equals(X, Y), equals(Y, 3))).pins
        assert pins[X] == Constant(3)
        assert pins[Y] == Constant(3)

    def test_reversed_equality(self):
        assert bounds_of(Comparison(Constant(3), "=", X)).pins == {X: Constant(3)}

    def test_unbound_variables_absent(self):
        assert Y not in bounds_of(conjoin(equals(X, 3), compare(Y, ">", 1))).pins

    def test_negations_ignored_for_pins(self):
        assert Y not in bounds_of(conjoin(equals(X, 3), negate(equals(Y, 4)))).pins


class TestQuickReject:
    def test_clashing_pinned_constants(self, solver):
        assert solver.quick_reject((X,), equals(X, 1), (Y,), equals(Y, 2))

    def test_equal_pinned_constants_not_rejected(self, solver):
        assert not solver.quick_reject((X,), equals(X, 1), (Y,), equals(Y, 1))
        assert not solver.quick_reject((X,), equals(X, 1), (Y,), equals(Y, 1.0))

    def test_pinned_value_outside_interval(self, solver):
        assert solver.quick_reject(
            (X,), equals(X, 2), (Y,), compare(Y, ">=", 5)
        )
        assert not solver.quick_reject(
            (X,), equals(X, 7), (Y,), compare(Y, ">=", 5)
        )

    def test_non_numeric_value_against_interval(self, solver):
        # An ordering against a non-numeric value is unsatisfiable, which the
        # full solver also concludes.
        assert solver.quick_reject(
            (X,), equals(X, "name"), (Y,), compare(Y, ">=", 5)
        )

    def test_disjoint_intervals(self, solver):
        assert solver.quick_reject(
            (X,), compare(X, "<=", 4), (Y,), compare(Y, ">=", 5)
        )
        assert solver.quick_reject(
            (X,), compare(X, "<", 5), (Y,), compare(Y, ">=", 5)
        )
        assert not solver.quick_reject(
            (X,), compare(X, "<=", 5), (Y,), compare(Y, ">=", 5)
        )

    def test_unconstrained_sides_never_reject(self, solver):
        assert not solver.quick_reject((X,), TRUE, (Y,), TRUE)
        assert not solver.quick_reject((X,), TRUE, (Y,), equals(Y, 3))

    def test_arity_mismatch_is_left_to_the_full_check(self, solver):
        assert not solver.quick_reject((X,), equals(X, 1), (X, Y), TRUE)

    def test_domain_hook_refutes_membership(self, arith_solver):
        # in(Y, arith:greater(10)) cannot contain 3.
        constraint = member(Y, "arith", "greater", 10)
        assert arith_solver.quick_reject((X,), equals(X, 3), (Y,), constraint)
        assert not arith_solver.quick_reject((X,), equals(X, 11), (Y,), constraint)

    def test_domain_hook_needs_an_evaluator(self, solver):
        # Without a registry the DCA-atom is unknown: no opinion, no reject.
        constraint = member(Y, "arith", "greater", 10)
        assert not solver.quick_reject((X,), equals(X, 3), (Y,), constraint)


class TestQuickRejectSoundness:
    """A True answer must always agree with the full satisfiability check."""

    CONSTRAINTS = [
        TRUE,
        equals(X, 1),
        equals(X, 2),
        equals(X, "name"),
        compare(X, ">=", 2),
        compare(X, "<", 2),
        conjoin(compare(X, ">=", 0), compare(X, "<=", 4)),
        conjoin(compare(X, ">=", 5), compare(X, "<=", 9)),
        conjoin(equals(X, Y), equals(Y, 3)),
        member(X, "arith", "greater", 3),
        member(X, "arith", "between", 1, 4),
    ]

    def test_reject_implies_unsatisfiable(self, arith_solver):
        factory = FreshVariableFactory(["X", "Y"])
        for left in self.CONSTRAINTS:
            for right in self.CONSTRAINTS:
                rejected = arith_solver.quick_reject((X,), left, (X,), right)
                if not rejected:
                    continue
                renaming = factory.renaming_for(right.variables() | {X})
                renamed_right = right.substitute(renaming)
                combined = conjoin(
                    left,
                    renamed_right,
                    tuple_equalities((X,), (renaming.apply(X),)),
                )
                assert not arith_solver.is_satisfiable(combined), (
                    f"quick_reject({left}, {right}) = True but the "
                    f"conjunction is satisfiable"
                )


class TestBetweenHookTruncation:
    """reject_between must mirror between()'s int() truncation of bounds."""

    def test_fractional_bounds_match_the_evaluated_range(self):
        from repro.domains import DomainRegistry, make_arithmetic_domain

        registry = DomainRegistry([make_arithmetic_domain()])
        big = 2**53  # float(big + 1) is big: the integrality test must not convert
        for bounds in ((2.5, 7.5), (-10, -7.5), (0, 3), (big, big + 4)):
            members = set(registry.evaluate_call("arith", "between", bounds).iter_values())
            probe_values = set(range(-12, 10)) | {2.5, -7.5, True} | set(range(big - 1, big + 6))
            for value in probe_values:
                if registry.quick_reject("arith", "between", bounds, value):
                    assert value not in members, (
                        f"between{bounds} quick-rejects {value!r} "
                        f"but it IS a member of {sorted(members)}"
                    )
