"""Unit tests for solution enumeration."""

from __future__ import annotations

import inspect
import itertools
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.constraints import (
    ConstraintSolver,
    FALSE,
    TRUE,
    Variable,
    compare,
    conjoin,
    enumerate_solutions,
    equals,
    member,
    negate,
    not_equals,
    solution_set,
)
from repro.constraints import solutions as solutions_module
from repro.constraints.ast import FLIPPED_OPERATOR, Comparison, Membership, NegatedConjunction
from repro.constraints.interfaces import FrozenResultSet
from repro.constraints.solutions import (
    DEFAULT_MAX_INTERVAL_WIDTH,
    _integer_interval,
    _plan_for,
    _Search,
)
from repro.constraints.terms import Constant
from repro.domains import (
    Domain,
    DomainRegistry,
    IntensionalResultSet,
    make_arithmetic_domain,
)
from repro.errors import SolverError, UnknownDomainError

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


@pytest.fixture
def solver():
    return ConstraintSolver()


@pytest.fixture
def domain_solver():
    phone = Domain("phone")
    phone.register("names", lambda: {"ann", "bob", "cid"})
    phone.register("number_of", lambda name: {f"+1-{name}"} if name != "cid" else set())
    phone.register("has_number", lambda: {"ann", "bob"})
    return ConstraintSolver(DomainRegistry([phone, make_arithmetic_domain()]))


class TestBasicEnumeration:
    def test_equality_binding(self, solver):
        assert solution_set(equals(X, 3), [X]) == {(3,)}

    def test_equality_through_chain(self, solver):
        constraint = conjoin(equals(X, Y), equals(Y, "v"))
        assert solution_set(constraint, [X, Y]) == {("v", "v")}

    def test_bounded_interval(self, solver):
        constraint = conjoin(compare(X, ">=", 2), compare(X, "<=", 4))
        assert solution_set(constraint, [X]) == {(2,), (3,), (4,)}

    def test_strict_interval_bounds(self, solver):
        constraint = conjoin(compare(X, ">", 2), compare(X, "<", 5))
        assert solution_set(constraint, [X]) == {(3,), (4,)}

    def test_universe_fallback(self, solver):
        assert solution_set(compare(X, ">=", 8), [X], universe=range(0, 11)) == {
            (8,), (9,), (10,),
        }

    def test_no_universe_for_unbounded_raises(self, solver):
        with pytest.raises(SolverError):
            solution_set(compare(X, ">=", 8), [X])

    def test_false_has_no_solutions(self, solver):
        assert solution_set(FALSE, [X]) == frozenset()

    def test_true_uses_universe(self, solver):
        assert solution_set(TRUE, [X], universe=[1, 2]) == {(1,), (2,)}

    def test_disequality_filters(self, solver):
        constraint = conjoin(compare(X, ">=", 0), compare(X, "<=", 3), not_equals(X, 2))
        assert solution_set(constraint, [X]) == {(0,), (1,), (3,)}

    def test_multiple_variables_cross_product(self, solver):
        constraint = conjoin(
            compare(X, ">=", 0), compare(X, "<=", 1),
            compare(Y, ">=", 5), compare(Y, "<=", 6),
        )
        assert solution_set(constraint, [X, Y]) == {(0, 5), (0, 6), (1, 5), (1, 6)}

    def test_inter_variable_comparison(self, solver):
        constraint = conjoin(
            compare(X, ">=", 0), compare(X, "<=", 3),
            compare(Y, ">=", 0), compare(Y, "<=", 3),
            compare(X, "<", Y),
        )
        solutions = solution_set(constraint, [X, Y])
        assert all(x < y for x, y in solutions)
        assert (0, 1) in solutions and (2, 3) in solutions

    def test_duplicate_projections_deduplicated(self, solver):
        # Y ranges over two values but is projected away.
        constraint = conjoin(equals(X, 1), compare(Y, ">=", 0), compare(Y, "<=", 1))
        assert solution_set(constraint, [X]) == {(1,)}

    def test_enumerate_returns_dicts(self, solver):
        assignments = list(enumerate_solutions(equals(X, 2), [X]))
        assert assignments == [{X: 2}]


class TestNegationSemantics:
    def test_negation_removes_solutions(self, solver):
        constraint = conjoin(
            compare(X, ">=", 0), compare(X, "<=", 4), negate(equals(X, 2))
        )
        assert solution_set(constraint, [X]) == {(0,), (1,), (3,), (4,)}

    def test_negation_local_variables_are_universal(self, solver):
        # not(Z = 6 & Z = X): no value of Z may witness the inner conjunction.
        constraint = conjoin(
            compare(X, ">=", 5),
            compare(X, "<=", 8),
            negate(conjoin(equals(Z, 6), equals(Z, X))),
        )
        assert solution_set(constraint, [X]) == {(5,), (7,), (8,)}

    def test_negation_of_conjunction(self, solver):
        constraint = conjoin(
            compare(X, ">=", 0), compare(X, "<=", 1),
            compare(Y, ">=", 0), compare(Y, "<=", 1),
            negate(conjoin(equals(X, 1), equals(Y, 1))),
        )
        assert solution_set(constraint, [X, Y]) == {(0, 0), (0, 1), (1, 0)}


class TestMembershipEnumeration:
    def test_finite_membership_candidates(self, domain_solver):
        assert solution_set(member(X, "phone", "names"), [X], solver=domain_solver) == {
            ("ann",), ("bob",), ("cid",),
        }

    def test_chained_membership(self, domain_solver):
        constraint = conjoin(
            member(X, "phone", "names"), member(Y, "phone", "number_of", X)
        )
        assert solution_set(constraint, [X, Y], solver=domain_solver) == {
            ("ann", "+1-ann"), ("bob", "+1-bob"),
        }

    def test_membership_intersection(self, domain_solver):
        constraint = conjoin(
            member(X, "phone", "names"), member(X, "arith", "between", 0, 5)
        )
        assert solution_set(constraint, [X], solver=domain_solver) == frozenset()

    def test_arithmetic_between(self, domain_solver):
        constraint = member(X, "arith", "between", 2, 4)
        assert solution_set(constraint, [X], solver=domain_solver) == {(2,), (3,), (4,)}

    def test_negative_membership(self, domain_solver):
        constraint = conjoin(
            member(X, "phone", "names"),
            member(X, "phone", "has_number").negated(),
        )
        # Only 'cid' has no phone number.
        assert solution_set(constraint, [X], solver=domain_solver) == {("cid",)}


class TestEnumerationGuards:
    def test_max_solutions_guard(self, solver):
        with pytest.raises(SolverError):
            list(
                enumerate_solutions(
                    TRUE, [X, Y], solver=solver, universe=range(100), max_solutions=10
                )
            )


# ---------------------------------------------------------------------------
# The single-pass search against a brute-force reference
# ---------------------------------------------------------------------------

W = Variable("W")  # only ever used inside a negation: quantified there
SMALL_UNIVERSE = tuple(range(5))


class ListedResultSet:
    """A finite result set that is not a :class:`FrozenResultSet`: its values
    come unsorted and repeated, the way a source might list them."""

    def __init__(self, values):
        self._values = tuple(values)

    def contains(self, value):
        return value in self._values

    def is_finite(self):
        return True

    def is_empty(self):
        return not self._values

    def iter_values(self):
        return iter(self._values)

    def size_hint(self):
        return len(self._values)


def toy_registry(executed=None) -> DomainRegistry:
    """Finite, chained and intensional calls whose values stay in the universe."""
    log = executed if executed is not None else []
    toy = Domain("toy")
    toy.register("nums", lambda: log.append("nums") or {0, 1, 2})
    toy.register("evens", lambda: log.append("evens") or ListedResultSet((4, 2, 0, 2)))
    toy.register(
        "succ", lambda x: log.append("succ") or ({x + 1} if x in (0, 1, 2) else set())
    )
    toy.register("small", lambda x: log.append("small") or x < 2)
    toy.register(
        "big",
        lambda: IntensionalResultSet(lambda v: v >= 2, description="values >= 2"),
    )
    return DomainRegistry([toy])


def brute_force(constraint, wanted, solver, universe):
    """``{θ|wanted}`` over every assignment of the searched variables drawn
    from *universe* that the solver's exact ground evaluator accepts."""
    searched = list(dict.fromkeys(wanted))
    for part in constraint.conjuncts():
        if not isinstance(part, NegatedConjunction):
            searched += sorted(part.variables() - set(searched), key=lambda v: v.name)
    found = set()
    for values in itertools.product(universe, repeat=len(searched)):
        assignment = dict(zip(searched, values))
        if solver.evaluate_ground(constraint, assignment):
            found.add(tuple(assignment[var] for var in wanted))
    return found


def finite_sources(element, terms):
    """A positive DCA-atom on *element* whose result is finite."""
    return st.one_of(
        st.just(member(element, "toy", "nums")),
        st.just(member(element, "toy", "evens")),
        st.builds(lambda arg: member(element, "toy", "succ", arg), terms),
    )


def literals(variables):
    terms = st.one_of(st.sampled_from(variables), st.sampled_from(SMALL_UNIVERSE))
    comparisons = st.builds(
        compare,
        st.sampled_from(variables),
        st.sampled_from(("=", "!=", "<", "<=", ">", ">=")),
        terms,
    )
    calls = st.one_of(
        st.builds(lambda element: member(element, "toy", "nums"), terms),
        st.builds(lambda element: member(element, "toy", "evens"), terms),
        st.builds(lambda element, arg: member(element, "toy", "succ", arg), terms, terms),
        st.builds(lambda arg: member(True, "toy", "small", arg), terms),
        st.builds(lambda element: member(element, "toy", "big"), terms),
    )
    memberships = st.builds(
        lambda literal, positive: literal if positive else literal.negated(),
        calls,
        st.booleans(),
    )
    return st.one_of(comparisons, memberships)


@st.composite
def search_cases(draw):
    outer = (X, Y, Z)
    positive = draw(st.lists(literals(outer), min_size=1, max_size=5))
    # Two finite sources on one element: its candidates come from both, or
    # from one while the other waits for an argument.
    terms = st.one_of(st.sampled_from(outer), st.sampled_from(SMALL_UNIVERSE))
    element = draw(st.sampled_from(outer))
    positive += draw(st.lists(finite_sources(element, terms), max_size=2))
    negations = draw(
        st.lists(
            st.lists(literals(outer + (W,)), min_size=1, max_size=3), max_size=2
        )
    )
    wanted = draw(st.lists(st.sampled_from(outer), min_size=1, max_size=3))
    constraint = conjoin(*positive, *(negate(conjoin(*inner)) for inner in negations))
    return constraint, wanted


class TestSearchMatchesBruteForce:
    @settings(max_examples=150, deadline=None)
    @given(search_cases())
    def test_same_solutions_as_the_reference(self, case):
        constraint, wanted = case
        solver = ConstraintSolver(toy_registry())
        assert solution_set(
            constraint, wanted, solver=solver, universe=SMALL_UNIVERSE
        ) == brute_force(constraint, list(dict.fromkeys(wanted)), solver, SMALL_UNIVERSE)

    def test_negation_with_an_inner_only_variable_is_decided_at_the_leaf(self):
        solver = ConstraintSolver(toy_registry())
        constraint = conjoin(
            member(X, "toy", "nums"),
            member(Y, "toy", "succ", X),
            negate(conjoin(equals(W, Y), member(W, "toy", "nums"))),
        )
        assert solution_set(constraint, [X, Y], solver=solver) == {(2, 3)}
        assert brute_force(constraint, [X, Y], solver, SMALL_UNIVERSE) == {(2, 3)}

    def test_solutions_come_in_the_order_of_the_frozen_variable_rule(self):
        """Pinned first, then the smallest finite membership set, then the
        bounded interval; ties by position; values sorted by type name and
        ``repr``.  The order below is the parent implementation's."""
        solver = ConstraintSolver(toy_registry())
        constraint = conjoin(
            compare(X, ">=", 1), compare(X, "<=", 4),
            member(Y, "toy", "nums"),
            member(Z, "toy", "succ", Y),
            compare(X, "!=", Z),
        )
        found = [
            (s[X], s[Y], s[Z])
            for s in enumerate_solutions(constraint, [X, Y, Z], solver=solver)
        ]
        assert found == [
            (2, 0, 1), (3, 0, 1), (4, 0, 1),
            (1, 1, 2), (3, 1, 2), (4, 1, 2),
            (1, 2, 3), (2, 2, 3), (4, 2, 3),
        ]

    def test_a_conjunct_is_evaluated_once_per_branch(self):
        """``small(X)`` is decided when X is assigned and never again below."""
        executed = []
        solver = ConstraintSolver(toy_registry(executed))
        constraint = conjoin(
            member(X, "toy", "nums"),
            member(Y, "toy", "nums"),
            member(True, "toy", "small", X),
        )
        assert solution_set(constraint, [X, Y], solver=solver) == {
            (x, y) for x in (0, 1) for y in (0, 1, 2)
        }
        assert executed.count("small") == 3  # one per candidate of X

    def test_a_candidate_is_not_tested_again_against_its_own_source(self):
        """Counted: ``contains`` on ``nums``'s result is never asked for a
        value drawn from it, while the sources the draw skipped -- an
        intensional result, a call waiting for an argument, a domain the
        registry lacks -- are still evaluated."""
        asked = []

        class Counted(FrozenResultSet):
            __slots__ = ("name",)

            def __init__(self, name, values):
                super().__init__(values)
                self.name = name

            def contains(self, value):
                asked.append(self.name)
                return super().contains(value)

        toy = Domain("toy")
        toy.register("nums", lambda: Counted("nums", {0, 1, 2}))
        toy.register("succ", lambda y: Counted("succ", {y + 1}))
        toy.register(
            "big", lambda: IntensionalResultSet(lambda v: asked.append("big") or v >= 2)
        )
        solver = ConstraintSolver(DomainRegistry([toy]))
        drawn = conjoin(member(X, "toy", "nums"), member(Y, "toy", "nums"))
        assert solution_set(drawn, [X, Y], solver=solver) == {
            (x, y) for x in (0, 1, 2) for y in (0, 1, 2)
        }
        assert asked == []
        # X draws from nums alone: big is intensional and succ(Y) waits for
        # Y (an interval, so X goes first); each is decided where it grounds.
        skipped = conjoin(
            member(X, "toy", "nums"), member(X, "toy", "big"), member(X, "toy", "succ", Y),
            compare(Y, ">=", 0), compare(Y, "<=", 1),
        )
        assert solution_set(skipped, [X, Y], solver=solver) == {(2, 1)}
        assert sorted(asked) == ["big"] * 3 + ["succ"] * 2
        # A domain the registry lacks is skipped by the draw and still raises.
        with pytest.raises(UnknownDomainError):
            solution_set(
                conjoin(member(X, "toy", "nums"), member(X, "nosuch", "f")), [X], solver=solver
            )

    def test_an_unevaluable_membership_raises_at_the_leaf_not_before(self):
        bounded = conjoin(compare(X, ">=", 0), compare(X, "<=", 2))
        unknown = member(X, "nosuch", "f")
        # No evaluator: SolverError, but only once a complete assignment
        # survives everything that could be decided.
        with pytest.raises(SolverError, match="without a domain evaluator"):
            solution_set(conjoin(bounded, unknown), [X])
        empty = conjoin(compare(Y, ">=", 5), compare(Y, "<=", 4))
        assert solution_set(conjoin(bounded, empty, unknown), [X, Y]) == frozenset()
        assert solution_set(conjoin(bounded, equals(X, 7), unknown), [X]) == frozenset()
        # A registry that lacks the domain answers at the first ground call.
        with pytest.raises(UnknownDomainError):
            solution_set(
                conjoin(bounded, unknown), [X], solver=ConstraintSolver(toy_registry())
            )

    def test_max_solutions_is_an_exact_bound(self):
        constraint = conjoin(compare(X, ">=", 0), compare(X, "<=", 3))
        assert len(list(enumerate_solutions(constraint, [X], max_solutions=4))) == 4
        produced = []
        with pytest.raises(SolverError, match="exceeded 3 assignments"):
            for solution in enumerate_solutions(constraint, [X], max_solutions=3):
                produced.append(solution[X])
        assert produced == [0, 1, 2]

    def test_an_unbounded_variable_falls_back_to_the_universe_or_says_so(self):
        constraint = conjoin(member(X, "toy", "nums"), compare(Y, "!=", X))
        solver = ConstraintSolver(toy_registry())
        assert solution_set(constraint, [X, Y], solver=solver, universe=(1, 7)) == {
            (0, 1), (0, 7), (1, 7), (2, 1), (2, 7),
        }
        with pytest.raises(SolverError, match="variable Y; supply a universe"):
            solution_set(constraint, [X, Y], solver=solver)
        # A requested variable the constraint never mentions is unbounded too.
        assert solution_set(equals(X, 1), [X, Z], universe=(5, 6)) == {(1, 5), (1, 6)}
        with pytest.raises(SolverError, match="variable Z; supply a universe"):
            solution_set(equals(X, 1), [X, Z])

    def test_the_plan_is_kept_with_the_node_and_rebuilt_for_other_variables(self):
        constraint = conjoin(compare(X, ">=", 0), compare(X, "<=", 1), equals(Y, X))
        assert solution_set(constraint, [X, Y]) == {(0, 0), (1, 1)}
        plan = constraint._plan
        assert solution_set(constraint, [X, Y]) == {(0, 0), (1, 1)}
        assert constraint._plan is plan
        assert solution_set(constraint, [Y]) == {(0,), (1,)}
        assert constraint._plan is not plan


# ---------------------------------------------------------------------------
# One enumeration pays for distinct work only
# ---------------------------------------------------------------------------


def frozen_rule_sequence(constraint, wanted, solver, universe):
    """The variable rule written out plainly, as the reference for the
    solution *order*: every node recomputes every candidate set from the
    evaluator, and the whole constraint is decided at the leaves (deciding
    a conjunct earlier only removes leaves, it never reorders them)."""
    wanted = list(dict.fromkeys(wanted))
    parts = constraint.conjuncts()
    searched = set()
    for part in parts:
        if not isinstance(part, NegatedConjunction):
            searched |= part.variables()
    order = wanted + sorted(searched - set(wanted), key=lambda v: v.name)
    missing = object()
    evaluator = solver.evaluator

    def value_of(term, partial):
        return term.value if isinstance(term, Constant) else partial.get(term, missing)

    def sides(variable):
        for part in parts:
            if isinstance(part, Comparison) and part.left != part.right:
                if part.left == variable:
                    yield part.op, part.right
                elif part.right == variable:
                    yield FLIPPED_OPERATOR[part.op], part.left

    def choose(unassigned, partial):
        best = None
        for variable in unassigned:
            for op, other in sides(variable):
                if op == "=" and value_of(other, partial) is not missing:
                    return variable, [value_of(other, partial)]
            values = None
            for part in parts:
                if not (isinstance(part, Membership) and part.positive):
                    continue
                args = [value_of(arg, partial) for arg in part.call.args]
                if part.element != variable or missing in args or evaluator is None:
                    continue
                if not evaluator.has_domain(part.call.domain):
                    continue
                result = evaluator.evaluate_call(part.call.domain, part.call.function, tuple(args))
                if result.is_finite():
                    found = set(result.iter_values())
                    values = found if values is None else values & found
            if values is not None:
                rank = (1, len(values))
                values = sorted(values, key=lambda value: (type(value).__name__, repr(value)))
            else:
                bounds = [(op, other) for op, other in sides(variable) if op not in ("=", "!=")]
                interval = _integer_interval(bounds, partial) if bounds else None
                if interval is None or interval[1] - interval[0] + 1 > DEFAULT_MAX_INTERVAL_WIDTH:
                    continue
                values = range(interval[0], interval[1] + 1)
                rank = (2, len(values))
            if best is None or rank < best[0]:
                best = (rank, variable, values)
        return (best[1], best[2]) if best else (unassigned[0], universe)

    def walk(unassigned, partial):
        if not unassigned:
            if solver.evaluate_ground(constraint, partial):
                yield tuple(partial[variable] for variable in wanted)
            return
        variable, values = choose(unassigned, partial)
        rest = [other for other in unassigned if other != variable]
        for value in values:
            partial[variable] = value
            yield from walk(rest, partial)
        partial.pop(variable, None)

    return list(dict.fromkeys(walk(order, {})))


class TestOneEnumerationPaysForDistinctWork:
    @settings(max_examples=150, deadline=None)
    @given(search_cases())
    def test_the_sequence_is_the_reference_order_and_the_reference_set(self, case):
        constraint, wanted = case
        wanted = list(dict.fromkeys(wanted))
        solver = ConstraintSolver(toy_registry())
        found = [
            tuple(solution[variable] for variable in wanted)
            for solution in enumerate_solutions(
                constraint, wanted, solver=solver, universe=SMALL_UNIVERSE
            )
        ]
        assert found == frozen_rule_sequence(constraint, wanted, solver, SMALL_UNIVERSE)
        assert set(found) == brute_force(constraint, wanted, solver, SMALL_UNIVERSE)

    def test_each_distinct_call_is_asked_once(self):
        asked = []
        toy = Domain("toy")
        toy.register("nums", lambda: asked.append(("nums",)) or {0, 1, 2})
        toy.register("succ", lambda x: asked.append(("succ", x)) or {x + 1})
        toy.register("small", lambda x: asked.append(("small", x)) or x < 2)
        registry = DomainRegistry([toy])  # uncached: every lookup reaches the domain
        constraint = conjoin(
            member(X, "toy", "nums"),
            member(Y, "toy", "nums"),
            member(Z, "toy", "succ", X),  # a candidate source and a check
            member(True, "toy", "small", Z),
            member(True, "toy", "small", Y),  # same calls as small(Z) for Y = Z
        )
        solutions = solution_set(constraint, [X, Y, Z], solver=ConstraintSolver(registry))
        assert solutions == {(0, y, 1) for y in (0, 1)}
        assert sorted(asked) == sorted(set(asked))
        # nums, succ of 0..2, small of 0..3: the Y and Z checks share small(1), small(2).
        assert registry.call_counters()["toy"]["calls"] == len(asked) == 8
        # A second enumeration has a table of its own.
        solution_set(constraint, [X, Y, Z], solver=ConstraintSolver(registry))
        assert len(asked) == 16

    def test_an_unhashable_argument_answers_uncached(self):
        sets = Domain("sets")
        sets.register("has", lambda items, value: value in items)
        registry = DomainRegistry([sets])
        constraint = conjoin(
            compare(Y, ">=", 0), compare(Y, "<=", 1), member(True, "sets", "has", X, Y)
        )
        universe = [[0], [0], [1]]  # X only: Y is bounded
        assert solution_set(
            constraint, [Y], solver=ConstraintSolver(registry), universe=universe
        ) == {(0,), (1,)}
        # Two values of Y times three lists: the equal lists are asked twice.
        assert registry.call_counters()["sets"]["calls"] == 6

    def test_a_membership_the_evaluator_cannot_evaluate_is_deferred_to_the_leaf(self):
        class Refusing:
            """Answers ``toy:nums`` and refuses every other call."""

            def __init__(self):
                self.refused = 0

            def has_domain(self, domain):
                return domain == "toy"

            def evaluate_call(self, domain, function, args):
                if function == "nums":
                    return FrozenResultSet({1, 2})
                self.refused += 1
                raise SolverError(f"cannot evaluate {function}{args}")

        refusing = Refusing()
        solver = ConstraintSolver(refusing)
        checked = member(True, "toy", "check", X)
        base = conjoin(member(X, "toy", "nums"), equals(Y, 3), checked)
        # Every branch dies on X > Y after the refusal: deferred, never raised.
        assert solution_set(conjoin(base, compare(X, ">", Y)), [X], solver=solver) == frozenset()
        assert refusing.refused == 2
        # A branch that survives asks again at the leaf, and the error stands.
        with pytest.raises(SolverError, match="cannot evaluate check"):
            solution_set(conjoin(base, compare(X, "<", Y)), [X], solver=solver)
        assert refusing.refused == 4

    def test_a_domain_that_changed_between_two_enumerations_is_asked_again(self):
        state = {"nums": {0, 1}}
        toy = Domain("toy")
        toy.register("nums", lambda: state["nums"])
        toy.register("succ", lambda x: {x + 1})
        registry = DomainRegistry([toy], cache_calls=True)
        solver = ConstraintSolver(registry)
        constraint = conjoin(member(X, "toy", "nums"), member(Y, "toy", "succ", X))
        assert solution_set(constraint, [X, Y], solver=solver) == {(0, 1), (1, 2)}
        executed = registry.call_counters()["toy"]["executed"]
        assert solution_set(constraint, [X, Y], solver=solver) == {(0, 1), (1, 2)}
        assert registry.call_counters()["toy"]["executed"] == executed  # registry memo
        state["nums"] = {5}
        toy._bump_source()
        assert solution_set(constraint, [X, Y], solver=solver) == {(5, 6)}
        assert registry.call_counters()["toy"]["executed"] == executed + 2

    def test_a_plan_without_dca_candidates_allocates_no_candidate_state(self):
        """Counted: the lines that invalidate and restore candidate sets
        never run for a plan whose variables draw nothing from a DCA-atom."""
        source = inspect.getsource(solutions_module)
        watched = {
            number
            for number, line in enumerate(source.splitlines(), start=1)
            if line.strip() in ("cache[position] = _STALE", "cache[position] = entry")
        }
        assert len(watched) == 2  # invalidate below a value, restore on the way back

        def executions(constraint, variables, solver):
            ran = []

            def tracer(frame, event, arg):
                if frame.f_code.co_filename == solutions_module.__file__:
                    if event == "line" and frame.f_lineno in watched:
                        ran.append(frame.f_lineno)
                    return tracer
                return None

            sys.settrace(tracer)
            try:
                found = solution_set(constraint, variables, solver=solver)
            finally:
                sys.settrace(None)
            return found, len(ran)

        ladder = conjoin(compare(X, ">=", 0), compare(X, "<=", 3), compare(Y, ">", X),
                         compare(Y, "<=", 4), member(True, "toy", "small", X))
        solver = ConstraintSolver(toy_registry())
        plan = _plan_for(ladder, (X, Y))
        assert plan.feeds == ()
        assert _Search(plan, solver, None, DEFAULT_MAX_INTERVAL_WIDTH).candidates is None
        found, ran = executions(ladder, [X, Y], solver)
        assert found == {(0, y) for y in (1, 2, 3, 4)} | {(1, y) for y in (2, 3, 4)}
        assert ran == 0
        # The control: a chained DCA plan does run them.
        chained = conjoin(member(X, "toy", "nums"), member(Y, "toy", "succ", X))
        assert _plan_for(chained, (X, Y)).feeds == ((1,), ())
        assert executions(chained, [X, Y], solver)[1] > 0
