"""``bounds_of`` against a ground oracle.

Random conjunctions over ``X, Y, Z`` of ``=``, ``!=``, orderings and narrow
``arith`` memberships are evaluated on every assignment over a small
universe: the constants the conjunctions use and their neighbours, ``1`` and
``1.0``, ``'a'`` and ``2**53 ± 1``.  The oracle is its own evaluator: the
comparisons are written here, and a membership asks the domain registry.
What ``bounds_of`` reads from a node must hold of every satisfying
assignment:

* ``unsatisfiable``: there is none;
* a pin: every one gives the variable that value;
* an interval, and every ``argument_intervals`` entry: every one's value
  lies inside (a bool gets no opinion: the solver coerces it);
* ``only_pins``: the pinned assignment is the only one;
* ``quick_reject`` True: two atoms share no instance.

A membership whose call cannot be evaluated (a non-number argument) holds,
as the solver reads an unknown call: more satisfying assignments, a
stronger check.
"""

from __future__ import annotations

import functools
import itertools
import operator

from hypothesis import example, given, settings, strategies as st

from repro.constraints import ConstraintSolver, Variable, conjoin, member
from repro.constraints.ast import COMPARISON_OPERATORS, Comparison, Membership
from repro.constraints.solver import bounds_of
from repro.constraints.terms import Constant
from repro.datalog.view import argument_intervals
from repro.domains import DomainRegistry, make_arithmetic_domain
from repro.errors import EvaluationError

X, Y, Z = (Variable(name) for name in "XYZ")
BIG = 2**53
CONSTANTS = [0, 1, 1.0, 2.5, "a", BIG, BIG + 1]
NUMBERS = [value for value in CONSTANTS if not isinstance(value, str)]
UNIVERSE = [-1, 0, 1, 1.0, 2, 2.5, 3, "a", "b", BIG - 1, BIG, BIG + 1, BIG + 2]
REGISTRY = DomainRegistry([make_arithmetic_domain()])
SOLVER = ConstraintSolver(REGISTRY)

ORDERINGS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def holds(op: str, left: object, right: object) -> bool:
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    try:
        return ORDERINGS[op](left, right)
    except TypeError:  # 'a' < 1: no order between a string and a number
        return False


terms = st.sampled_from([X, Y, Z])
constants = st.sampled_from(CONSTANTS).map(Constant)


@st.composite
def comparisons(draw):
    left = draw(terms)
    right = draw(st.one_of(terms, constants, constants))
    op = draw(st.sampled_from(COMPARISON_OPERATORS))
    return Comparison(right, op, left) if draw(st.booleans()) else Comparison(left, op, right)


@st.composite
def memberships(draw):
    element = draw(terms)
    function = draw(st.sampled_from(["greater", "greater_eq", "less", "less_eq", "between"]))
    if function == "between":
        # Narrow: the registry materialises a between range.
        low = draw(st.sampled_from(NUMBERS))
        return member(element, "arith", "between", low, low + draw(st.integers(0, 3)))
    return member(element, "arith", function, draw(st.one_of(terms, constants)))


conjuncts = st.lists(st.one_of(comparisons(), comparisons(), memberships()), min_size=1, max_size=5)


@st.composite
def argument_pairs(draw):
    """Two argument tuples of one length, of an atom on either side."""
    arity = draw(st.integers(1, 2))
    one = st.lists(st.one_of(terms, terms, constants), min_size=arity, max_size=arity)
    return tuple(draw(one)), tuple(draw(one))


def value(term, assignment):
    return term.value if isinstance(term, Constant) else assignment[term]


def part_holds(part, assignment) -> bool:
    if isinstance(part, Comparison):
        return holds(part.op, value(part.left, assignment), value(part.right, assignment))
    assert isinstance(part, Membership) and part.positive
    args = tuple(value(arg, assignment) for arg in part.call.args)
    result = evaluated(part.call, args, tuple(map(type, args)))
    return result is None or result.contains(value(part.element, assignment))


@functools.lru_cache(maxsize=None)
def evaluated(call, args, types):
    """The registry's result set of *call* on *args* (typed: 1 is not 1.0),
    ``None`` for an unknown call, which is satisfiable."""
    try:
        return REGISTRY.evaluate_call(call.domain, call.function, args)
    except EvaluationError:
        return None


def satisfying(parts, variables):
    """Every assignment of *variables* over the universe that meets *parts*."""
    for values in itertools.product(UNIVERSE, repeat=len(variables)):
        assignment = dict(zip(variables, values))
        if all(part_holds(part, assignment) for part in parts):
            yield assignment


def admitted(interval, value) -> bool:
    """Whether the interval admits *value*, as the argument index reads it."""
    if isinstance(value, bool):
        return True
    if not isinstance(value, (int, float)):
        return False
    if value < interval.low or (value == interval.low and interval.low_strict):
        return False
    return not (value > interval.high or (value == interval.high and interval.high_strict))


def variables_of(parts, args=()):
    found = {term for part in parts for term in _terms(part)} | set(args)
    return sorted((term for term in found if isinstance(term, Variable)), key=str)


def _terms(part):
    if isinstance(part, Comparison):
        return (part.left, part.right)
    return (part.element, *part.call.args)


def check_one_side(parts, args):
    constraint = conjoin(*parts)
    bounds = bounds_of(constraint)
    variables = variables_of(parts, args)
    solutions = list(satisfying(parts, variables))
    if bounds.unsatisfiable:
        assert not solutions, str(constraint)
    intervals = argument_intervals(args, constraint, REGISTRY)
    for assignment in solutions:
        for variable, pin in bounds.pins.items():
            assert assignment[variable] == pin.value, (str(constraint), variable)
        for term, interval in bounds.intervals.items():
            assert admitted(interval, value(term, assignment)), (str(constraint), term)
        for arg, interval in zip(args, intervals):
            if interval is not None:
                assert admitted(interval, value(arg, assignment)), (str(constraint), arg)
    if bounds.only_pins:
        pinned = {variable: pin.value for variable, pin in bounds.pins.items()}
        assert set(pinned) == set(variables_of(parts)), str(constraint)
        assert all(part_holds(part, pinned) for part in parts), str(constraint)
        for assignment in solutions:
            assert all(assignment[v] == pinned[v] for v in pinned), str(constraint)
    return {tuple(value(arg, assignment) for arg in args) for assignment in solutions}


@settings(max_examples=200, deadline=None)
@given(conjuncts, conjuncts, argument_pairs())
# float() rounds 2**53 + 1 onto 2**53: an index interval below 2**53 + 1
# that shut 2**53 out, and an integrality test that called 2**53 + 1 a
# fraction.
@example([member(X, "arith", "less", BIG + 1)], [Comparison(Y, "=", Constant(BIG))], ((X,), (Y,)))
@example(
    [member(X, "arith", "between", BIG, BIG + 3)],
    [Comparison(Y, "=", Constant(BIG + 1))],
    ((X,), (Y,)),
)
def test_what_bounds_of_reads_holds_of_every_satisfying_assignment(left, right, args):
    left_args, right_args = args
    left_instances = check_one_side(left, left_args)
    right_instances = check_one_side(right, right_args)
    if SOLVER.quick_reject(left_args, conjoin(*left), right_args, conjoin(*right)):
        # Equal values hash alike (1, 1.0), so a shared instance is a
        # non-empty intersection.
        assert not left_instances & right_instances, (
            f"{left_args} <- {conjoin(*left)}  vs  {right_args} <- {conjoin(*right)}"
        )
