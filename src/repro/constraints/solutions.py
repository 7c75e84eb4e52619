"""Enumerating the solutions of a constraint.

The paper's semantics of a constrained atom ``A(X̄) <- φ`` is its set of
instances ``[A(X̄) <- φ] = {A(X̄)θ | θ is a solution of φ}``.  Tests, the
query layer and the examples need to *materialize* these instance sets (over
finite domains, or clipped to a caller-supplied universe when a constraint
like ``Y >= X`` has infinitely many solutions).

Enumeration is a backtracking search over a compiled :class:`_Plan`:

1. at every step the "cheapest" still-unassigned variable is picked -- one
   pinned by an equality first, then one whose finite DCA result set can be
   evaluated under the partial assignment (this is what makes chained domain
   calls such as the law-enforcement mediator's
   ``in(A, paradox:select_eq(...)) & in(P, spatialdb:locateaddress(A, ...))``
   enumerable), then one with a bounded integer interval, then one drawing
   from the caller-supplied universe; ties go to the earlier variable.  The
   rule fixes the search tree and with it the order of the solutions, so it
   is part of the module's contract;
2. every conjunct is evaluated exactly once per branch, with the solver's
   exact ground evaluator, at the assignment that grounds its last variable
   -- except the DCA-atoms a variable's candidates were drawn from: every
   candidate is in those results already, so they are not asked again;
3. what cannot be decided on the way down -- a negation with variables of
   its own (quantified inside it), a membership the solver could not
   evaluate -- is evaluated at the complete assignment.

A distinct ground domain call is asked once per enumeration (one call
table serves candidates and membership checks alike); a candidate set is
recomputed only for the variables an assignment feeds (:attr:`_Plan.feeds`).

Because negations and memberships only ever *remove* solutions, generating
candidates from the positive conjuncts alone is complete.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.constraints.ast import (
    FLIPPED_OPERATOR,
    Comparison,
    Constraint,
    DomainCall,
    FalseConstraint,
    Membership,
    NegatedConjunction,
)
from repro.constraints.interfaces import FrozenResultSet, ResultSetLike
from repro.constraints.solver import ConstraintSolver
from repro.constraints.terms import Constant, Term, Variable
from repro.errors import SolverError

#: Widest integer interval that is enumerated without an explicit universe.
DEFAULT_MAX_INTERVAL_WIDTH = 10_000

#: Default cap on the number of solutions produced by one enumeration.
DEFAULT_MAX_SOLUTIONS = 1_000_000


def enumerate_solutions(
    constraint: Constraint,
    variables: Sequence[Variable],
    solver: Optional[ConstraintSolver] = None,
    universe: Optional[Iterable[object]] = None,
    max_interval_width: int = DEFAULT_MAX_INTERVAL_WIDTH,
    max_solutions: int = DEFAULT_MAX_SOLUTIONS,
) -> Iterator[Dict[Variable, object]]:
    """Yield assignments (dicts) of *variables* that satisfy *constraint*.

    Raises :class:`~repro.errors.SolverError` when a variable's candidate set
    cannot be determined and no *universe* was supplied, or when more than
    *max_solutions* assignments would be produced.
    """
    solver = solver or ConstraintSolver()
    if isinstance(constraint, FalseConstraint):
        return
    plan = _plan_for(constraint, variables)
    wanted = plan.wanted
    search = _Search(
        plan,
        solver,
        list(universe) if universe is not None else None,
        max_interval_width,
    )
    produced = 0
    seen: set = set()
    for assignment in search.run(list(range(len(plan.search)))):
        key = tuple(assignment[var] for var in wanted)
        if key in seen:
            continue
        seen.add(key)
        produced += 1
        if produced > max_solutions:
            raise SolverError(
                f"solution enumeration exceeded {max_solutions} assignments"
            )
        yield dict(zip(wanted, key))


def solution_set(
    constraint: Constraint,
    variables: Sequence[Variable],
    solver: Optional[ConstraintSolver] = None,
    universe: Optional[Iterable[object]] = None,
    max_interval_width: int = DEFAULT_MAX_INTERVAL_WIDTH,
) -> FrozenSet[Tuple[object, ...]]:
    """Return the set of solution tuples, ordered like *variables*."""
    wanted = list(dict.fromkeys(variables))
    tuples = set()
    for assignment in enumerate_solutions(
        constraint,
        wanted,
        solver=solver,
        universe=universe,
        max_interval_width=max_interval_width,
    ):
        tuples.add(tuple(assignment[var] for var in wanted))
    return frozenset(tuples)


# ---------------------------------------------------------------------------
# The compiled plan
# ---------------------------------------------------------------------------

#: What a variable is to the conjuncts: ``(mentions, pins, sources, bounds)``
#: -- the indexes of the conjuncts it helps to ground, the other sides of its
#: equalities, the indexes of the positive memberships it is the element of,
#: and the ``(op, other side)`` of its orderings oriented with the variable on
#: the left -- each in conjunct order.
_Role = Tuple[Tuple[int, ...], Tuple[Term, ...], Tuple[int, ...], Tuple[Tuple[str, Term], ...]]


class _Plan:
    """What the search reads about one ``(constraint, variables)`` pair.

    A pure function of the interned node and the variable list, so it is
    built once and kept in the node's ``_plan`` slot (collected with the
    node).  Everything is indexed by variable -- its position in
    :attr:`search`, which is also how the search names it: no step walks
    the conjuncts.
    """

    __slots__ = (
        "key", "wanted", "search", "parts", "arity", "roles", "feeds", "ground", "leaf",
    )

    def __init__(self, constraint: Constraint, key: Tuple[Variable, ...]) -> None:
        #: The variable list as the caller gave it (the memo key).
        self.key = key
        #: The requested variables, duplicates dropped (usually *key* itself).
        wanted = tuple(dict.fromkeys(key))
        wanted = self.wanted = key if wanted == key else wanted
        parts = self.parts = constraint.conjuncts()
        # Auxiliary constraint variables must be assigned too (they are
        # existentially quantified); they are searched but projected away.
        # Variables occurring *only* inside negated conjunctions are not:
        # the ground evaluator treats them as quantified inside the negation
        # (``not(ψ)`` holds iff ψ has no witness).
        positive: set = set()
        for part in parts:
            if not isinstance(part, NegatedConjunction):
                positive.update(part.variables())
        positive.difference_update(wanted)
        #: Search order: the requested variables, then the auxiliary ones.
        self.search = wanted + tuple(sorted(positive, key=lambda v: v.name))
        position = {variable: index for index, variable in enumerate(self.search)}
        roles: List[Tuple[list, list, list, list]] = [([], [], [], []) for _ in position]
        arity: List[int] = []
        ground: List[int] = []
        leaf: List[int] = []
        for index, part in enumerate(parts):
            variables = part.variables()
            arity.append(len(variables))
            if not position or not variables <= position.keys():
                leaf.append(index)
                continue
            if not variables:
                ground.append(index)
            for variable in variables:
                roles[position[variable]][0].append(index)
            if isinstance(part, Comparison):
                for this, op, other in (
                    (part.left, part.op, part.right),
                    (part.right, FLIPPED_OPERATOR[part.op], part.left),
                ):
                    if not isinstance(this, Variable) or this == other:
                        continue
                    if op == "=":
                        roles[position[this]][1].append(other)
                    elif op != "!=":
                        roles[position[this]][3].append((op, other))
            elif isinstance(part, Membership) and part.positive:
                if isinstance(part.element, Variable):
                    roles[position[part.element]][2].append(index)
        #: Per conjunct, how many searched variables it waits for.
        self.arity = tuple(arity)
        #: The :data:`_Role` of each variable of :attr:`search`, by position.
        self.roles: Tuple[_Role, ...] = tuple(
            tuple(map(tuple, role)) for role in roles  # type: ignore[misc]
        )
        #: Per variable, the variables whose DCA-atoms take it as an argument
        #: (its value feeds their candidate sets); ``()`` when no DCA-atom does.
        feeds: List[set] = [set() for _ in position]
        for target, role in enumerate(roles):
            for variable in {v for index in role[2] for v in parts[index].call.variables()}:
                feeds[position[variable]].add(target)
        self.feeds = tuple(map(tuple, map(sorted, feeds))) if any(r[2] for r in roles) else ()
        #: Conjuncts without variables: decided by the first assignment.
        self.ground = tuple(ground)
        #: Conjuncts only the complete assignment decides.
        self.leaf = tuple(leaf)


def _plan_for(constraint: Constraint, variables: Sequence[Variable]) -> _Plan:
    key = tuple(variables)
    plan = constraint._plan
    if plan is None or plan.key != key:
        plan = _Plan(constraint, key)
        object.__setattr__(constraint, "_plan", plan)
    return plan


# ---------------------------------------------------------------------------
# Backtracking search
# ---------------------------------------------------------------------------


class _Search:
    """One enumeration: the plan plus the state of the current branch."""

    __slots__ = (
        "plan", "solver", "evaluator", "evaluate", "universe", "max_width", "partial",
        "pending", "deferred", "calls", "candidates",
    )

    def __init__(
        self,
        plan: _Plan,
        solver: ConstraintSolver,
        universe: Optional[List[object]],
        max_width: int,
    ) -> None:
        self.plan = plan
        self.solver = solver
        evaluator = self.evaluator = solver.evaluator
        dca = evaluator is not None and any(type(part) is Membership for part in plan.parts)
        self.evaluate = self._holds if dca else solver.evaluate_ground
        self.universe = universe
        self.max_width = max_width
        self.partial: Dict[Variable, object] = {}
        #: Per conjunct, how many of its variables are still unassigned.
        self.pending = list(plan.arity)
        #: Conjuncts of this branch whose evaluation raised ``SolverError``
        #: (a membership the solver cannot evaluate): left to the leaf.
        self.deferred: List[int] = []
        #: ``(domain, function, args, arg types) -> result``: each asked once.
        self.calls: Dict[tuple, ResultSetLike] = {}
        #: Per variable, its DCA candidates under the live assignment.
        self.candidates = [_STALE] * len(plan.search) if plan.feeds and dca else None

    def run(self, unassigned: List[int]) -> Iterator[Dict[Variable, object]]:
        """Yield the live assignment at every solution below this node.

        *unassigned* holds the positions (in ``plan.search``) of the
        variables still to assign, in search order.
        """
        plan = self.plan
        partial = self.partial
        deferred = self.deferred
        evaluate = self.evaluate
        parts = plan.parts
        if not unassigned:
            for index in sorted(plan.leaf + tuple(deferred)) if deferred else plan.leaf:
                if not evaluate(parts[index], partial):
                    return
            yield partial
            return

        chosen, candidates, drawn = self._choose(unassigned)
        variable = plan.search[chosen]
        remaining = [position for position in unassigned if position != chosen]
        pending = self.pending
        mentions = plan.roles[chosen][0]
        # The conjuncts this assignment grounds: evaluated here, once, and
        # never again further down; the DCA-atoms the candidates were drawn
        # from hold for each of them already.
        ready = [index for index in mentions if pending[index] == 1 and index not in drawn]
        if not partial and plan.ground:
            ready = sorted(ready + list(plan.ground))
        for index in mentions:
            pending[index] -= 1
        # The candidate sets this variable feeds: reset per value, restored after.
        cache = self.candidates
        fed = plan.feeds[chosen] if cache is not None else ()
        saved = [cache[position] for position in fed] if fed else None
        mark = len(deferred)
        for value in candidates:
            partial[variable] = value
            for position in fed:
                cache[position] = _STALE
            for index in ready:
                part = parts[index]
                try:
                    if not evaluate(part, partial):
                        break
                except SolverError:
                    if isinstance(part, NegatedConjunction):
                        raise
                    deferred.append(index)
            else:
                yield from self.run(remaining)
            del deferred[mark:]
        partial.pop(variable, None)
        for index in mentions:
            pending[index] += 1
        for position, entry in zip(fed, saved or ()):
            cache[position] = entry

    def _choose(
        self, unassigned: List[int]
    ) -> Tuple[int, Iterable[object], Tuple[int, ...]]:
        """Choose the next variable (by position), its candidate values and
        the conjunct indexes of the DCA-atoms those values were drawn from.

        Preference: equality-pinned variables, then finite membership sets,
        then bounded integer intervals, then the universe.  Raises
        :class:`SolverError` when nothing applies and no universe is
        available.
        """
        roles = self.plan.roles
        partial = self.partial
        cache = self.candidates
        best: Optional[Tuple[int, int]] = None
        best_position = -1
        best_values: Iterable[object] = ()
        best_drawn: Tuple[int, ...] = ()
        for position in unassigned:
            _, pins, sources, bounds = roles[position]
            for other in pins:
                value = _resolve(other, partial)
                if value is not _NO_VALUE:
                    return position, (value,), ()
            values: Optional[Sequence[object]] = None
            if sources and cache is not None:
                entry = cache[position]
                if entry is _STALE:
                    entry = cache[position] = self._membership_values(sources)
                values, drawn = entry
            if values is not None:
                rank = (1, len(values))
            else:
                interval = _integer_interval(bounds, partial) if bounds else None
                if interval is None or interval[1] - interval[0] + 1 > self.max_width:
                    continue
                values = range(interval[0], interval[1] + 1)
                rank = (2, len(values))
                drawn = ()
            if best is None or rank < best:
                best, best_position, best_values, best_drawn = rank, position, values, drawn
        if best is not None:
            return best_position, best_values, best_drawn
        if self.universe is None:
            raise SolverError(
                "cannot enumerate candidate values for variable "
                f"{self.plan.search[unassigned[0]]}; supply a universe"
            )
        return unassigned[0], self.universe, ()

    def _call(self, call: DomainCall, args: Tuple[object, ...]) -> ResultSetLike:
        """The result of *call* at *args*; keyed like the registry's memo
        (argument types included, an unhashable argument bypasses it)."""
        key = (call.domain, call.function, args, tuple(map(type, args)))
        try:
            result = self.calls.get(key)
        except TypeError:
            return self.evaluator.evaluate_call(call.domain, call.function, args)
        if result is None:
            result = self.calls[key] = self.evaluator.evaluate_call(
                call.domain, call.function, args
            )
        return result

    def _holds(self, part: Constraint, partial: Dict[Variable, object]) -> bool:
        """``evaluate_ground``, a DCA-atom's call read through the call table."""
        if type(part) is not Membership:
            return self.solver.evaluate_ground(part, partial)
        result = self._call(part.call, _resolved(part.call.args, partial))
        return bool(result.contains(_resolve(part.element, partial))) == part.positive

    def _membership_values(
        self, sources: Tuple[int, ...]
    ) -> Tuple[Optional[Sequence[object]], Tuple[int, ...]]:
        """Finite candidate values from a variable's positive DCA-atoms (the
        conjunct indexes *sources*), in :func:`_sort_key` order: the first
        finite result's, filtered by the rest; and the indexes of the sources
        that built them -- *sources* itself when none was skipped."""
        parts = self.plan.parts
        collected: Optional[Sequence[object]] = None
        used = sources
        for index in sources:
            call = parts[index].call
            args = _resolved(call.args, self.partial)
            result = None
            if _NO_VALUE not in args and self.evaluator.has_domain(call.domain):
                result = self._call(call, args)
            if result is None or not result.is_finite():  # skipped: stays a check
                used = tuple([other for other in used if other != index])
                continue
            if collected is not None:
                collected = [value for value in collected if result.contains(value)]
            elif isinstance(result, FrozenResultSet):
                if result._order is None:  # kept while the registry keeps the result
                    result._order = tuple(sorted(result._values, key=_sort_key))
                collected = result._order
            else:
                collected = sorted(set(result.iter_values()), key=_sort_key)
        return _NO_CANDIDATES if collected is None else (collected, used)


_NO_VALUE = object()
#: A candidate-cache entry not computed under the live assignment.
_STALE = object()
#: The candidate-cache entry of a variable no finite DCA result bounds.
_NO_CANDIDATES: Tuple[None, Tuple[int, ...]] = (None, ())


def _resolve(term: Term, partial: Dict[Variable, object]) -> object:
    if isinstance(term, Constant):
        return term.value
    return partial.get(term, _NO_VALUE)


def _resolved(terms: Tuple[Term, ...], partial: Dict[Variable, object]) -> Tuple[object, ...]:
    return tuple([t.value if type(t) is Constant else partial.get(t, _NO_VALUE) for t in terms])


def _integer_interval(
    bounds: Sequence[Tuple[str, Term]], partial: Dict[Variable, object]
) -> Optional[Tuple[int, int]]:
    """Bounded integer interval implied by a variable's orderings."""
    low: float = -math.inf
    high: float = math.inf
    for op, other in bounds:
        value = _resolve(other, partial)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        if op == "<":
            high = min(high, math.ceil(value) - 1)  # the largest integer below
        elif op == "<=":
            high = min(high, math.floor(value))
        elif op == ">":
            low = max(low, math.floor(value) + 1)  # the smallest integer above
        else:
            low = max(low, math.ceil(value))
    if low == -math.inf or high == math.inf:
        return None
    if low > high:
        return (0, -1)  # empty interval
    return (int(low), int(high))


def _sort_key(value: object) -> Tuple[str, str]:
    return (type(value).__name__, repr(value))
