"""The arithmetic constraint domain (paper Example 2).

Kanellakis-style arithmetic constraints are modelled as domain calls:
``great(X)`` returns the (infinite) set of integers greater than ``X`` and
``plus(X, Y)`` returns the singleton ``{X + Y}``.  The infinite sets are
represented intensionally (membership predicate + bounded sample), exactly
as the paper suggests ("the entire -- infinite -- set need not be computed
all at once").
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, Optional, Tuple

from repro.domains.base import Domain, IntensionalResultSet
from repro.errors import EvaluationError

#: How many sample values an intensional arithmetic set exposes when asked
#: to enumerate (used only by callers that explicitly sample).
DEFAULT_SAMPLE_WIDTH = 100


def _require_number(value: object, function: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise EvaluationError(f"arith:{function} expects a number, got {value!r}")
    return value


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integer(value: object) -> bool:
    """An integer as ``between`` counts one: an int at any size, or a float
    with no fraction (``2.0 in range(0, 3)`` holds).  No bool."""
    return _is_number(value) and (isinstance(value, int) or value.is_integer())


def make_arithmetic_domain(
    name: str = "arith", sample_width: int = DEFAULT_SAMPLE_WIDTH
) -> Domain:
    """Build the ``arith`` domain with the paper's functions and friends.

    Functions
    ---------
    ``greater(x)`` / ``great(x)``
        all integers strictly greater than ``x`` (intensional).
    ``greater_eq(x)``, ``less(x)``, ``less_eq(x)``
        the corresponding half-open integer ranges (intensional).
    ``between(a, b)``
        the finite set of integers in ``[a, b]``.
    ``plus(x, y)``, ``minus(x, y)``, ``times(x, y)``
        singleton results of the arithmetic operation.
    ``abs(x)``, ``mod(x, y)``
        singleton results.
    """
    domain = Domain(name, "integer arithmetic (constraint domain of Example 2)")

    def between(low: object, high: object) -> Iterable[int]:
        low_value = int(_require_number(low, "between"))
        high_value = int(_require_number(high, "between"))
        return range(low_value, high_value + 1)

    def plus(x: object, y: object) -> set:
        return {_require_number(x, "plus") + _require_number(y, "plus")}

    def minus(x: object, y: object) -> set:
        return {_require_number(x, "minus") - _require_number(y, "minus")}

    def times(x: object, y: object) -> set:
        return {_require_number(x, "times") * _require_number(y, "times")}

    def absolute(x: object) -> set:
        return {abs(_require_number(x, "abs"))}

    def modulo(x: object, y: object) -> set:
        divisor = _require_number(y, "mod")
        if divisor == 0:
            raise EvaluationError("arith:mod division by zero")
        return {_require_number(x, "mod") % divisor}


    # Quick-reject hooks: True only when the value is *definitely* outside
    # the call's result set, decided arithmetically.  Arithmetic behaviour is
    # time-invariant, so these never go stale.  Non-numeric *arguments* make
    # the underlying call fail -- the solver then treats the DCA-atom as
    # unknown-satisfiable -- so the hooks venture no opinion there; a
    # non-integer *value* against a well-formed call is a definite non-member.
    def reject_between(args: Tuple[object, ...], value: object) -> bool:
        if not all(_is_number(arg) for arg in args):
            return False
        if isinstance(value, bool):
            # between() returns a plain range, and bool is an int subclass:
            # True in range(0, 3) holds, so no opinion here.
            return False
        # Mirror between()'s own int() truncation of the bounds: the result
        # set of between(2.5, 7.5) is range(2, 8), which contains 2.
        return not _is_integer(value) or value < int(args[0]) or value > int(args[1])

    # index_interval hooks: a time-invariant numeric interval containing
    # every member of the call's result set, feeding the argument index's
    # range postings.  Arithmetic behaviour never changes, so the bounds are
    # the (ground) arguments themselves, unconverted: they compare exactly;
    # non-numeric arguments make the underlying call fail, so the hooks
    # venture no bound there.
    def interval_between(args: Tuple[object, ...]) -> Optional[Tuple[object, bool, object, bool]]:
        if not all(_is_number(arg) for arg in args):
            return None
        # Mirror between()'s own int() truncation of the bounds (the result
        # set of between(2.5, 7.5) is range(2, 8), bounded by [2, 7]).
        return (int(args[0]), False, int(args[1]), False)

    def ordering(names, op: str, holds, interval, first: int, description: str) -> None:
        """``name(x)``: the integers ``v`` with ``v op x``, intensional, with
        its hooks; *interval* bounds the members by the (number) bound, and
        the sample starts *first* past it."""

        def function(x: object) -> IntensionalResultSet:
            bound = _require_number(x, names[0])
            start = int(bound) + first
            return IntensionalResultSet(
                membership=lambda value: _is_integer(value) and holds(value, bound),
                sample=lambda: range(start, start + sample_width),
                description=f"integers {op} {bound}",
            )

        def reject(args: Tuple[object, ...], value: object) -> bool:
            return _is_number(args[0]) and not (_is_integer(value) and holds(value, args[0]))

        def bounds(args: Tuple[object, ...]) -> Optional[Tuple[object, bool, object, bool]]:
            return interval(args[0]) if _is_number(args[0]) else None

        for name in names:
            domain.register(
                name, function, description, arity=1, quick_reject=reject, index_interval=bounds
            )

    ordering(
        ("greater", "great"), ">", operator.gt, lambda bound: (bound, True, math.inf, False),
        1, "integers strictly greater than x (great: the paper's name)",
    )
    ordering(
        ("greater_eq",), ">=", operator.ge, lambda bound: (bound, False, math.inf, False),
        0, "integers >= x",
    )
    ordering(
        ("less",), "<", operator.lt, lambda bound: (-math.inf, False, bound, True),
        -sample_width, "integers strictly less than x",
    )
    ordering(
        ("less_eq",), "<=", operator.le, lambda bound: (-math.inf, False, bound, False),
        1 - sample_width, "integers <= x",
    )
    domain.register(
        "between", between, "integers in [a, b]", arity=2,
        quick_reject=reject_between, index_interval=interval_between,
    )
    domain.register("plus", plus, "{x + y}", arity=2)
    domain.register("minus", minus, "{x - y}", arity=2)
    domain.register("times", times, "{x * y}", arity=2)
    domain.register("abs", absolute, "{|x|}", arity=1)
    domain.register("mod", modulo, "{x mod y}", arity=2)
    return domain
