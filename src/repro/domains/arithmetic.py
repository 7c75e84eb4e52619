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

    def greater(x: object) -> IntensionalResultSet:
        bound = _require_number(x, "greater")
        return IntensionalResultSet(
            membership=lambda value: isinstance(value, (int, float))
            and not isinstance(value, bool)
            and value > bound,
            sample=lambda: range(int(bound) + 1, int(bound) + 1 + sample_width),
            description=f"integers > {bound}",
        )

    def greater_eq(x: object) -> IntensionalResultSet:
        bound = _require_number(x, "greater_eq")
        return IntensionalResultSet(
            membership=lambda value: isinstance(value, (int, float))
            and not isinstance(value, bool)
            and value >= bound,
            sample=lambda: range(int(bound), int(bound) + sample_width),
            description=f"integers >= {bound}",
        )

    def less(x: object) -> IntensionalResultSet:
        bound = _require_number(x, "less")
        return IntensionalResultSet(
            membership=lambda value: isinstance(value, (int, float))
            and not isinstance(value, bool)
            and value < bound,
            sample=lambda: range(int(bound) - sample_width, int(bound)),
            description=f"integers < {bound}",
        )

    def less_eq(x: object) -> IntensionalResultSet:
        bound = _require_number(x, "less_eq")
        return IntensionalResultSet(
            membership=lambda value: isinstance(value, (int, float))
            and not isinstance(value, bool)
            and value <= bound,
            sample=lambda: range(int(bound) - sample_width + 1, int(bound) + 1),
            description=f"integers <= {bound}",
        )

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

    def _is_number(value: object) -> bool:
        return isinstance(value, (int, float)) and not isinstance(value, bool)

    # Quick-reject hooks: True only when the value is *definitely* outside
    # the call's result set, decided arithmetically.  Arithmetic behaviour is
    # time-invariant, so these never go stale.  Non-numeric *arguments* make
    # the underlying call fail -- the solver then treats the DCA-atom as
    # unknown-satisfiable -- so the hooks venture no opinion there; a
    # non-numeric *value* against a well-formed call is a definite non-member.
    def reject_greater(args: Tuple[object, ...], value: object) -> bool:
        return _is_number(args[0]) and (not _is_number(value) or value <= args[0])

    def reject_greater_eq(args: Tuple[object, ...], value: object) -> bool:
        return _is_number(args[0]) and (not _is_number(value) or value < args[0])

    def reject_less(args: Tuple[object, ...], value: object) -> bool:
        return _is_number(args[0]) and (not _is_number(value) or value >= args[0])

    def reject_less_eq(args: Tuple[object, ...], value: object) -> bool:
        return _is_number(args[0]) and (not _is_number(value) or value > args[0])

    def reject_between(args: Tuple[object, ...], value: object) -> bool:
        if not all(_is_number(arg) for arg in args):
            return False
        if isinstance(value, bool):
            # between() returns a plain range, and bool is an int subclass:
            # True in range(0, 3) holds, so no opinion here.
            return False
        if not _is_number(value):
            return True
        # Mirror between()'s own int() truncation of the bounds: the result
        # set of between(2.5, 7.5) is range(2, 8), which contains 2.
        # An int is integral at any size; a float when it has no fraction.
        low, high = int(args[0]), int(args[1])
        integral = isinstance(value, int) or value.is_integer()
        return value < low or value > high or not integral

    # index_interval hooks: a time-invariant numeric interval containing
    # every member of the call's result set, feeding the argument index's
    # range postings.  Arithmetic behaviour never changes, so the bounds are
    # the (ground) arguments themselves, unconverted: they compare exactly;
    # non-numeric arguments make the underlying call fail, so the hooks
    # venture no bound there.
    def interval_greater(args: Tuple[object, ...]) -> Optional[Tuple[object, bool, object, bool]]:
        if not _is_number(args[0]):
            return None
        return (args[0], True, math.inf, False)

    def interval_greater_eq(args: Tuple[object, ...]) -> Optional[Tuple[object, bool, object, bool]]:
        if not _is_number(args[0]):
            return None
        return (args[0], False, math.inf, False)

    def interval_less(args: Tuple[object, ...]) -> Optional[Tuple[object, bool, object, bool]]:
        if not _is_number(args[0]):
            return None
        return (-math.inf, False, args[0], True)

    def interval_less_eq(args: Tuple[object, ...]) -> Optional[Tuple[object, bool, object, bool]]:
        if not _is_number(args[0]):
            return None
        return (-math.inf, False, args[0], False)

    def interval_between(args: Tuple[object, ...]) -> Optional[Tuple[object, bool, object, bool]]:
        if not all(_is_number(arg) for arg in args):
            return None
        # Mirror between()'s own int() truncation of the bounds (the result
        # set of between(2.5, 7.5) is range(2, 8), bounded by [2, 7]).
        return (int(args[0]), False, int(args[1]), False)

    domain.register(
        "greater", greater, "integers strictly greater than x", arity=1,
        quick_reject=reject_greater, index_interval=interval_greater,
    )
    domain.register(
        "great", greater, "alias used by the paper", arity=1,
        quick_reject=reject_greater, index_interval=interval_greater,
    )
    domain.register(
        "greater_eq", greater_eq, "integers >= x", arity=1,
        quick_reject=reject_greater_eq, index_interval=interval_greater_eq,
    )
    domain.register(
        "less", less, "integers strictly less than x", arity=1,
        quick_reject=reject_less, index_interval=interval_less,
    )
    domain.register(
        "less_eq", less_eq, "integers <= x", arity=1,
        quick_reject=reject_less_eq, index_interval=interval_less_eq,
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
