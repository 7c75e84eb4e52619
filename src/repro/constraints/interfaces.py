"""Interfaces between the constraint solver and the external-domain layer.

The solver has to evaluate DCA-atoms ``in(X, domain:function(args))`` against
whatever sources the mediator integrates, but the :mod:`repro.constraints`
package must not depend on :mod:`repro.domains` (which depends back on the
constraint AST).  These small protocol classes break that cycle: the domain
layer implements them, and the solver consumes them.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Protocol, Tuple, runtime_checkable


@runtime_checkable
class ResultSetLike(Protocol):
    """The set of values returned by one domain call.

    A result set may be *finite* (fully enumerable) or *intensional*
    (possibly infinite, e.g. ``arith:greater(2)``); intensional sets must
    still answer membership queries and say whether they are known to be
    empty.
    """

    def contains(self, value: object) -> bool:
        """Return True if *value* is a member of the result set."""

    def is_finite(self) -> bool:
        """Return True if the set can be enumerated by :meth:`iter_values`."""

    def is_empty(self) -> bool:
        """Return True if the set is known to be empty."""

    def iter_values(self) -> Iterator[object]:
        """Iterate the members (only valid when :meth:`is_finite` is True)."""

    def size_hint(self) -> Optional[int]:
        """Return the cardinality when finite and known, else ``None``."""


@runtime_checkable
class CallEvaluator(Protocol):
    """Evaluates ground domain calls; implemented by the domain registry.

    Beyond the two required methods, the solver discovers three *optional*
    members by ``getattr`` (so ad-hoc evaluators need not provide them):

    * ``quick_reject(domain, function, args, value) -> bool`` -- a cheap
      membership refuter consulted by the quick-reject pre-filter; True only
      when *value* is definitely not in ``domain:function(args)``.
    * ``versions_of(domains) -> tuple`` -- the current version of each named
      domain, comparable by ``==``.  The one gate of everything the solver
      remembers about a DCA-dependent constraint (satisfiability,
      simplification, instance sets): a result is served while the domains
      the constraint names stand at the versions read before it was
      computed.  A source must publish its data before its version.  An
      evaluator without it gets no such memo.
    * ``source_changed(source)`` -- told of every change notice the solver
      receives (``invalidate_external_functions``), so an evaluator that
      remembers call results can forget those of *source* and move it to a
      new version.
    """

    def evaluate_call(
        self, domain: str, function: str, args: Tuple[object, ...]
    ) -> ResultSetLike:
        """Execute ``domain:function(args)`` and return its result set.

        Implementations raise :class:`repro.errors.UnknownDomainError` or
        :class:`repro.errors.UnknownFunctionError` for unknown targets and
        :class:`repro.errors.EvaluationError` for runtime failures.
        """

    def has_domain(self, domain: str) -> bool:
        """Return True if a domain with this name is registered."""


class FrozenResultSet:
    """A simple finite, immutable result set usable by tests and domains."""

    __slots__ = ("_values", "_order")

    def __init__(self, values: Iterable[object] = ()) -> None:
        self._values = frozenset(values)
        #: The values in solution-search order, set by that search.
        self._order: Optional[Tuple[object, ...]] = None

    def contains(self, value: object) -> bool:
        return value in self._values

    def is_finite(self) -> bool:
        return True

    def is_empty(self) -> bool:
        return not self._values

    def iter_values(self) -> Iterator[object]:
        return iter(self._values)

    def size_hint(self) -> Optional[int]:
        return len(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[object]:
        return iter(self._values)

    def __contains__(self, value: object) -> bool:
        return value in self._values

    def __repr__(self) -> str:
        return f"FrozenResultSet({sorted(map(repr, self._values))})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FrozenResultSet):
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)


EMPTY_RESULT_SET = FrozenResultSet()
