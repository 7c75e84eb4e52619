"""Time-versioned domain functions (paper Section 4).

External sources change over time.  The paper models an update to a source
as a change in the *behaviour* of the functions that access it, writing
``d:f_t`` for the behaviour of ``f`` at time ``t`` and defining the deltas

    ``f+_{t,t+1}(args) = f_{t+1}(args) - f_t(args)``        (equation 6)
    ``f-_{t,t+1}(args) = f_t(args) - f_{t+1}(args)``        (equation 7)

This module provides:

* :class:`DomainClock` -- the shared notion of "now",
* :class:`VersionedFunction` -- a function with per-time behaviours,
* :class:`VersionedDomain` -- a domain whose calls dispatch on the clock,
* :func:`function_delta` -- the ``f+`` / ``f-`` computation, and
* :func:`add_rem_sets` -- the ``ADD`` / ``REM`` sets of ground DCA-atoms the
  paper derives from the deltas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Tuple

from repro.constraints.ast import DomainCall, Membership
from repro.constraints.interfaces import ResultSetLike
from repro.constraints.terms import Constant
from repro.domains.base import Domain, coerce_result
from repro.errors import EvaluationError


class DomainClock:
    """A shared integer clock; domain behaviour is a function of its value."""

    def __init__(self, start: int = 0) -> None:
        self._time = start
        self._listeners: List[Callable[[int], None]] = []

    @property
    def time(self) -> int:
        """The current time point."""
        return self._time

    def advance(self, steps: int = 1) -> int:
        """Move the clock forward and notify listeners; returns the new time."""
        if steps < 0:
            raise EvaluationError("the clock cannot move backwards via advance()")
        self._time += steps
        self._notify()
        return self._time

    def on_change(self, listener: Callable[[int], None]) -> None:
        """Register a callback invoked with the new time after every change."""
        self._listeners.append(listener)

    def _notify(self) -> None:
        for listener in self._listeners:
            listener(self._time)


class VersionedFunction:
    """A domain function whose behaviour depends on the time point."""

    def __init__(self, name: str, initial: Callable[..., object]) -> None:
        self._name = name
        self._behaviors: Dict[int, Callable[..., object]] = {0: initial}

    @property
    def name(self) -> str:
        """The function's name."""
        return self._name

    def set_behavior(self, time: int, behavior: Callable[..., object]) -> None:
        """Install the behaviour effective from *time* onwards."""
        if time < 0:
            raise EvaluationError("behaviour times must be non-negative")
        self._behaviors[time] = behavior

    def behavior_at(self, time: int) -> Callable[..., object]:
        """The behaviour in force at *time* (latest installed at or before)."""
        eligible = [t for t in self._behaviors if t <= time]
        if not eligible:
            raise EvaluationError(
                f"function {self._name!r} has no behaviour at time {time}"
            )
        return self._behaviors[max(eligible)]

    def call_at(self, time: int, args: Tuple[object, ...]) -> ResultSetLike:
        """Evaluate the function at a given time point."""
        behavior = self.behavior_at(time)
        try:
            return coerce_result(behavior(*args))
        except EvaluationError:
            raise
        except Exception as exc:
            raise EvaluationError(
                f"versioned function {self._name!r} failed at time {time} on {args!r}: {exc}"
            ) from exc


class VersionedDomain(Domain):
    """A domain whose functions dispatch on a :class:`DomainClock`."""

    def __init__(self, name: str, clock: DomainClock, description: str = "") -> None:
        super().__init__(name, description or f"time-versioned domain {name!r}")
        self._clock = clock
        self._versioned: Dict[str, VersionedFunction] = {}

    def source_version(self) -> object:
        """Fold the clock into the version token: behaviour is time-indexed."""
        return (super().source_version(), self._clock.time)

    def register_versioned(
        self, name: str, initial: Callable[..., object], description: str = ""
    ) -> VersionedFunction:
        """Register a function with an initial (time-0) behaviour."""
        versioned = VersionedFunction(name, initial)
        self._versioned[name] = versioned

        def dispatch(*args: object) -> ResultSetLike:
            return versioned.call_at(self._clock.time, tuple(args))

        self.register(name, dispatch, description or f"time-versioned {name}")
        return versioned

    def versioned_function(self, name: str) -> VersionedFunction:
        """Access the versioned behaviour table of a function."""
        try:
            return self._versioned[name]
        except KeyError as exc:
            raise EvaluationError(
                f"domain {self.name!r} has no versioned function {name!r}"
            ) from exc

    def set_behavior(
        self, function: str, time: int, behavior: Callable[..., object]
    ) -> None:
        """Install a new behaviour for *function* effective from *time*.

        Bumps the source version: the new behaviour may already be in force
        (``time <= clock.time``), in which case the clock alone would not
        reveal the change.
        """
        self.versioned_function(function).set_behavior(time, behavior)
        self._bump_source()

    def call_at(
        self, function: str, args: Tuple[object, ...], time: int
    ) -> ResultSetLike:
        """Evaluate a function at an explicit time point (ignoring the clock)."""
        return self.versioned_function(function).call_at(time, tuple(args))


@dataclass(frozen=True)
class FunctionDelta:
    """The ``f+`` / ``f-`` delta of one call between two time points."""

    domain: str
    function: str
    args: Tuple[object, ...]
    added: Tuple[object, ...]
    removed: Tuple[object, ...]


def function_delta(
    domain: VersionedDomain,
    function: str,
    args: Tuple[object, ...],
    time_before: int,
    time_after: int,
) -> FunctionDelta:
    """Compute ``f+_{t,t+1}(args)`` and ``f-_{t,t+1}(args)``.

    Both results must be finite (enumeration of intensional sets is refused),
    matching the paper's usage: the deltas are only needed to *analyse* the
    effect of a source update under ``T_P``; the ``W_P`` approach never
    materializes them.
    """
    before = domain.call_at(function, args, time_before)
    after = domain.call_at(function, args, time_after)
    if not before.is_finite() or not after.is_finite():
        raise EvaluationError(
            f"cannot diff non-finite results of {domain.name}:{function}{args!r}"
        )
    before_values = set(before.iter_values())
    after_values = set(after.iter_values())
    return FunctionDelta(
        domain.name,
        function,
        tuple(args),
        added=tuple(sorted(after_values - before_values, key=repr)),
        removed=tuple(sorted(before_values - after_values, key=repr)),
    )


def add_rem_sets(
    deltas: Iterable[FunctionDelta],
) -> Tuple[Tuple[Membership, ...], Tuple[Membership, ...]]:
    """Build the paper's ``ADD`` and ``REM`` sets of ground DCA-atoms.

    ``ADD = {in(a, d:f(b)) | a in f+}`` and ``REM = {in(a, d:f(b)) | a in f-}``.
    """
    added: List[Membership] = []
    removed: List[Membership] = []
    for delta in deltas:
        call = DomainCall(
            delta.domain, delta.function, tuple(Constant(arg) for arg in delta.args)
        )
        for value in delta.added:
            added.append(Membership(Constant(value), call))
        for value in delta.removed:
            removed.append(Membership(Constant(value), call))
    return tuple(added), tuple(removed)
