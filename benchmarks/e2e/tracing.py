"""Timing wrappers around the program's public entry points.

The benchmark measures each layer *from outside*: nothing under ``src/`` is
edited.  A :class:`Tracer` replaces a public function (wherever its name is
bound in an imported ``repro`` module) or a public method (on its class) by
a wrapper that times the call.  Two kinds of wrapper exist:

* **coarse** calls (at most a few dozen per batch) record a span
  ``(id, parent, name, start, end, tag, thread, leaf_s)`` kept in memory;
* **leaf** calls (thousands per batch) record only ``count`` and totals.

Every wrapper pushes a frame on a per-thread stack, so a call's *self time*
is its duration minus the durations of the wrapped calls it made directly.
:func:`self_times` does the same arithmetic on a span list alone (children
may sit on other threads and overlap), which is what the span file is for.

Coroutines (``RequestRouter.dispatch``, ``MediatorService.query`` ...) are
timed step by step: *busy* is the time the coroutine actually ran on the
event loop, *total* is submit-to-result wall time, and the difference is
time spent waiting.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

_perf = time.perf_counter


@dataclass(frozen=True)
class Span:
    """One coarse call.  ``leaf_s`` is the part covered by leaf calls."""

    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    tag: Optional[str] = None
    thread: int = 0
    leaf_s: float = 0.0

    def as_row(self) -> list:
        return [
            self.id, self.parent, self.name, self.start, self.end,
            self.tag, self.thread, self.leaf_s,
        ]


class _ThreadState:
    """Per-thread frame stack and counters (merged when results are read)."""

    __slots__ = ("stack", "span_stack", "calls", "tag")

    def __init__(self) -> None:
        #: Open wrapped calls; each frame is ``[leaf_child_s, coarse_child_s]``.
        self.stack: List[List[float]] = []
        #: Ids of the open coarse spans (the innermost is a new span's parent).
        self.span_stack: List[int] = []
        #: ``name -> [count, self_s, total_s]``.
        self.calls: Dict[str, List[float]] = {}
        #: Batch or query id stamped on spans opened by this thread.
        self.tag: Optional[str] = None


class Tracer:
    """Installs, drives and removes the timing wrappers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._undo: List[Tuple[object, str, object]] = []

    # -- per-thread state ----------------------------------------------
    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
            return state

    def set_tag(self, tag: Optional[str]) -> None:
        """Stamp spans opened by this thread from now on (batch/query id)."""
        self._state().tag = tag

    # -- results --------------------------------------------------------
    def calls(self) -> Dict[str, Tuple[int, float, float]]:
        """``name -> (count, self seconds, total seconds)`` over all threads."""
        merged: Dict[str, List[float]] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, (count, self_s, total_s) in list(state.calls.items()):
                acc = merged.setdefault(name, [0, 0.0, 0.0])
                acc[0] += count
                acc[1] += self_s
                acc[2] += total_s
        return {name: (int(c), s, t) for name, (c, s, t) in merged.items()}

    def thread_calls(self) -> Dict[str, Tuple[float, float, float]]:
        """A copy of the calling thread's own counters (cheap; the meter
        takes one before and after each timed operation)."""
        return {name: tuple(acc) for name, acc in self._state().calls.items()}

    # -- wrappers -------------------------------------------------------
    def wrap(self, name: str, fn: Callable, coarse: bool) -> Callable:
        """A timing wrapper around the synchronous callable *fn*."""
        get_state = self._state
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = get_state()
            stack = state.stack
            frame = [0.0, 0.0]
            stack.append(frame)
            if coarse:
                span_id = next(ids)
                parent = state.span_stack[-1] if state.span_stack else None
                state.span_stack.append(span_id)
            start = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _perf()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1 if coarse else 0] += duration
                acc = state.calls.get(name)
                if acc is None:
                    acc = state.calls[name] = [0, 0.0, 0.0]
                acc[0] += 1
                acc[1] += duration - frame[0] - frame[1]
                acc[2] += duration
                if coarse:
                    state.span_stack.pop()
                    spans.append(
                        Span(
                            span_id, parent, name, start, end, state.tag,
                            threading.get_ident(), frame[0],
                        )
                    )

        return wrapper

    def wrap_async(self, name: str, fn: Callable) -> Callable:
        """A wrapper around the coroutine function *fn* (see module docs)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _TimedAwaitable(tracer, name, fn(*args, **kwargs))

        return wrapper

    # -- installation ---------------------------------------------------
    def patch_method(self, cls: type, attr: str, name: str, coarse: bool) -> None:
        """Wrap ``cls.attr`` (a plain or ``async def`` method) in place."""
        original = cls.__dict__[attr]
        if inspect.iscoroutinefunction(original):
            wrapped = self.wrap_async(name, original)
        else:
            wrapped = self.wrap(name, original, coarse)
        self._undo.append((cls, attr, original))
        setattr(cls, attr, wrapped)

    def patch_function(self, fn: Callable, name: str, coarse: bool) -> int:
        """Wrap *fn* in every imported ``repro`` module that binds it.

        ``from x import f`` copies the binding, so patching only the
        defining module would miss every caller that imported the name.
        Returns how many bindings were replaced.
        """
        wrapped = self.wrap(name, fn, coarse)
        replaced = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, attr, fn))
                    setattr(module, attr, wrapped)
                    replaced += 1
        return replaced

    def uninstall(self) -> None:
        """Restore every binding :meth:`patch_*` replaced."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class _TimedAwaitable:
    """Drives a coroutine one step at a time, timing each step."""

    __slots__ = ("_tracer", "_name", "_coro")

    def __init__(self, tracer: Tracer, name: str, coro) -> None:
        self._tracer = tracer
        self._name = name
        self._coro = coro

    def __await__(self):
        get_state = self._tracer._state
        inner = self._coro.__await__()
        wall_start = _perf()
        busy = 0.0
        child = 0.0
        send_value = None
        throw: Optional[BaseException] = None
        try:
            while True:
                # Frames of different tasks interleave on the loop thread,
                # so a frame lives for one step only, never across a yield.
                state = get_state()
                frame = [0.0, 0.0]
                state.stack.append(frame)
                step_start = _perf()
                try:
                    if throw is None:
                        yielded = inner.send(send_value)
                    else:
                        exc, throw = throw, None
                        yielded = inner.throw(exc)
                except StopIteration as stop:
                    return stop.value
                finally:
                    step = _perf() - step_start
                    state.stack.pop()
                    if state.stack:
                        state.stack[-1][0] += step
                    busy += step
                    child += frame[0] + frame[1]
                try:
                    send_value = yield yielded
                except GeneratorExit:
                    inner.close()
                    raise
                except BaseException as exc:  # handed on to the coroutine
                    throw, send_value = exc, None
        finally:
            state = get_state()
            acc = state.calls.get(self._name)
            if acc is None:
                acc = state.calls[self._name] = [0, 0.0, 0.0]
            acc[0] += 1
            acc[1] += busy - child
            acc[2] += _perf() - wall_start


# ----------------------------------------------------------------------
# Arithmetic on recorded data
# ----------------------------------------------------------------------
def covered(intervals: Iterable[Tuple[float, float]], low: float, high: float) -> float:
    """Length of the union of *intervals*, clipped to ``[low, high]``."""
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of every span: duration minus child cover minus leaf time.

    Children are found by ``parent`` id and may overlap one another (parallel
    units on two threads): their *union* is subtracted, once.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: (span.end - span.start)
        - covered(children.get(span.id, ()), span.start, span.end)
        - span.leaf_s
        for span in spans
    }


def percentile(samples: Sequence[float], q: float) -> float:
    """The *q*-th percentile (nearest rank) of *samples*.

    A tail percentile is only as good as the samples beyond it: this refuses
    one with fewer than ten samples on its far side.  (Medians are taken
    with :func:`statistics.median` and are always reported.)
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie strictly between 0 and 100: {q}")
    count = len(samples)
    beyond = count * min(q, 100 - q) / 100.0
    if beyond < 10:
        raise ValueError(
            f"p{q:g} of {count} samples has only {beyond:.1f} samples beyond it"
            " (need 10)"
        )
    rank = -(-count * q // 100)  # ceil(count * q / 100)
    return sorted(samples)[int(rank) - 1]
