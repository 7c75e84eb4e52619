"""Fault-injection points for the durability layer's crash harness.

The crash-recovery suite proves, for every point where a real process can
die, that recovery from disk reaches a state key-identical to a reference
run.  Simulating the death needs hooks *inside* the durability code -- a
test cannot interpose between "the WAL record's first byte hit the file"
and "the fsync returned" from the outside -- so the WAL append, checkpoint
write/rename and commit paths each call :func:`fire` with a stable point
name.  With no injector installed (production), ``fire`` is a dict lookup
against an empty table; the hot paths pay nothing measurable.

Points instrumented by the subsystem:

* ``wal.append.before`` -- before any byte of a batch record is written
  (crash = the batch was never journaled);
* ``wal.append.torn`` -- special: the WAL writes *half* the record, flushes
  it, then raises (crash = a torn tail the replay must reject);
* ``wal.append.after`` -- after the fsync (crash = journaled, not applied);
* ``checkpoint.write`` -- before the base or delta files are written;
* ``checkpoint.manifest`` -- after them, before the manifest rename;
* ``checkpoint.rename`` -- before the atomic ``CURRENT`` pointer swap;
* ``commit.before`` / ``commit.after`` -- around the durable commit
  bookkeeping inside the scheduler's commit lock.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from repro.errors import PersistError


class InjectedFault(PersistError):
    """Raised by an armed fault point; the harness treats it as the crash."""

    def __init__(self, point: str) -> None:
        super().__init__(f"injected fault at {point!r}")
        self.point = point


class FaultInjector:
    """Arms named fault points; thread-safe, one-shot per arming."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._armed: Dict[str, int] = {}
        self.fired: Optional[str] = None

    def arm(self, point: str, hits: int = 1) -> None:
        """Trip *point* on its *hits*-th execution (1 = next time)."""
        if hits < 1:
            raise ValueError("hits counts from 1")
        with self._lock:
            self._armed[point] = hits

    def check(self, point: str) -> bool:
        """True exactly once, on the armed execution of *point*.

        Used directly by code that must do custom damage before crashing
        (the torn WAL write); everything else goes through :func:`fire`.
        """
        with self._lock:
            hits = self._armed.get(point)
            if hits is None:
                return False
            if hits > 1:
                self._armed[point] = hits - 1
                return False
            del self._armed[point]
            self.fired = point
            return True


_injector: Optional[FaultInjector] = None


def set_fault_injector(injector: Optional[FaultInjector]) -> None:
    """Install (or with ``None`` remove) the process-wide injector."""
    global _injector
    _injector = injector


def should_fire(point: str) -> bool:
    """True when an installed injector armed *point* (consumes the arming)."""
    injector = _injector
    return injector is not None and injector.check(point)


def fire(point: str) -> None:
    """Raise :class:`InjectedFault` when *point* is armed; no-op otherwise."""
    if should_fire(point):
        raise InjectedFault(point)
