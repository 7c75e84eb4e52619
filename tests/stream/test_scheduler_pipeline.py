"""Tests for the scheduler's one writer: flush from drain to commit.

Covers prepare + apply as the two halves of one batch, the lost-write
guard, the queue/apply timing split, transaction order under concurrent
flushes, and the torn-snapshot fix in ``verify()``.

All concurrency here is *deterministic*: held batches wait on explicit
events, never on timing.
"""

from __future__ import annotations

import threading

import pytest

from repro.constraints import ConstraintSolver
from repro.datalog import parse_constrained_atom, parse_program
from repro.errors import MaintenanceError
from repro.maintenance import DeletionRequest, InsertionRequest
from repro.stream import StreamOptions, StreamScheduler, UpdateLog

TWO_TOWER_RULES = """
left(X) <- X = 1.
left(X) <- X = 2.
right(X) <- X = 11.
right(X) <- X = 12.
mid(X) <- left(X).
top(X) <- mid(X).
other(X) <- right(X).
"""

UNIVERSE = tuple(range(0, 40))


def deletion(text: str) -> DeletionRequest:
    return DeletionRequest(parse_constrained_atom(text))


def insertion(text: str) -> InsertionRequest:
    return InsertionRequest(parse_constrained_atom(text))


def make_scheduler(**options) -> StreamScheduler:
    return StreamScheduler(
        parse_program(TWO_TOWER_RULES),
        ConstraintSolver(),
        options=StreamOptions(**options),
    )


class ObservedLock:
    """A stand-in for the scheduler's write lock that sets *contended*
    when a thread has to wait for it."""

    def __init__(self, contended: threading.Event):
        self._lock = threading.Lock()
        self.contended = contended

    def __enter__(self):
        if not self._lock.acquire(blocking=False):
            self.contended.set()
            self._lock.acquire()
        return self

    def __exit__(self, *exc_info):
        self._lock.release()


class TestPreparedBatches:
    def test_prepare_then_apply_equals_apply_batch(self):
        scheduler = make_scheduler()
        prepared = scheduler.prepare_batch([deletion("left(X) <- X = 1")])
        assert prepared.write_scope == {"left", "mid", "top"}
        result = scheduler.apply_prepared(prepared)
        assert result.ok
        assert scheduler.query("left", UNIVERSE) == {(2,)}
        assert scheduler.verify(UNIVERSE)

    def test_a_commit_over_a_changed_published_view_raises(self, monkeypatch):
        # Something published while the batch applied: publishing the
        # batch's view would drop that write, so the commit refuses.
        scheduler = make_scheduler()
        run_pass = StreamScheduler._run_pass
        swapped = []

        def publishing_behind_its_back(self, *args):
            outcome = run_pass(self, *args)
            if not swapped:
                swapped.append(self._published.copy())
                self._published = swapped[0]
            return outcome

        monkeypatch.setattr(StreamScheduler, "_run_pass", publishing_behind_its_back)
        with pytest.raises(MaintenanceError, match="lost write"):
            scheduler.apply_batch([deletion("left(X) <- X = 1")])
        assert scheduler.view is swapped[0]
        assert scheduler.batches == ()
        # The failed batch released the write lock: the next one applies.
        assert scheduler.apply_batch([deletion("left(X) <- X = 1")]).ok
        assert scheduler.query("left", UNIVERSE) == {(2,)}

    def test_stats_dict_reports_the_timing_split(self):
        scheduler = make_scheduler()
        stats = scheduler.apply_batch([deletion("left(X) <- X = 1")]).stats
        rendered = stats.as_dict()
        assert {"queue_seconds", "apply_seconds", "seconds"} <= set(rendered)
        assert stats.seconds == pytest.approx(
            stats.queue_seconds + stats.apply_seconds
        )
        assert stats.apply_seconds > 0


class TestConcurrentFlushes:
    def test_concurrent_flushes_publish_the_transaction_order(self, monkeypatch):
        # Thread A drains transaction 1 (delete left(1)) and is held before
        # prepare; transaction 2 (insert left(1)) is then submitted and
        # flushed by thread B.  Applied in order the two give {1, 2}.  A's
        # drained batch must commit before B drains: the write lock spans
        # drain to commit.  A is let go once B waits for that lock (or, if
        # nothing holds B back, once B's flush is done).
        scheduler = make_scheduler()
        held, go = threading.Event(), threading.Event()
        scheduler._write_lock = ObservedLock(go)
        original = StreamScheduler.prepare_batch

        def gated(self, payloads, *args, **kwargs):
            if not held.is_set():
                held.set()
                assert go.wait(10), "test deadlock: A was never let go"
            return original(self, payloads, *args, **kwargs)

        monkeypatch.setattr(StreamScheduler, "prepare_batch", gated)
        results = {}
        scheduler.submit(deletion("left(X) <- X = 1"))
        first = threading.Thread(target=lambda: results.update(a=scheduler.flush()))
        first.start()
        assert held.wait(10)
        scheduler.submit(insertion("left(X) <- X = 1"))

        def flush_b():
            results["b"] = scheduler.flush()
            go.set()

        second = threading.Thread(target=flush_b)
        second.start()
        first.join(10)
        second.join(10)
        assert not first.is_alive() and not second.is_alive()
        assert results["a"].ok and results["b"].ok
        assert scheduler.query("left", UNIVERSE) == {(1,), (2,)}
        assert scheduler.verify(UNIVERSE)


class TestSnapshotState:
    def test_snapshot_state_returns_a_consistent_pair(self, monkeypatch):
        observed = []
        run_pass = StreamScheduler._run_pass

        def observing(self, *args):
            outcome = run_pass(self, *args)
            observed.append(self.snapshot_state())
            return outcome

        monkeypatch.setattr(StreamScheduler, "_run_pass", observing)
        program = parse_program(TWO_TOWER_RULES)
        scheduler = StreamScheduler(program, ConstraintSolver())
        before_view, before_program = scheduler.snapshot_state()
        assert before_program is program
        scheduler.apply_batch([deletion("left(X) <- X = 1")])
        # Mid-batch the pair is still the *pre-batch* pair: the commit
        # swaps view and program together under the commit lock.
        (mid,) = observed
        assert mid[0] is before_view
        assert mid[1] is before_program
        after_view, after_program = scheduler.snapshot_state()
        assert after_view is not before_view
        assert after_program is not before_program

    def test_verify_holds_across_a_stream_of_batches(self):
        scheduler = make_scheduler()
        scheduler.apply_batch(
            [deletion("left(X) <- X = 1"), insertion("right(X) <- X = 13")]
        )
        scheduler.apply_batch([insertion("left(X) <- X = 3")])
        assert scheduler.verify(UNIVERSE)


class TestDrainLimit:
    def test_drain_limit_consumes_a_bounded_prefix(self):
        log = UpdateLog(clock=lambda: 0.0)
        payloads = [insertion(f"left(X) <- X = {value}") for value in range(5)]
        for payload in payloads:
            log.append(payload)
        first = log.drain(limit=2)
        assert [txn.txn_id for txn in first] == [1, 2]
        assert log.pending_count() == 3
        rest = log.drain()
        assert [txn.txn_id for txn in rest] == [3, 4, 5]
        assert log.drain(limit=2) == ()

    def test_drain_without_limit_is_unchanged(self):
        log = UpdateLog(clock=lambda: 0.0)
        log.append(insertion("left(X) <- X = 1"))
        assert len(log.drain()) == 1
