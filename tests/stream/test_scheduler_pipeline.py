"""Tests for the scheduler's two-stage batch pipeline and admission.

Covers the concurrency restructuring: the coalesce/commit lock split
(prepare while applying), closure-group admission (disjoint batches
overlap, conflicting batches keep stream order), the rebased commit, the
queue/apply timing split, and the torn-snapshot fix in ``verify()``.

All concurrency here is *deterministic*: blocked maintenance passes wait
on explicit events, never on timing.
"""

from __future__ import annotations

import threading

import pytest

from repro.constraints import ConstraintSolver
from repro.datalog import parse_constrained_atom, parse_program
from repro.errors import MaintenanceError
from repro.maintenance import DeletionRequest, InsertionRequest, StraightDelete
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


class BlockingDelete:
    """Monkeypatch helper: block ``delete_many`` for chosen predicates."""

    def __init__(self, monkeypatch, predicates):
        self.started = threading.Event()
        self.release = threading.Event()
        original = StraightDelete.delete_many
        blocked = frozenset(predicates)
        helper = self

        def gated(self, view, requests, purge_predicates=None):
            if requests[0].atom.predicate in blocked:
                helper.started.set()
                assert helper.release.wait(10), "test deadlock: never released"
            return original(self, view, requests, purge_predicates)

        monkeypatch.setattr(StraightDelete, "delete_many", gated)


class TestPreparedBatches:
    def test_prepare_then_apply_equals_apply_batch(self):
        scheduler = make_scheduler()
        prepared = scheduler.prepare_batch([deletion("left(X) <- X = 1")])
        assert prepared.group_ids  # both towers have analyzer groups
        result = scheduler.apply_prepared(prepared)
        assert result.ok
        assert scheduler.query("left", UNIVERSE) == {(2,)}
        assert scheduler.verify(UNIVERSE)

    def test_apply_prepared_twice_raises(self):
        scheduler = make_scheduler()
        prepared = scheduler.prepare_batch([deletion("left(X) <- X = 1")])
        scheduler.apply_prepared(prepared)
        with pytest.raises(MaintenanceError, match="already applied"):
            scheduler.apply_prepared(prepared)

    def test_stats_dict_reports_the_timing_split(self):
        scheduler = make_scheduler()
        stats = scheduler.apply_batch([deletion("left(X) <- X = 1")]).stats
        rendered = stats.as_dict()
        assert {"queue_seconds", "apply_seconds", "seconds", "rebased"} <= set(
            rendered
        )
        assert stats.seconds == pytest.approx(
            stats.queue_seconds + stats.apply_seconds
        )
        assert stats.apply_seconds > 0
        assert rendered["rebased"] is False


class TestConcurrentDisjointBatches:
    def test_disjoint_group_batches_overlap_and_rebase(self, monkeypatch):
        scheduler = make_scheduler()
        gate = BlockingDelete(monkeypatch, {"left"})
        results = []
        blocked = threading.Thread(
            target=lambda: results.append(
                scheduler.apply_batch([deletion("left(X) <- X = 1")])
            )
        )
        blocked.start()
        assert gate.started.wait(10)
        # The left-tower batch is mid-apply; a right-tower batch writes a
        # disjoint closure group, so it must run to completion *now*.
        right = scheduler.apply_batch([deletion("right(X) <- X = 11")])
        assert right.ok
        assert not right.stats.rebased  # nothing committed before it
        assert scheduler.query("right", UNIVERSE) == {(12,)}
        gate.release.set()
        blocked.join(10)
        assert not blocked.is_alive()
        (left,) = results
        assert left.ok
        # The left batch committed after the right one: its commit rebased
        # onto the newer published view instead of overwriting it.
        assert left.stats.rebased
        assert scheduler.concurrent_commits == 1
        assert scheduler.inflight_peak >= 2
        assert scheduler.query("left", UNIVERSE) == {(2,)}
        assert scheduler.query("right", UNIVERSE) == {(12,)}
        assert scheduler.verify(UNIVERSE)

    def test_conflicting_batches_are_admitted_in_prepare_order(
        self, monkeypatch
    ):
        scheduler = make_scheduler()
        gate = BlockingDelete(monkeypatch, {"left"})
        results = []
        first = threading.Thread(
            target=lambda: results.append(
                scheduler.apply_batch([deletion("left(X) <- X = 1")])
            )
        )
        first.start()
        assert gate.started.wait(10)
        second_done = threading.Event()

        def run_second():
            results.append(
                scheduler.apply_batch([insertion("left(X) <- X = 5")])
            )
            second_done.set()

        second = threading.Thread(target=run_second)
        second.start()
        # Same closure group: the second batch must wait for the first.
        assert not second_done.wait(0.2)
        gate.release.set()
        first.join(10)
        assert second_done.wait(10)
        second.join(10)
        first_result, second_result = results
        assert first_result.ok and second_result.ok
        # Admitted strictly after the first committed, so no rebase -- and
        # the wait shows up as queue time, not apply time.
        assert not second_result.stats.rebased
        assert second_result.stats.queue_seconds > 0
        assert scheduler.query("left", UNIVERSE) == {(2,), (5,)}
        assert scheduler.verify(UNIVERSE)


class TestSnapshotState:
    def test_snapshot_state_returns_a_consistent_pair(self, monkeypatch):
        observed = []
        apply_unit = StreamScheduler._apply_unit_with_retry

        def observing(self, *args):
            outcome = apply_unit(self, *args)
            observed.append(self.snapshot_state())
            return outcome

        monkeypatch.setattr(StreamScheduler, "_apply_unit_with_retry", observing)
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
