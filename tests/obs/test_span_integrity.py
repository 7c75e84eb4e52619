"""Span integrity under concurrent batch application.

The acceptance criterion, as a test: two prepared batches whose write
closures fall in disjoint closure groups are applied by ``apply_prepared``
on two threads at once -- the concurrency the pipelined scheduler has --
and every batch's trace must still be a complete drain -> commit span tree
-- correctly nested, no orphan spans, no cross-batch leakage -- whose
per-span counter deltas sum *exactly* to the scheduler's ``StreamStats``
totals.

The overlap is deterministic, not timed: every unit waits at a two-party
barrier for a unit of the other batch, so both batches are mid-apply
together.
"""

from __future__ import annotations

import threading

import pytest

from repro.constraints import ConstraintSolver
from repro.datalog import parse_constrained_atom, parse_program
from repro.maintenance import DeletionRequest, InsertionRequest
from repro.obs import (
    COUNTER_ATTRS,
    Observability,
    group_traces,
    verify_batch_traces,
)
from repro.stream import StreamScheduler

TOWERS = 4

#: The towers each of a round's two batches writes: disjoint closure groups.
BATCH_TOWERS = ((0, 1), (2, 3))

TOWER_RULES = "\n".join(
    line
    for tower in range(TOWERS)
    for line in (
        f"b{tower}(X) <- X = {tower + 1}.",
        f"mid{tower}(X) <- b{tower}(X).",
        f"top{tower}(X) <- mid{tower}(X).",
    )
)

#: Three rounds, each touching all four towers.
ROUNDS = (
    (InsertionRequest, "X = 10"),
    (InsertionRequest, "X = 11"),
    (DeletionRequest, "X = 10"),
)


@pytest.fixture
def meeting_units(monkeypatch):
    """Make every unit wait for a unit of the other batch of its round."""
    barrier = threading.Barrier(2, timeout=10)
    apply_unit = StreamScheduler._apply_unit_with_retry

    def meeting(self, *args):
        barrier.wait()
        return apply_unit(self, *args)

    monkeypatch.setattr(StreamScheduler, "_apply_unit_with_retry", meeting)


def make_scheduler(obs=None):
    return StreamScheduler(parse_program(TOWER_RULES), ConstraintSolver(), obs=obs)


def run_concurrent_rounds(scheduler):
    """Per round, prepare two disjoint-group batches of two units each and
    apply them on two threads at once.  Returns ``(prepared, result,
    applying thread name)`` per batch."""
    applied = []
    for kind, constraint in ROUNDS:
        prepared = []
        for towers in BATCH_TOWERS:
            for tower in towers:
                scheduler.submit(kind(parse_constrained_atom(f"b{tower}(X) <- {constraint}")))
            prepared.append(scheduler.prepare_batch(scheduler.drain()))
        lock = threading.Lock()

        def apply(batch):
            result = scheduler.apply_prepared(batch)
            with lock:
                applied.append((batch, result, threading.current_thread().name))

        threads = [
            threading.Thread(target=apply, args=(batch,), name=f"apply-{index}")
            for index, batch in enumerate(prepared)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
            assert not thread.is_alive(), "test deadlock: a batch never committed"
    assert len(applied) == 2 * len(ROUNDS)
    return applied


def traced_run(scheduler, obs):
    applied = run_concurrent_rounds(scheduler)
    views = {view.trace_id: view for view in group_traces(list(obs.ring.events()))}
    return [(views[batch.trace.trace_id], result, thread) for batch, result, thread in applied]


def scheduler_totals(scheduler):
    return {
        attr: sum(getattr(batch, attr) for batch in scheduler.batches)
        for attr in COUNTER_ATTRS
    }


@pytest.mark.usefixtures("meeting_units")
class TestSpanIntegrityUnderConcurrentBatches:
    def test_every_batch_has_a_complete_verified_span_tree(self):
        obs = Observability.enabled_with()
        scheduler = make_scheduler(obs)
        run_concurrent_rounds(scheduler)
        # Both batches of a round were admitted and applying together.
        assert scheduler.inflight_peak == 2
        events = list(obs.ring.events())
        problems = verify_batch_traces(
            events,
            require_drain=True,
            expected_totals=scheduler_totals(scheduler),
        )
        assert problems == []
        assert len(group_traces(events)) == len(scheduler.batches) == 6

    def test_unit_spans_nest_under_apply_and_never_leak_across_batches(self):
        obs = Observability.enabled_with()
        for view, result, _ in traced_run(make_scheduler(obs), obs):
            # One unit span per stratum unit of *this* batch, naming its
            # units -- a leaked span from the concurrent batch would break
            # the count or the names.
            units = view.find("unit")
            assert sorted(u["attrs"]["unit"] for u in units) == sorted(
                unit.description for unit in result.stats.units
            )
            assert len(units) == 2
            (apply_span,) = view.find("apply")
            assert all(u["parent"] == apply_span["span"] for u in units)
            # Everything hangs off this trace's root; no orphans.
            assert view.root is not None
            assert all(
                e["parent"] in view.by_id
                for e in view.spans
                if e is not view.root
            )

    def test_unit_spans_record_the_applying_thread(self):
        obs = Observability.enabled_with()
        runs = traced_run(make_scheduler(obs), obs)
        for view, _, thread in runs:
            # A batch's units run one after another on the thread that
            # applies the batch; drain and prepare ran on the caller's.
            spans = view.find("unit") + view.find("apply") + view.find("commit")
            assert {e["thread"] for e in spans} == {thread}
            assert view.root["thread"] != thread
        assert {thread for _, _, thread in runs} == {"apply-0", "apply-1"}

    def test_per_batch_counter_deltas_reconcile_exactly(self):
        obs = Observability.enabled_with()
        for view, result, _ in traced_run(make_scheduler(obs), obs):
            totals = view.counter_totals()
            assert totals["solver_calls"] == result.stats.solver_calls
            assert totals["derivation_attempts"] == result.stats.derivation_attempts
            assert totals["shard_checkouts"] == result.stats.shard_checkouts

    def test_root_attrs_summarize_their_batch(self):
        obs = Observability.enabled_with()
        for view, result, _ in traced_run(make_scheduler(obs), obs):
            attrs = view.root["attrs"]
            assert attrs["applied"] == result.stats.applied
            assert attrs["units"] == len(result.stats.units)
            assert attrs["solver_calls"] == result.stats.solver_calls
            assert attrs["rebased"] == result.stats.rebased

    def test_registry_counters_match_scheduler_history(self):
        obs = Observability.enabled_with()
        scheduler = make_scheduler(obs)
        run_concurrent_rounds(scheduler)
        metrics = obs.metrics
        batches = scheduler.batches
        assert metrics.counter_value("repro_batches_total") == len(batches)
        assert metrics.counter_value("repro_updates_applied_total") == sum(
            batch.applied for batch in batches
        )
        assert metrics.counter_value(
            "repro_units_total", status="applied"
        ) == sum(len(batch.units) for batch in batches)
        assert metrics.counter_value("repro_shard_checkouts_total") == sum(
            batch.shard_checkouts for batch in batches
        )
        assert metrics.counter_value("repro_rebased_commits_total") == sum(
            batch.rebased for batch in batches
        )

    def test_disabled_observability_emits_nothing(self):
        scheduler = make_scheduler()
        run_concurrent_rounds(scheduler)
        obs = scheduler.obs
        assert obs.enabled is False
        assert obs.tracer is None and obs.ring is None
        assert len(scheduler.batches) == 6  # pipeline unaffected
