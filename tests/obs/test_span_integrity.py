"""Span integrity when batches are flushed from several threads.

The acceptance criterion, as a test: two threads call ``flush`` at once --
the write lock lets their batches apply one after the other, each from
drain to commit -- and every batch's trace must still be a complete
drain -> commit span tree -- correctly nested, no orphan spans, no
cross-batch leakage -- whose per-span counter deltas sum *exactly* to the
scheduler's ``StreamStats`` totals.
"""

from __future__ import annotations

import threading

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

#: The towers each of a round's two batches writes.
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


def make_scheduler(obs=None):
    return StreamScheduler(parse_program(TOWER_RULES), ConstraintSolver(), obs=obs)


def run_concurrent_rounds(scheduler):
    """Per round, submit two batches' worth of requests (two towers each)
    and let two threads ``flush(limit=2)`` at once.  Returns ``(result,
    flushing thread name)`` per batch."""
    applied = []
    lock = threading.Lock()

    def flush():
        result = scheduler.flush(limit=2)
        with lock:
            applied.append((result, threading.current_thread().name))

    for number, (kind, constraint) in enumerate(ROUNDS):
        for towers in BATCH_TOWERS:
            for tower in towers:
                scheduler.submit(kind(parse_constrained_atom(f"b{tower}(X) <- {constraint}")))
        threads = [
            threading.Thread(target=flush, name=f"flush-{number}-{index}")
            for index in range(len(BATCH_TOWERS))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
            assert not thread.is_alive(), "test deadlock: a batch never committed"
    assert len(applied) == 2 * len(ROUNDS)
    return applied


def traced_run(scheduler, obs):
    """``(trace view, result, thread)`` per batch: a batch's trace is the
    one whose root span its flushing thread finished."""
    applied = run_concurrent_rounds(scheduler)
    views = {view.root["thread"]: view for view in group_traces(list(obs.ring.events()))}
    return [(views[thread], result, thread) for result, thread in applied]


def scheduler_totals(scheduler):
    return {
        attr: sum(getattr(batch, attr) for batch in scheduler.batches)
        for attr in COUNTER_ATTRS
    }


class TestSpanIntegrityUnderConcurrentBatches:
    def test_every_batch_has_a_complete_verified_span_tree(self):
        obs = Observability.enabled_with()
        scheduler = make_scheduler(obs)
        run_concurrent_rounds(scheduler)
        events = list(obs.ring.events())
        problems = verify_batch_traces(
            events,
            require_drain=True,
            expected_totals=scheduler_totals(scheduler),
        )
        assert problems == []
        assert len(group_traces(events)) == len(scheduler.batches) == 6

    def test_one_apply_span_per_batch_and_no_leak_across_batches(self):
        obs = Observability.enabled_with()
        for view, result, _ in traced_run(make_scheduler(obs), obs):
            # One apply span carrying *this* batch's pass -- a leaked span
            # from the other batch would break the count or the numbers.
            (report,) = result.stats.units
            (apply_span,) = view.find("apply")
            attrs = apply_span["attrs"]
            assert (attrs["deletions"], attrs["insertions"]) == (
                report.deletions,
                report.insertions,
            )
            (drain,) = view.find("drain")
            assert drain["attrs"]["transactions"] == result.stats.submitted == 2
            assert view.find("unit") == [] and view.find("admit") == []
            # Everything hangs off this trace's root; no orphans.
            assert view.root is not None
            assert all(
                e["parent"] in view.by_id
                for e in view.spans
                if e is not view.root
            )

    def test_every_span_records_the_flushing_thread(self):
        obs = Observability.enabled_with()
        runs = traced_run(make_scheduler(obs), obs)
        for view, _, thread in runs:
            # Drain, prepare, apply and commit all run on the thread that
            # flushed the batch.
            assert {e["thread"] for e in view.spans} == {thread}
        assert len({thread for _, _, thread in runs}) == 2 * len(ROUNDS)

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

    def test_disabled_observability_emits_nothing(self):
        scheduler = make_scheduler()
        run_concurrent_rounds(scheduler)
        obs = scheduler.obs
        assert obs.enabled is False
        assert obs.tracer is None and obs.ring is None
        assert len(scheduler.batches) == 6  # pipeline unaffected
