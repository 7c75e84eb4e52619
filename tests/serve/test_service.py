"""Tests for the asyncio mediator service (no network)."""

from __future__ import annotations

import asyncio
import gc
import threading
import time
import weakref

import pytest

from repro.constraints import ConstraintSolver
from repro.datalog import parse_constrained_atom, parse_program
from repro.errors import MediatorError
from repro.maintenance import DeletionRequest, InsertionRequest
from repro.maintenance.insert import ConstrainedAtomInsertion
from repro.mediator import Mediator
from repro.obs import Observability
from repro.serve import MediatorService, ServeOptions
from repro.stream import StreamOptions, StreamScheduler

RULES = """
b(X) <- X = 1.
b(X) <- X = 2.
c(X) <- b(X).
"""

UNIVERSE = tuple(range(0, 40))


def deletion(text: str) -> DeletionRequest:
    return DeletionRequest(parse_constrained_atom(text))


def insertion(text: str) -> InsertionRequest:
    return InsertionRequest(parse_constrained_atom(text))


def make_service(**serve_options) -> MediatorService:
    scheduler = StreamScheduler(parse_program(RULES), ConstraintSolver())
    return MediatorService(scheduler, ServeOptions(**serve_options))


class TestLifecycleAndReads:
    def test_query_reads_the_published_snapshot(self):
        async def main():
            async with make_service() as service:
                return await service.query("c", UNIVERSE)

        assert asyncio.run(main()) == {(1,), (2,)}

    def test_query_before_start_raises(self):
        async def main():
            service = make_service()
            with pytest.raises(MediatorError, match="not running"):
                await service.query("c", UNIVERSE)

        asyncio.run(main())

    def test_submit_after_stop_raises(self):
        async def main():
            service = make_service()
            await service.start()
            await service.stop()
            with pytest.raises(MediatorError, match="not accepting"):
                await service.submit(insertion("b(X) <- X = 9"))

        asyncio.run(main())

    def test_double_start_raises(self):
        async def main():
            async with make_service() as service:
                with pytest.raises(MediatorError, match="already started"):
                    await service.start()

        asyncio.run(main())


class TestWriterPipeline:
    def test_submitted_updates_are_applied_and_visible(self):
        async def main():
            async with make_service() as service:
                await service.submit(insertion("b(X) <- X = 7"))
                await service.submit(deletion("b(X) <- X = 1"))
                await service.drained()
                visible = await service.query("c", UNIVERSE)
                stats = service.stats()
                return visible, stats, service.scheduler

        visible, stats, scheduler = asyncio.run(main())
        assert visible == {(2,), (7,)}
        assert stats["batches_applied"] >= 1
        assert stats["batch_errors"] == 0
        assert stats["pending"] == 0
        assert scheduler.verify(UNIVERSE)

    def test_superseded_views_are_not_kept_alive(self):
        # Regression: the service used to append every BatchResult to a
        # list, pinning each superseded view's shards for its lifetime.
        async def main():
            async with make_service() as service:
                await service.submit(insertion("b(X) <- X = 10"))
                await service.drained()
                early = weakref.ref(service.view)
                for value in range(11, 19):
                    await service.submit(insertion(f"b(X) <- X = {value}"))
                    await service.drained()
                gc.collect()
                return early() is None, service.stats()

        released, stats = asyncio.run(main())
        assert stats["batches_applied"] == 9
        assert stats["failed_units"] == 0
        assert released

    def test_the_writer_applies_one_batch_at_a_time(self, monkeypatch):
        # Batch n+1 is drained and prepared while batch n applies, but it
        # reaches apply_prepared only after batch n committed.
        original = StreamScheduler.apply_prepared
        lock = threading.Lock()
        applying = {"now": 0, "peak": 0}

        def counting(self, prepared):
            with lock:
                applying["now"] += 1
                applying["peak"] = max(applying["peak"], applying["now"])
            try:
                return original(self, prepared)
            finally:
                with lock:
                    applying["now"] -= 1

        monkeypatch.setattr(StreamScheduler, "apply_prepared", counting)
        # Slow the first pass down, so batch n+1 is prepared while batch n
        # is still applying.
        slow = {"first": True}
        insert_many = ConstrainedAtomInsertion.insert_many

        def slow_first(self, view, requests):
            if slow.pop("first", False):
                time.sleep(0.2)
            return insert_many(self, view, requests)

        monkeypatch.setattr(ConstrainedAtomInsertion, "insert_many", slow_first)

        async def main():
            async with make_service(max_batch=1) as service:
                for value in range(10, 18):
                    await service.submit(insertion(f"b(X) <- X = {value}"))
                await service.drained()
                return service.stats(), await service.query("b", UNIVERSE)

        stats, visible = asyncio.run(main())
        assert applying["peak"] == 1
        assert stats["batches_applied"] == 8
        assert {(value,) for value in range(10, 18)} <= visible

    def test_stop_drains_pending_updates(self):
        async def main():
            service = make_service()
            await service.start()
            await service.submit(insertion("b(X) <- X = 8"))
            await service.stop()
            return service.scheduler

        scheduler = asyncio.run(main())
        assert (8,) in scheduler.query("b", UNIVERSE)
        assert scheduler.log.pending_count() == 0

    def test_failed_batch_surfaces_in_errors_and_service_keeps_going(
        self, monkeypatch
    ):
        # Force the insertion pass to explode: the batch records an error
        # (failed unit), later batches still apply.
        original = ConstrainedAtomInsertion.insert_many
        poisoned = {"calls": 0}

        def flaky(self, view, requests):
            poisoned["calls"] += 1
            if poisoned["calls"] == 1:
                raise RuntimeError("source offline")
            return original(self, view, requests)

        monkeypatch.setattr(ConstrainedAtomInsertion, "insert_many", flaky)

        async def main():
            scheduler = StreamScheduler(
                parse_program(RULES),
                ConstraintSolver(),
                options=StreamOptions(max_unit_attempts=1),
            )
            async with MediatorService(scheduler) as service:
                await service.submit(insertion("b(X) <- X = 7"))
                await service.drained()
                first = service.stats()
                await service.submit(insertion("b(X) <- X = 8"))
                await service.drained()
                return first, service.stats(), await service.query("b", UNIVERSE)

        first, second, visible = asyncio.run(main())
        assert first["failed_units"] == 1
        assert second["batches_applied"] == 2
        assert (8,) in visible and (7,) not in visible

    # A drain fails after the log handed its transactions over (a durable
    # drain's WAL fsync comes second); a prepare fails while coalescing (a
    # source raising), before the batch takes a ticket.
    @pytest.mark.parametrize(
        "stage, after_original", [("drain", True), ("prepare_batch", False)]
    )
    def test_a_drain_or_prepare_failure_drops_the_batch_and_keeps_serving(
        self, monkeypatch, stage, after_original
    ):
        # The writer records the error like a failed apply, drops that
        # batch and applies the next one.
        original = getattr(StreamScheduler, stage)
        calls = {"count": 0}

        def failing_once(self, *args, **kwargs):
            calls["count"] += 1
            if calls["count"] > 1:
                return original(self, *args, **kwargs)
            if after_original:
                original(self, *args, **kwargs)
            raise OSError("disk offline")

        async def main():
            scheduler = StreamScheduler(
                parse_program(RULES),
                ConstraintSolver(),
                obs=Observability.enabled_with(),
            )
            async with MediatorService(scheduler) as service:
                monkeypatch.setattr(StreamScheduler, stage, failing_once)
                await service.submit(insertion("b(X) <- X = 7"))
                await asyncio.wait_for(service.drained(), 10)
                errors = service.errors
                await service.submit(insertion("b(X) <- X = 8"))
                await asyncio.wait_for(service.drained(), 10)
                return (
                    errors,
                    service.stats(),
                    service.obs.metrics,
                    await service.query("b", UNIVERSE),
                )

        errors, stats, metrics, visible = asyncio.run(main())
        assert errors == ("OSError: disk offline",)
        assert stats["batch_errors"] == 1
        assert metrics.counter_value("repro_serve_errors_total") == 1
        assert stats["batches_applied"] == 1
        assert stats["pending"] == 0
        assert (8,) in visible and (7,) not in visible


class TestBackpressure:
    def test_submit_awaits_when_backlog_crosses_the_high_watermark(
        self, monkeypatch
    ):
        gate = threading.Event()
        original = ConstrainedAtomInsertion.insert_many

        def gated(self, view, requests):
            assert gate.wait(10)
            return original(self, view, requests)

        monkeypatch.setattr(ConstrainedAtomInsertion, "insert_many", gated)

        async def wait_until(predicate, timeout=10.0):
            deadline = asyncio.get_running_loop().time() + timeout
            while not predicate():
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.01)

        async def main():
            service = make_service(
                backpressure_high=2, backpressure_low=0, max_batch=1
            )
            async with service:
                log = service.scheduler.log
                # Batch [10] is drained and blocks inside apply (the gate).
                await service.submit(insertion("b(X) <- X = 10"))
                await wait_until(lambda: log.pending_count() == 0)
                # Batch [11] is drained and prepared, then the writer waits
                # for the one batch in flight: nothing can drain any more.
                await service.submit(insertion("b(X) <- X = 11"))
                await wait_until(lambda: log.pending_count() == 0)
                # These two cross the high watermark with the writer stuck.
                await service.submit(insertion("b(X) <- X = 12"))
                await service.submit(insertion("b(X) <- X = 13"))
                blocked = asyncio.ensure_future(
                    service.submit(insertion("b(X) <- X = 14"))
                )
                done, pending = await asyncio.wait([blocked], timeout=0.3)
                was_blocked = blocked in pending
                gate.set()
                await blocked
                await service.drained()
                return was_blocked, await service.query("b", UNIVERSE)

        was_blocked, visible = asyncio.run(main())
        assert was_blocked, "submit should have waited at the high watermark"
        assert {(10,), (11,), (12,), (13,), (14,)} <= visible

    def test_rejects_inverted_watermarks(self):
        with pytest.raises(MediatorError, match="backpressure_low"):
            ServeOptions(backpressure_high=1, backpressure_low=2)

    @pytest.mark.parametrize("max_batch", [0, -1])
    def test_rejects_a_batch_limit_that_drains_nothing(self, max_batch):
        # A writer draining at most 0 transactions never applies a submitted
        # update, and stop() waits for it forever.
        with pytest.raises(MediatorError, match="max_batch"):
            ServeOptions(max_batch=max_batch)
        assert ServeOptions(max_batch=None).max_batch is None

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_a_worker_count_below_one(self, workers):
        # A pool of no threads is refused where the options are built, not
        # clamped to one thread when the service starts.
        with pytest.raises(MediatorError, match="read_workers"):
            ServeOptions(read_workers=workers)
        assert ServeOptions(read_workers=1).read_workers == 1


class TestSnapshotLeases:
    def test_lease_pins_view_and_program_across_updates(self):
        async def main():
            async with make_service() as service:
                lease = service.lease()
                before = lease.query("c", UNIVERSE)
                await service.submit(deletion("b(X) <- X = 1"))
                await service.drained()
                return (
                    before,
                    lease.query("c", UNIVERSE),
                    await service.query_lease(lease, "c", UNIVERSE),
                    await service.query("c", UNIVERSE),
                    lease.sequence,
                    len(service.scheduler.batches),
                )

        before, pinned, via_pool, current, seq_before, seq_after = asyncio.run(
            main()
        )
        assert before == pinned == via_pool == {(1,), (2,)}
        assert current == {(2,)}
        assert seq_before == 0 and seq_after >= 1

    def test_lease_instances_cover_the_whole_snapshot(self):
        async def main():
            async with make_service() as service:
                return service.lease().instances(UNIVERSE)

        instances = asyncio.run(main())
        assert ("b", (1,)) in instances and ("c", (2,)) in instances


class TestMediatorFacade:
    def test_mediator_streaming_shares_the_solver(self):
        mediator = Mediator(parse_program(RULES))
        scheduler = mediator.streaming()
        assert scheduler.solver is mediator.solver
        scheduler.apply_batch([deletion("b(X) <- X = 1")])
        assert scheduler.verify(UNIVERSE)

    def test_mediator_serve_returns_a_startable_service(self):
        async def main():
            mediator = Mediator(parse_program(RULES))
            async with mediator.serve() as service:
                await service.submit(insertion("b(X) <- X = 4"))
                await service.drained()
                return await service.query("b", UNIVERSE)

        assert asyncio.run(main()) == {(1,), (2,), (4,)}
