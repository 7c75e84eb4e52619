"""Concurrency stress test: readers vs the writer pipeline, sanitizer armed.

N asyncio reader tasks query leased snapshots while the service's writer
drains and applies a stream of update batches -- with
``REPRO_SHARD_SANITIZER=1``, so any shared-shard mutation, checkout-scope
escape, or torn publish fails loudly instead of corrupting a snapshot.

The invariant each read checks is *atomic publication*: every tower is a
chain ``b_t -> l_t -> top_t`` of copy rules, so on any fully-published
snapshot the instance sets of ``top_t`` and ``b_t`` are equal.  A read
that caught a half-applied batch (base rewritten, top not yet) would see
them differ.  The final view is additionally compared against a fully
serialized sequential baseline applying the same stream.
"""

from __future__ import annotations

import asyncio

from repro.constraints import ConstraintSolver
from repro.datalog import parse_constrained_atom, parse_program
from repro.maintenance import DeletionRequest, InsertionRequest
from repro.serve import MediatorService, ServeOptions
from repro.stream import StreamOptions, StreamScheduler

TOWERS = 4
DEPTH = 2
BASE_VALUES = (0, 1, 2)
UNIVERSE = tuple(range(0, 64))


def tower_rules() -> str:
    lines = []
    for tower in range(TOWERS):
        for value in BASE_VALUES:
            lines.append(f"b{tower}(X) <- X = {value}.")
        previous = f"b{tower}"
        for layer in range(DEPTH):
            lines.append(f"l{tower}_{layer}(X) <- {previous}(X).")
            previous = f"l{tower}_{layer}"
        lines.append(f"top{tower}(X) <- {previous}(X).")
    return "\n".join(lines)


def stream_payloads():
    """The update stream: per (tower, value) exactly one insert or delete.

    Net effect per tower is then independent of how the service batches
    and coalesces the stream, so the final view is comparable against any
    serialized replay of the same payloads.
    """
    payloads = []
    for round_index, value in enumerate((0, 1)):
        for tower in range(TOWERS):
            payloads.append(
                DeletionRequest(
                    parse_constrained_atom(f"b{tower}(X) <- X = {value}")
                )
            )
    for round_index, value in enumerate((10, 20)):
        for tower in range(TOWERS):
            payloads.append(
                InsertionRequest(
                    parse_constrained_atom(
                        f"b{tower}(X) <- X = {value + tower}"
                    )
                )
            )
    return payloads


def expected_base(tower: int):
    return {(2,), (10 + tower,), (20 + tower,)}


class TestServeStress:
    def test_readers_never_observe_torn_state_under_sanitizer(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SHARD_SANITIZER", "1")
        rules = tower_rules()
        payloads = stream_payloads()

        async def main():
            scheduler = StreamScheduler(
                parse_program(rules), ConstraintSolver()
            )
            service = MediatorService(
                scheduler,
                ServeOptions(read_workers=4, max_batch=3),
            )
            reads = {"count": 0}
            writer_done = asyncio.Event()

            async def reader(tower: int):
                # Hammer leased snapshots until the writer finishes; the
                # lease pins one (view, program) pair, so base and top are
                # read from the *same* snapshot.
                while not writer_done.is_set():
                    lease = service.lease()
                    base = await service.query_lease(
                        lease, f"b{tower}", UNIVERSE
                    )
                    top = await service.query_lease(
                        lease, f"top{tower}", UNIVERSE
                    )
                    assert top == base, (
                        f"torn snapshot on tower {tower}: base={base!r} "
                        f"top={top!r} (lease seq {lease.sequence})"
                    )
                    reads["count"] += 1

            async def writer():
                for payload in payloads:
                    await service.submit(payload)
                    # Yield so reads interleave with every submit.
                    await asyncio.sleep(0)
                await service.drained()
                writer_done.set()

            async with service:
                tasks = [
                    asyncio.ensure_future(reader(tower))
                    for tower in range(TOWERS)
                ]
                await asyncio.wait_for(writer(), timeout=120)
                await asyncio.gather(*tasks)
                final = {
                    tower: await service.query(f"b{tower}", UNIVERSE)
                    for tower in range(TOWERS)
                }
                tops = {
                    tower: await service.query(f"top{tower}", UNIVERSE)
                    for tower in range(TOWERS)
                }
                stats = service.stats()
            return reads["count"], final, tops, stats, scheduler

        read_count, final, tops, stats, scheduler = asyncio.run(main())
        assert read_count > 0, "readers never ran"
        assert stats["batch_errors"] == 0
        assert stats["failed_units"] == 0
        for tower in range(TOWERS):
            assert final[tower] == expected_base(tower)
            assert tops[tower] == final[tower]
        # The published endpoint still satisfies the effective program.
        assert scheduler.verify(UNIVERSE)

        # One-thread baseline over the identical stream: same final
        # instance sets, whatever batching the service happened to use.
        baseline = StreamScheduler(
            parse_program(rules),
            ConstraintSolver(),
            options=StreamOptions(max_workers=1),
        )
        for payload in stream_payloads():
            baseline.apply_batch([payload])
        solver = ConstraintSolver()
        for tower in range(TOWERS):
            assert (
                baseline.view.instances_for(f"b{tower}", solver, UNIVERSE)
                == final[tower]
            )
            assert (
                baseline.view.instances_for(f"top{tower}", solver, UNIVERSE)
                == tops[tower]
            )

    def test_durable_service_survives_a_mid_churn_restart(
        self, monkeypatch, tmp_path
    ):
        """Recovery stress: serve churn + checkpoint + simulated restart.

        A durable service (sanitizer armed) applies the first half of the
        stream under reader churn with a checkpoint forced mid-run, then
        stops WITHOUT a final checkpoint -- leaving a WAL tail.  The
        second life must recover exactly the first life's view, resume
        transaction ids above the persisted high-water mark, drain the
        rest of the stream, and land instance-identical to a serialized
        baseline of the whole stream: no duplicate, no lost batch.
        """
        monkeypatch.setenv("REPRO_SHARD_SANITIZER", "1")
        from repro.persist import DurabilityOptions, open_scheduler

        rules = tower_rules()
        payloads = stream_payloads()
        half = len(payloads) // 2
        data_dir = tmp_path / "durable"
        # Never auto-checkpoint: the mid-run checkpoint and the WAL tail
        # are both under the test's control.
        durability = DurabilityOptions(checkpoint_wal_bytes=1 << 30)

        def view_keys(view):
            return sorted(str(entry.key()) for entry in view)

        async def serve_life(scheduler, chunk, *, checkpoint_midway):
            service = MediatorService(
                scheduler,
                ServeOptions(
                    read_workers=2,
                    max_batch=3,
                    checkpoint_on_stop=False,
                ),
            )
            done = asyncio.Event()
            reads = {"count": 0}

            async def reader(tower: int):
                while not done.is_set():
                    lease = service.lease()
                    base = await service.query_lease(lease, f"b{tower}", UNIVERSE)
                    top = await service.query_lease(lease, f"top{tower}", UNIVERSE)
                    assert top == base, f"torn snapshot on tower {tower}"
                    reads["count"] += 1

            submitted = []
            async with service:
                tasks = [
                    asyncio.ensure_future(reader(tower))
                    for tower in range(TOWERS)
                ]
                for index, payload in enumerate(chunk):
                    submitted.append(await service.submit(payload))
                    if checkpoint_midway and index == len(chunk) // 2:
                        # Force a snapshot while batches keep applying:
                        # published views are immutable, so serializing one
                        # concurrently with later commits is safe.  Wait
                        # until at least one clean commit exists so there
                        # is a candidate to snapshot.
                        while scheduler.durability.watermark == 0:
                            await asyncio.sleep(0)
                        info = await asyncio.get_running_loop().run_in_executor(
                            None, scheduler.checkpoint
                        )
                        assert info is not None
                    await asyncio.sleep(0)
                await service.drained()
                done.set()
                await asyncio.gather(*tasks)
                stats = service.stats()
            return submitted, stats, reads["count"]

        # -- first life: half the stream, checkpoint mid-run, no final
        # checkpoint (the WAL tail is what the restart must replay) ------
        async def first_life():
            scheduler = open_scheduler(
                data_dir, parse_program(rules), durability_options=durability
            )
            submitted, stats, read_count = await serve_life(
                scheduler, payloads[:half], checkpoint_midway=True
            )
            return scheduler, submitted, stats, read_count

        scheduler1, submitted1, stats1, reads1 = asyncio.run(first_life())
        assert reads1 > 0
        assert stats1["batch_errors"] == 0 and stats1["failed_units"] == 0
        assert stats1["checkpoints"] == 1
        assert stats1["journaled_batches"] >= 1
        # Every submitted transaction committed and the watermark caught up.
        assert [txn.txn_id for txn in submitted1] == list(range(1, half + 1))
        assert stats1["txn_watermark"] == half == stats1["txn_high"]
        first_view = view_keys(scheduler1.view)

        # -- simulated restart: recover, then drain the rest -------------
        async def second_life():
            scheduler = open_scheduler(
                data_dir, parse_program(rules), durability_options=durability
            )
            recovered = view_keys(scheduler.view)
            watermark = scheduler.durability.watermark
            submitted, stats, read_count = await serve_life(
                scheduler, payloads[half:], checkpoint_midway=False
            )
            return scheduler, recovered, watermark, submitted, stats, read_count

        (
            scheduler2,
            recovered,
            resumed_watermark,
            submitted2,
            stats2,
            reads2,
        ) = asyncio.run(second_life())
        assert recovered == first_view, "restart lost or duplicated a batch"
        # Replay re-committed the journaled tail up to the old high-water
        # mark, and fresh ids continue above it -- no collision, no gap.
        assert resumed_watermark == half
        assert reads2 > 0
        assert stats2["batch_errors"] == 0 and stats2["failed_units"] == 0
        assert [txn.txn_id for txn in submitted2] == list(
            range(half + 1, len(payloads) + 1)
        )
        assert stats2["txn_watermark"] == len(payloads) == stats2["txn_high"]
        assert scheduler2.verify(UNIVERSE)

        # -- whole stream, exactly once: compare against the serialized
        # baseline over all payloads --------------------------------------
        baseline = StreamScheduler(
            parse_program(rules),
            ConstraintSolver(),
            options=StreamOptions(max_workers=1),
        )
        for payload in stream_payloads():
            baseline.apply_batch([payload])
        solver = ConstraintSolver()
        for tower in range(TOWERS):
            expected = baseline.view.instances_for(f"b{tower}", solver, UNIVERSE)
            assert (
                scheduler2.view.instances_for(f"b{tower}", solver, UNIVERSE)
                == expected
                == expected_base(tower)
            )
            assert (
                scheduler2.view.instances_for(f"top{tower}", solver, UNIVERSE)
                == expected
            )
