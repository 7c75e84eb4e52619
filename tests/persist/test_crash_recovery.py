"""Crash/fault-injection harness for the durability layer.

For every fault point on the write path -- WAL append (before, torn
mid-record, after), checkpoint (shard write, manifest write, ``CURRENT``
rename) and commit (before, after) -- the harness drives a randomized
batch schedule from the differential workload families, kills the
pipeline at the armed point, and recovers from disk.  The recovered view
must be ``key()``-identical to one of exactly two never-crashed
references: the state before the interrupted batch or the state after it
(prefix-or-next atomicity -- never a partial batch).  The run then
continues with the remaining batches and must land key-identical to the
full never-crashed reference: nothing duplicated, nothing lost.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.constraints import ConstraintSolver
from repro.errors import PersistError
from repro.persist import (
    DurabilityOptions,
    FaultInjector,
    InjectedFault,
    open_scheduler,
    set_fault_injector,
)
from repro.stream import StreamScheduler

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from integration.test_differential import build_spec, build_stream, view_keys  # noqa: E402

#: Every hook point on the durability write path.  ``wal.append.torn``
#: leaves half a record on disk (the torn-tail case CRC framing exists
#: for); the others kill the pipeline between durable steps.
FAULT_POINTS = (
    "wal.append.before",
    "wal.append.torn",
    "wal.append.after",
    "checkpoint.write",
    "checkpoint.manifest",
    "checkpoint.rename",
    "commit.before",
    "commit.after",
)

#: One seed per workload family (layered / chain / interval / transitive
#: closure / interval join), plus one more layered shape.
SEEDS = (0, 1, 2, 3, 4, 7)

#: Force a checkpoint attempt after every batch so the checkpoint fault
#: points actually fire mid-schedule.
EAGER = DurabilityOptions(checkpoint_wal_bytes=1)
#: Never auto-checkpoint: recovery is pure WAL replay.
LAZY = DurabilityOptions(checkpoint_wal_bytes=1 << 30)


def batch_schedule(seed):
    """The seed's update stream, chopped into small randomized batches."""
    spec = build_spec(seed)
    payloads = [request for _, request in build_stream(spec, seed)]
    batches = []
    index = 0
    width = 1 + seed % 2
    while index < len(payloads):
        batches.append(payloads[index : index + width])
        index += width
        width = 1 + (width + seed) % 3
    return spec, [batch for batch in batches if batch]


def reference_prefixes(spec, batches):
    """Never-crashed view keys after 0, 1, ..., len(batches) batches."""
    scheduler = StreamScheduler(spec.program, ConstraintSolver())
    prefixes = [view_keys(scheduler.view)]
    for batch in batches:
        for payload in batch:
            scheduler.submit(payload)
        assert scheduler.flush().ok
        prefixes.append(view_keys(scheduler.view))
    return prefixes


def run_until_crash(data_dir, spec, batches, durability_options):
    """Feed batches until the armed fault kills the pipeline.

    Returns how many batches were *submitted* when the crash hit (the
    interrupted one included).  ``None`` means the fault never fired.
    """
    scheduler = open_scheduler(
        data_dir, spec.program, durability_options=durability_options
    )
    for number, batch in enumerate(batches, start=1):
        for payload in batch:
            scheduler.submit(payload)
        try:
            result = scheduler.flush()
            # The fault can also surface as a failed unit (commit-path
            # faults raise inside apply) rather than propagate.
            if not result.ok:
                return number
        except InjectedFault:
            return number
    return None


@pytest.mark.parametrize("point", FAULT_POINTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_recovery_after_crash_at_every_fault_point(point, seed):
    spec, batches = batch_schedule(seed)
    options = EAGER if point.startswith("checkpoint.") else LAZY
    prefixes = reference_prefixes(spec, batches)
    import tempfile

    with tempfile.TemporaryDirectory() as raw:
        data_dir = Path(raw)
        injector = FaultInjector()
        # Arm on the second hit so the crash lands mid-schedule, after at
        # least one batch survived (hit 1 = batch 1's pass through the
        # point), exercising recovery over non-trivial on-disk state.
        injector.arm(point, hits=2)
        set_fault_injector(injector)
        try:
            crashed_at = run_until_crash(data_dir, spec, batches, options)
        finally:
            set_fault_injector(None)
        if not injector.fired:
            pytest.skip(f"schedule too short to reach {point} twice")
        assert crashed_at is not None

        # -- recover: must be the prefix before or after the interrupted
        # batch, never anything partial -------------------------------
        recovered = open_scheduler(
            data_dir, spec.program, durability_options=LAZY
        )
        got = view_keys(recovered.view)
        allowed = (prefixes[crashed_at - 1], prefixes[crashed_at])
        assert got in allowed, (
            f"recovery after {point} at batch {crashed_at} is neither the "
            f"prefix before nor after the interrupted batch"
        )
        resumed_from = crashed_at - 1 if got == prefixes[crashed_at - 1] else crashed_at

        # -- continue: the rest of the schedule lands exactly on the full
        # never-crashed reference (no duplicate, no lost batch) --------
        for batch in batches[resumed_from:]:
            for payload in batch:
                recovered.submit(payload)
            assert recovered.flush().ok
        assert view_keys(recovered.view) == prefixes[-1], (
            f"resumed run after {point} diverged from the never-crashed "
            "reference"
        )

        # -- and a second clean recovery agrees with the first life ----
        final = open_scheduler(data_dir, spec.program, durability_options=LAZY)
        assert view_keys(final.view) == prefixes[-1]


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_torn_wal_tail_drops_only_the_interrupted_batch(seed):
    """Directed torn-tail check: half a record on disk is invisible."""
    import tempfile

    spec, batches = batch_schedule(seed)
    if len(batches) < 2:
        pytest.skip("needs at least two batches")
    prefixes = reference_prefixes(spec, batches)
    with tempfile.TemporaryDirectory() as raw:
        data_dir = Path(raw)
        injector = FaultInjector()
        injector.arm("wal.append.torn", hits=len(batches))  # tear the last
        set_fault_injector(injector)
        try:
            crashed_at = run_until_crash(data_dir, spec, batches, LAZY)
        finally:
            set_fault_injector(None)
        assert crashed_at == len(batches)
        recovered = open_scheduler(data_dir, spec.program, durability_options=LAZY)
        assert view_keys(recovered.view) == prefixes[crashed_at - 1]
        # The torn segment must not poison later appends: write the torn
        # batch again and recover once more.
        for payload in batches[-1]:
            recovered.submit(payload)
        assert recovered.flush().ok
        assert view_keys(recovered.view) == prefixes[-1]
        again = open_scheduler(data_dir, spec.program, durability_options=LAZY)
        assert view_keys(again.view) == prefixes[-1]


def test_recovery_refuses_a_foreign_program():
    """Opening a data dir with different rules must fail loudly."""
    import tempfile

    from repro.errors import ProgramHashMismatchError

    spec_a, batches_a = batch_schedule(0)
    spec_b, _ = batch_schedule(1)
    with tempfile.TemporaryDirectory() as raw:
        data_dir = Path(raw)
        scheduler = open_scheduler(data_dir, spec_a.program, durability_options=LAZY)
        for payload in batches_a[0]:
            scheduler.submit(payload)
        assert scheduler.flush().ok
        assert scheduler.checkpoint() is not None
        with pytest.raises(ProgramHashMismatchError):
            open_scheduler(data_dir, spec_b.program, durability_options=LAZY)


def test_corrupted_shard_file_fails_loudly():
    """A flipped byte in a shard payload must raise, never load wrong."""
    import tempfile

    from repro.errors import SnapshotIntegrityError

    spec, batches = batch_schedule(2)
    with tempfile.TemporaryDirectory() as raw:
        data_dir = Path(raw)
        scheduler = open_scheduler(data_dir, spec.program, durability_options=LAZY)
        for payload in batches[0]:
            scheduler.submit(payload)
        assert scheduler.flush().ok
        assert scheduler.checkpoint() is not None
        shard_files = sorted((data_dir / "shards").glob("*.json"))
        assert shard_files
        victim = shard_files[0]
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] ^= 0x20
        victim.write_bytes(bytes(data))
        with pytest.raises((SnapshotIntegrityError, PersistError)):
            open_scheduler(data_dir, spec.program, durability_options=LAZY)


def test_fresh_directory_without_program_is_an_error():
    import tempfile

    from repro.errors import RecoveryError

    with tempfile.TemporaryDirectory() as raw:
        with pytest.raises(RecoveryError):
            open_scheduler(Path(raw))


@pytest.mark.parametrize("forced", (False, True))
def test_an_over_threshold_log_waits_for_the_pipeline_to_catch_up(forced):
    """Batch n+1 journaled before batch n commits -- how the serve layer
    drives the scheduler -- shares its WAL segment with batch n, so a
    checkpoint after batch n releases nothing.  The size policy waits for
    the commit that catches up with the journal (one checkpoint, empty
    log) and stops waiting at twice the threshold (*forced*)."""
    import tempfile

    spec, _ = batch_schedule(0)
    payloads = [request for _, request in build_stream(spec, 0)]
    ahead, behind = payloads[:2], payloads[2:3]

    def journal(scheduler, batch):
        for payload in batch:
            scheduler.submit(payload)
        return scheduler.drain()

    with tempfile.TemporaryDirectory() as raw:
        probe = open_scheduler(Path(raw), spec.program, durability_options=LAZY)
        journal(probe, ahead)
        first_record = probe.durability.wal.size_bytes()
        journal(probe, behind)
        assert probe.durability.wal.size_bytes() < 2 * first_record
    threshold = first_record // 2 if forced else first_record

    with tempfile.TemporaryDirectory() as raw:
        scheduler = open_scheduler(
            Path(raw),
            spec.program,
            durability_options=DurabilityOptions(checkpoint_wal_bytes=threshold),
        )
        stats, wal = scheduler.durability.stats, scheduler.durability.wal
        first = scheduler.prepare_batch(journal(scheduler, ahead))
        journaled_ahead = journal(scheduler, behind)
        assert scheduler.apply_prepared(first).ok
        assert stats.checkpoints == int(forced)
        assert wal.size_bytes() >= threshold
        assert scheduler.apply_prepared(scheduler.prepare_batch(journaled_ahead)).ok
        assert stats.checkpoints == 1 + int(forced)
        assert wal.size_bytes() == 0
        expected = view_keys(scheduler.view)
        again = open_scheduler(Path(raw), spec.program, durability_options=LAZY)
        assert view_keys(again.view) == expected
