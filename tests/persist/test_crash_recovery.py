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

import json
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
from repro.maintenance import StraightDelete
from repro.maintenance.insert import ConstrainedAtomInsertion
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
    try:
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
    finally:
        scheduler.close()  # the crashed process's files die with it


def current_manifest(data_dir):
    """The manifest ``CURRENT`` names: the last checkpoint that completed."""
    name = (data_dir / "CURRENT").read_text().strip()
    return json.loads((data_dir / "snapshots" / name).read_text())


@pytest.mark.parametrize("point", FAULT_POINTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_recovery_after_crash_at_every_fault_point(point, seed):
    def crashed_in_a_delta(data_dir):
        # The base before it holds shards and no chain: the crashed
        # checkpoint was the first delta.
        manifest = current_manifest(data_dir)
        assert manifest["shards"] and not manifest["chain"]

    # Arm on the second hit so the crash lands mid-schedule, after at
    # least one batch survived (hit 1 = batch 1's pass through the
    # point), exercising recovery over non-trivial on-disk state.
    checkpoint = point.startswith("checkpoint.")
    crash_and_recover(point, seed, 2, crashed_in_a_delta if checkpoint else None)


@pytest.mark.parametrize("point", [p for p in FAULT_POINTS if p.startswith("checkpoint.")])
@pytest.mark.parametrize("seed", SEEDS[:3])
def test_recovery_after_crash_in_a_new_base(point, seed, monkeypatch):
    """With every delta reaching the rebase fraction, the checkpoint after
    a delta is a new base over a base and a chain: a crash inside it
    recovers the prefix before or after its batch like one inside a delta."""
    import tempfile

    from repro.persist import snapshot

    def crashed_in_a_base(data_dir):
        assert current_manifest(data_dir)["chain"]

    monkeypatch.setattr(snapshot, "REBASE_FRACTION", 10**12)
    # A run without a crash finds the first new base: the fault points
    # pass once per checkpoint, so it is that many hits in.
    chains = []
    write = snapshot.SnapshotStore.write_checkpoint

    def record(self, *args, **kwargs):
        info = write(self, *args, **kwargs)
        chains.append(info.chain)
        return info

    spec, batches = batch_schedule(seed)
    with monkeypatch.context() as patched, tempfile.TemporaryDirectory() as raw:
        patched.setattr(snapshot.SnapshotStore, "write_checkpoint", record)
        assert run_until_crash(Path(raw), spec, batches, EAGER) is None
    rebase = next((n for n in range(1, len(chains)) if chains[n - 1] and not chains[n]), None)
    if rebase is None:
        pytest.skip("the schedule writes no new base")
    crash_and_recover(point, seed, rebase + 1, crashed_in_a_base)


def crash_and_recover(point, seed, hits, before_recovery=None):
    """Crash the seed's schedule at the *hits*-th pass through *point*,
    recover, and check prefix-or-next, the resumed run and a second
    recovery; *before_recovery* inspects the directory the crash left."""
    spec, batches = batch_schedule(seed)
    options = EAGER if point.startswith("checkpoint.") else LAZY
    prefixes = reference_prefixes(spec, batches)
    import tempfile

    with tempfile.TemporaryDirectory() as raw:
        data_dir = Path(raw)
        injector = FaultInjector()
        injector.arm(point, hits=hits)
        set_fault_injector(injector)
        try:
            crashed_at = run_until_crash(data_dir, spec, batches, options)
        finally:
            set_fault_injector(None)
        if not injector.fired:
            pytest.skip(f"schedule too short to reach {point} {hits} times")
        assert crashed_at is not None
        if before_recovery is not None:
            before_recovery(data_dir)

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
        recovered.close()

        # -- and a second clean recovery agrees with the first life ----
        final = open_scheduler(data_dir, spec.program, durability_options=LAZY)
        assert view_keys(final.view) == prefixes[-1]


def test_a_record_after_a_torn_one_goes_to_a_new_segment(tmp_path):
    """The writer that tore a record closes its segment: a record it writes
    later is not behind the torn one, where replay would never reach it."""
    from repro.datalog import parse_constrained_atom
    from repro.maintenance import InsertionRequest
    from repro.persist.wal import WriteAheadLog
    from repro.stream.log import Transaction

    request = InsertionRequest(parse_constrained_atom("b(X) <- X = 7"))
    wal = WriteAheadLog(tmp_path)
    injector = FaultInjector()
    injector.arm("wal.append.torn")
    set_fault_injector(injector)
    try:
        with pytest.raises(InjectedFault):
            wal.append((Transaction(1, 0.0, request),))
    finally:
        set_fault_injector(None)
    wal.append((Transaction(2, 0.0, request),))
    assert wal.segment_count() == len(wal.segments()) == 2
    wal.rotate()
    replayed = WriteAheadLog(tmp_path).replay()
    assert [[txn.txn_id for txn in batch] for batch in replayed] == [[2]]


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
        recovered.close()
        again = open_scheduler(data_dir, spec.program, durability_options=LAZY)
        assert view_keys(again.view) == prefixes[-1]


def raise_once_when_armed(monkeypatch):
    """Make the next maintenance pass raise, once, while ``armed["on"]``."""
    armed = {"on": False, "fired": False}
    for owner, name in (
        (StraightDelete, "delete_many"),
        (ConstrainedAtomInsertion, "insert_many"),
    ):

        def flaky(self, *args, _original=getattr(owner, name), **kwargs):
            if armed["on"]:
                armed["on"], armed["fired"] = False, True
                raise RuntimeError("the pass raised once")
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, flaky)
    return armed


@pytest.mark.parametrize("options", (LAZY, EAGER), ids=("replay", "checkpoint"))
@pytest.mark.parametrize("seed", SEEDS)
def test_a_batch_whose_pass_raises_is_lost_to_writer_and_recovery_alike(
    seed, options, monkeypatch
):
    """One batch in the second half of the schedule raises once in its pass.
    It commits nothing and journals nothing: the writer keeps the view
    without it, a reopen recovers exactly that view, and resubmitting the
    batch continues the run to the full never-crashed reference."""
    import tempfile

    spec, batches = batch_schedule(seed)
    prefixes = reference_prefixes(spec, batches)
    armed = raise_once_when_armed(monkeypatch)
    with tempfile.TemporaryDirectory() as raw:
        data_dir = Path(raw)
        writer = open_scheduler(data_dir, spec.program, durability_options=options)
        failed_at = None
        for number, batch in enumerate(batches, start=1):
            for payload in batch:
                writer.submit(payload)
            # A batch the coalescer empties runs no pass: the arming then
            # carries over to the next batch that does.
            armed["on"] = armed["on"] or number > len(batches) // 2
            result = writer.flush()
            if armed["fired"]:
                failed_at = number
                break
            assert result.ok
        assert failed_at is not None, "no batch in the second half ran a pass"
        assert not result.ok and "the pass raised once" in result.error
        writer.close()

        reopened = open_scheduler(data_dir, spec.program, durability_options=LAZY)
        assert view_keys(writer.view) == prefixes[failed_at - 1]
        assert view_keys(reopened.view) == prefixes[failed_at - 1]

        for batch in batches[failed_at - 1 :]:
            for payload in batch:
                reopened.submit(payload)
            assert reopened.flush().ok
        assert view_keys(reopened.view) == prefixes[-1]
        reopened.close()
        final = open_scheduler(data_dir, spec.program, durability_options=LAZY)
        assert view_keys(final.view) == prefixes[-1]


@pytest.mark.parametrize("forced", (False, True))
def test_an_over_threshold_log_waits_while_updates_are_pending(forced):
    """A checkpoint stalls the one writer, so an over-threshold log is
    checkpointed when the writer has caught up with the update log -- one
    checkpoint, empty log -- and at twice the threshold (*forced*) even
    while updates wait."""
    import tempfile

    spec, _ = batch_schedule(0)
    payloads = [request for _, request in build_stream(spec, 0)]
    first, second = payloads[:2], payloads[2:3]

    # A fixed clock keeps the records' sizes the same in both directories.
    def clock():
        return 0.0

    with tempfile.TemporaryDirectory() as raw:
        probe = open_scheduler(
            Path(raw), spec.program, durability_options=LAZY, clock=clock
        )
        for payload in first:
            probe.submit(payload)
        assert probe.flush().ok
        first_record = probe.durability.wal.size_bytes()
        probe.close()
    threshold = first_record // 2 if forced else first_record

    with tempfile.TemporaryDirectory() as raw:
        scheduler = open_scheduler(
            Path(raw),
            spec.program,
            durability_options=DurabilityOptions(checkpoint_wal_bytes=threshold),
            clock=clock,
        )
        stats, wal = scheduler.durability.stats, scheduler.durability.wal
        for payload in first + second:
            scheduler.submit(payload)
        # The first batch reaches the threshold with the second one waiting.
        assert scheduler.flush(limit=len(first)).ok
        assert scheduler.log.pending_count() == len(second)
        assert stats.checkpoints == int(forced)
        assert (wal.size_bytes() == 0) == forced
        assert scheduler.flush().ok
        assert stats.checkpoints == 1 + int(forced)
        assert wal.size_bytes() == 0
        expected = view_keys(scheduler.view)
        scheduler.close()
        again = open_scheduler(Path(raw), spec.program, durability_options=LAZY)
        assert view_keys(again.view) == expected


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
        scheduler.close()
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
        scheduler.close()
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
