"""Durability: shard snapshots, write-ahead logging, crash recovery.

The persistence layer makes the predicate-sharded materialized view
survive the process.  Three cooperating pieces:

* :mod:`repro.persist.codec` -- versioned deterministic byte codec for
  shards, programs and WAL payloads (canonical JSON; re-encoding a decoded
  value is byte-identical, so checksums are stable);
* :mod:`repro.persist.wal` -- segment-rotated, fsync'd write-ahead log of
  committed update batches;
* :mod:`repro.persist.snapshot` -- atomic shard-granular checkpoints
  (content-addressed shard files + manifest + ``CURRENT`` swing).

:func:`repro.persist.manager.open_scheduler` ties them together into a
:class:`~repro.persist.manager.DurableScheduler`; see ``README.md`` in
this directory for the on-disk layout and the recovery invariants.
"""

from repro.persist.codec import (
    FORMAT_VERSION,
    checksum,
    decode_payload,
    decode_program,
    decode_shard,
    decode_transactions,
    encode_payload,
    encode_program,
    encode_shard,
    encode_transactions,
    program_hash,
    report_digest,
)
from repro.persist.faults import (
    FaultInjector,
    InjectedFault,
    fire,
    set_fault_injector,
    should_fire,
)
from repro.persist.manager import (
    DurabilityManager,
    DurabilityOptions,
    DurabilityStats,
    DurableScheduler,
    open_scheduler,
)
from repro.persist.snapshot import CheckpointInfo, RecoveredState, SnapshotStore
from repro.persist.wal import WriteAheadLog

__all__ = [
    "FORMAT_VERSION",
    "checksum",
    "decode_payload",
    "decode_program",
    "decode_shard",
    "decode_transactions",
    "encode_payload",
    "encode_program",
    "encode_shard",
    "encode_transactions",
    "program_hash",
    "report_digest",
    "FaultInjector",
    "InjectedFault",
    "fire",
    "set_fault_injector",
    "should_fire",
    "DurabilityManager",
    "DurabilityOptions",
    "DurabilityStats",
    "DurableScheduler",
    "open_scheduler",
    "CheckpointInfo",
    "RecoveredState",
    "SnapshotStore",
    "WriteAheadLog",
]
