"""Segment-rotated, fsync'd write-ahead log of committed update batches.

The WAL journals batches at *commit*: one record per committed batch,
holding the transactions ``flush`` drained for it (the paper's three update
kinds) with their ids, appended and fsync'd after the batch's maintenance
pass succeeded and just before its view is published.  The log therefore
holds exactly the committed batches, in commit order: a batch whose pass
raised never reaches it, and a batch the writer published is always
reconstructible from disk.

Record framing is one line per batch::

    <crc32 hex, 8 chars> <canonical JSON>\\n

The CRC covers the JSON bytes, so a torn tail (partial final line after a
crash mid-append) is detected and dropped; coalescing is deterministic, so
re-driving the decoded transactions through the scheduler pipeline at
replay reproduces the original batch exactly.

Segments (``wal-<n>.log``) rotate at checkpoint time; a segment whose
largest transaction id is at or below the snapshot watermark holds only
already-checkpointed batches and is deleted.  Recovery always rotates to a
fresh segment before appending again, so new records are never written
after a torn tail.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import WalError
from repro.persist import codec
from repro.persist.faults import InjectedFault, fire, should_fire
from repro.persist.snapshot import fsync_dir
from repro.stream.log import Transaction

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"


def _segment_index(path: Path) -> Optional[int]:
    name = path.name
    if not (name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX)):
        return None
    stem = name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)]
    try:
        return int(stem)
    except ValueError:
        return None


def _encode_record(transactions: Sequence[Transaction]) -> bytes:
    body = codec.canonical_bytes(codec.encode_transactions(transactions))
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return f"{crc:08x} ".encode("ascii") + body + b"\n"


def _decode_record(line: bytes) -> Optional[Tuple[Transaction, ...]]:
    """Decode one record line; ``None`` means damaged (torn tail)."""
    if not line.endswith(b"\n") or len(line) < 10 or line[8:9] != b" ":
        return None
    try:
        expected = int(line[:8], 16)
    except ValueError:
        return None
    body = line[9:-1]
    if zlib.crc32(body) & 0xFFFFFFFF != expected:
        return None
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return None
    return codec.decode_transactions(payload)


class WriteAheadLog:
    """Appender/replayer over the ``wal/`` directory of a data dir."""

    def __init__(self, root: Path) -> None:
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        #: Closed or active segment -> largest txn id of its decoded records
        #: (0 = only id-less batches); pruning compares this watermark.
        self._segment_max: Dict[int, int] = {}
        self._active: Optional[int] = None
        self._active_bytes = 0
        self._total_bytes = 0
        self._max_txn_seen = 0

    # ------------------------------------------------------------------
    # Replay (recovery)
    # ------------------------------------------------------------------
    def segments(self) -> Tuple[Path, ...]:
        found = [
            (index, path)
            for path in self._root.iterdir()
            if (index := _segment_index(path)) is not None
        ]
        return tuple(path for _, path in sorted(found))

    def replay(self) -> Tuple[Tuple[Transaction, ...], ...]:
        """Decode every journaled batch, in append order.

        A damaged record ends its segment's replay (append-only writes mean
        damage can only be a torn tail; anything after it in the same file
        is the same interrupted write).  Later segments still replay --
        recovery rotates before appending, so a post-recovery record never
        sits behind a torn tail.  Non-monotonic transaction ids across the
        decoded sequence are corruption the torn-tail model cannot explain
        and raise :class:`~repro.errors.WalError`.
        """
        batches: List[Tuple[Transaction, ...]] = []
        last_id = 0
        with self._lock:
            self._segment_max.clear()
            self._total_bytes = 0
            for path in self.segments():
                index = _segment_index(path)
                data = path.read_bytes()
                self._total_bytes += len(data)
                segment_max = 0
                offset = 0
                while offset < len(data):
                    newline = data.find(b"\n", offset)
                    line = data[offset : len(data) if newline < 0 else newline + 1]
                    batch = _decode_record(line)
                    if batch is None:
                        break  # torn tail; rest of this segment is the same write
                    offset += len(line)
                    ids = [txn.txn_id for txn in batch]
                    if ids:
                        if min(ids) <= last_id:
                            raise WalError(
                                f"WAL segment {path.name} replays transaction "
                                f"{min(ids)} after {last_id}: ids must be "
                                "strictly monotonic"
                            )
                        last_id = max(ids)
                        segment_max = max(segment_max, last_id)
                    if batch:
                        batches.append(batch)
                if index is not None:
                    self._segment_max[index] = segment_max
            self._max_txn_seen = last_id
            self._active = None  # always rotate before the next append
            self._active_bytes = 0
        return tuple(batches)

    @property
    def max_txn_seen(self) -> int:
        """Largest transaction id decoded by :meth:`replay` / appended since."""
        with self._lock:
            return self._max_txn_seen

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def _segment_path(self, index: int) -> Path:
        return self._root / f"{_SEGMENT_PREFIX}{index:08d}{_SEGMENT_SUFFIX}"

    def _next_index_locked(self) -> int:
        existing = [
            index
            for path in self._root.iterdir()
            if (index := _segment_index(path)) is not None
        ]
        return max(existing, default=0) + 1

    def append(self, transactions: Sequence[Transaction]) -> None:
        """Journal one drained batch: write the record, flush, fsync."""
        if not transactions:
            return
        record = _encode_record(transactions)
        with self._lock:
            fire("wal.append.before")
            opens_segment = self._active is None
            if opens_segment:
                self._active = self._next_index_locked()
                self._segment_max.setdefault(self._active, 0)
            path = self._segment_path(self._active)
            torn = should_fire("wal.append.torn")
            with open(path, "ab") as handle:
                # A simulated crash mid-write gets half the record to the
                # file (and disk); the rest never arrives.
                handle.write(record[: max(1, len(record) // 2)] if torn else record)
                handle.flush()
                os.fsync(handle.fileno())
            if opens_segment:
                fsync_dir(self._root)  # the new segment's name is durable too
            if torn:
                self._active_bytes += len(record) // 2
                self._total_bytes += len(record) // 2
                raise InjectedFault("wal.append.torn")
            ids = [txn.txn_id for txn in transactions]
            top = max(ids) if ids else 0
            self._segment_max[self._active] = max(
                self._segment_max.get(self._active, 0), top
            )
            self._max_txn_seen = max(self._max_txn_seen, top)
            self._active_bytes += len(record)
            self._total_bytes += len(record)
            fire("wal.append.after")

    def size_bytes(self) -> int:
        """Total bytes across live segments (the checkpoint policy input)."""
        with self._lock:
            return self._total_bytes

    def segment_count(self) -> int:
        """How many live segment files the WAL currently holds."""
        return len(self.segments())

    # ------------------------------------------------------------------
    # Rotation & pruning (checkpoint time)
    # ------------------------------------------------------------------
    def rotate(self) -> None:
        """Close the active segment; the next append opens a fresh one."""
        with self._lock:
            self._active = None
            self._active_bytes = 0

    def prune_through(self, watermark: int) -> int:
        """Delete closed segments wholly covered by the snapshot *watermark*.

        A segment is deletable when it is not the active one and every
        decoded transaction in it has id <= watermark (its batches are all
        inside the checkpointed view).  Returns the number deleted.
        """
        removed = 0
        with self._lock:
            for index, top in sorted(self._segment_max.items()):
                if index == self._active:
                    continue
                if top > watermark:
                    continue
                path = self._segment_path(index)
                try:
                    size = path.stat().st_size
                    path.unlink()
                except FileNotFoundError:
                    size = 0
                self._total_bytes = max(0, self._total_bytes - size)
                del self._segment_max[index]
                removed += 1
        return removed
