"""Atomic, shard-granular snapshot checkpoints of a materialized view.

On-disk layout of a data directory::

    <data_dir>/
      CURRENT                  # name of the newest durable manifest
      snapshots/<n>.json       # manifests, monotonically numbered
      shards/<sha256>.json     # content-addressed shard payloads
      wal/wal-<n>.log          # write-ahead log segments (see wal.py)

A checkpoint writes every *dirty* shard as a new content-addressed file
(an unchanged shard -- same :class:`~repro.datalog.view.PredicateShard`
object as the previous checkpoint, courtesy of the copy-on-write
pointer-swap publish -- is referenced by checksum without rewriting a
byte), then the manifest, then atomically swings ``CURRENT``.  A crash at
any point leaves ``CURRENT`` pointing at the previous complete snapshot;
the WAL tail then carries everything since.  Encoding follows the change
too: the store remembers, by object identity, the bytes of every entry and
clause the last checkpoint wrote, and encodes only the objects that are new.

The manifest is self-contained: the base program (encoded), its hash, the
analyzer report digest, the scheduler's effective/deletion programs (the
composed rewrites -- without them, replayed insertions could re-derive
deleted instances), the shard table with checksums, the view's sequence
counter, and the transaction watermark/high-water mark.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.datalog.program import ConstrainedDatabase
from repro.datalog.view import MaterializedView, PredicateShard
from repro.errors import (
    CodecError,
    ProgramHashMismatchError,
    SnapshotIntegrityError,
)
from repro.persist import codec
from repro.persist.faults import fire


def fsync_dir(path: Path) -> None:
    """Make the names in directory *path* durable: POSIX persists a rename
    or a newly created file only once its directory is fsynced."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


#: ``id(obj) -> (obj, args, bytes)``; holding *obj* keeps the id its own.
Fragments = Dict[int, Tuple[object, tuple, bytes]]


class _Remembered:
    """*encode*, reusing the bytes *previous* holds for the same object and
    arguments.  ``current`` ends up holding exactly the objects encoded
    through it: bounded by the view and programs just written."""

    def __init__(self, previous: Fragments, encode: Callable[..., bytes]) -> None:
        self.previous, self.encode, self.current, self.encoded = previous, encode, {}, 0

    def __call__(self, obj: object, *args: object) -> bytes:
        hit = self.previous.get(id(obj)) or self.current.get(id(obj))
        if hit is None or hit[1] != args:
            hit = (obj, args, self.encode(obj, *args))
            self.encoded += 1
        self.current[id(obj)] = hit
        return hit[2]


@dataclass(frozen=True)
class CheckpointInfo:
    """What one checkpoint did (the persist benchmark's raw numbers)."""

    manifest: str
    watermark: int
    shards_written: int
    shards_reused: int
    bytes_written: int
    #: Entries and clauses encoded afresh (the rest were remembered).
    entries_encoded: int
    clauses_encoded: int


@dataclass
class RecoveredState:
    """Everything :func:`SnapshotStore.load_current` reconstructs."""

    view: MaterializedView
    program: ConstrainedDatabase
    effective_program: ConstrainedDatabase
    deletion_program: ConstrainedDatabase
    watermark: int
    txn_high: int
    program_hash: str
    report_digest: str


class SnapshotStore:
    """Reader/writer of the snapshot half of a data directory."""

    def __init__(self, root: Path) -> None:
        self._root = Path(root)
        self._snapshots = self._root / "snapshots"
        self._shard_dir = self._root / "shards"
        self._snapshots.mkdir(parents=True, exist_ok=True)
        self._shard_dir.mkdir(parents=True, exist_ok=True)
        #: predicate -> (shard object, checksum, byte size, entry bytes) as of the
        #: last checkpoint.  Identity of the *object* is the dirtiness test: the
        #: stream scheduler publishes by pointer swap, so an untouched
        #: predicate keeps the same shard object across commits.  Holding
        #: the reference (not ``id()``) makes the test immune to id reuse.
        self._last_shards: Dict[str, Tuple[PredicateShard, str, int, Fragments]] = {}
        #: Clause bytes of the last checkpoint's three programs.
        self._clause_bytes: Fragments = {}
        #: manifest name -> the shard files it names, for each manifest this
        #: store wrote or read (pruning reads only the others).
        self._manifest_files: Dict[str, FrozenSet[str]] = {}

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def _manifests(self) -> List[Path]:
        """The manifest files, oldest first."""
        found = (path for path in self._snapshots.glob("*.json") if path.stem.isdigit())
        return sorted(found, key=lambda path: int(path.stem))

    @staticmethod
    def _write_atomic(path: Path, data: bytes) -> None:
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)

    def remove_temporaries(self) -> None:
        """Delete what a crash inside :meth:`_write_atomic` left (the writer
        only, before its first checkpoint: a reader would race its renames)."""
        for path in self._root.glob("**/*.tmp"):
            path.unlink(missing_ok=True)

    def write_checkpoint(
        self,
        view: MaterializedView,
        *,
        program: ConstrainedDatabase,
        report_digest: str,
        effective_program: ConstrainedDatabase,
        deletion_program: ConstrainedDatabase,
        watermark: int,
        txn_high: int,
    ) -> CheckpointInfo:
        """Write one snapshot (dirty shards + manifest) and publish it."""
        fire("checkpoint.write")
        shard_table: Dict[str, Dict[str, object]] = {}
        next_last: Dict[str, Tuple[PredicateShard, str, int, Fragments]] = {}
        shards_written = 0
        shards_reused = 0
        bytes_written = 0
        entries_encoded = 0
        for predicate in sorted(view.predicates()):
            shard = view.shard_for(predicate)
            if shard is None or not len(shard):
                continue
            cached = self._last_shards.get(predicate)
            if cached is not None and cached[0] is shard:
                digest, size, fragments = cached[1:]
                shards_reused += 1
            else:
                memo = _Remembered(cached[3] if cached else {}, codec.entry_bytes)
                payload = codec.encode_shard(predicate, view.export_shard_rows(predicate), memo)
                fragments = memo.current
                entries_encoded += memo.encoded
                digest = codec.checksum(payload)
                size = len(payload)
                target = self._shard_dir / f"{digest}.json"
                if not target.exists():
                    self._write_atomic(target, payload)
                    bytes_written += size
                shards_written += 1
            next_last[predicate] = (shard, digest, size, fragments)
            shard_table[predicate] = {
                "file": f"{digest}.json",
                "checksum": digest,
                "entries": len(shard),
            }
        if bytes_written:
            fsync_dir(self._shard_dir)
        clauses = _Remembered(self._clause_bytes, codec.clause_bytes)
        program_bytes = codec.encode_program(program, clauses)
        manifest_bytes = codec.canonical_object(
            {
                "program": program_bytes,
                "effective_program": codec.encode_program(effective_program, clauses),
                "deletion_program": codec.encode_program(deletion_program, clauses),
            },
            format=codec.FORMAT_VERSION,
            program_hash=codec.checksum(program_bytes),
            report_digest=report_digest,
            shards=shard_table,
            next_seq=view.next_sequence_number(),
            txn_watermark=watermark,
            txn_high=txn_high,
        )
        fire("checkpoint.manifest")
        manifests = self._manifests()
        name = f"{int(manifests[-1].stem) + 1 if manifests else 1:08d}.json"
        self._write_atomic(self._snapshots / name, manifest_bytes)
        fsync_dir(self._snapshots)
        bytes_written += len(manifest_bytes)
        fire("checkpoint.rename")
        self._write_atomic(self._root / "CURRENT", (name + "\n").encode("ascii"))
        fsync_dir(self._root)
        self._last_shards = next_last
        self._clause_bytes = clauses.current
        self._manifest_files[name] = frozenset(meta["file"] for meta in shard_table.values())
        self._prune_snapshots(manifests + [self._snapshots / name])
        return CheckpointInfo(
            manifest=name,
            watermark=watermark,
            shards_written=shards_written,
            shards_reused=shards_reused,
            bytes_written=bytes_written,
            entries_encoded=entries_encoded,
            clauses_encoded=clauses.encoded,
        )

    def _prune_snapshots(self, manifests: List[Path]) -> None:
        """Keep the newest two *manifests* and the shard files they name;
        a manifest this store has not seen is read to learn them."""
        for path in manifests[:-2]:
            path.unlink(missing_ok=True)
            self._manifest_files.pop(path.name, None)
        referenced = set()
        for path in manifests[-2:]:
            if path.name not in self._manifest_files:
                try:
                    shards = json.loads(path.read_text()).get("shards", {})
                except ValueError:
                    shards = {}
                self._manifest_files[path.name] = frozenset(
                    meta.get("file") for meta in shards.values()
                )
            referenced |= self._manifest_files[path.name]
        for path in self._shard_dir.iterdir():
            if path.name not in referenced:
                path.unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def current_name(self) -> Optional[str]:
        """The manifest name ``CURRENT`` points at (``None`` when fresh).

        The operator surface reports this as the active snapshot id."""
        return self._current_name()

    def _current_name(self) -> Optional[str]:
        try:
            name = (self._root / "CURRENT").read_text().strip()
        except FileNotFoundError:
            return None
        return name or None

    def load_current(
        self, expected_program: Optional[ConstrainedDatabase] = None
    ) -> Optional[RecoveredState]:
        """Load the snapshot ``CURRENT`` points at; ``None`` when fresh.

        Validation is strict and loud: a missing or checksum-mismatched
        shard file raises :class:`~repro.errors.SnapshotIntegrityError`;
        a program whose hash differs from *expected_program*'s raises
        :class:`~repro.errors.ProgramHashMismatchError`.  Silent fallback
        to recompute-on-start would mask exactly the corruption this layer
        exists to catch.
        """
        name = self._current_name()
        if name is None:
            return None
        path = self._snapshots / name
        if not path.exists():
            raise SnapshotIntegrityError(
                f"CURRENT points at missing manifest {name!r}"
            )
        try:
            manifest = json.loads(path.read_text())
        except ValueError as exc:
            raise SnapshotIntegrityError(f"manifest {name!r} is unreadable: {exc}") from exc
        if manifest.get("format") != codec.FORMAT_VERSION:
            raise CodecError(
                f"manifest {name!r} has format version "
                f"{manifest.get('format')!r}; this codec reads "
                f"{codec.FORMAT_VERSION}"
            )
        program = codec.decode_program(
            codec.canonical_bytes(manifest["program"])
        )
        stored_hash = manifest.get("program_hash")
        actual_hash = codec.program_hash(program)
        if stored_hash != actual_hash:
            raise SnapshotIntegrityError(
                f"manifest {name!r} program hash {stored_hash!r} does not "
                f"match its own program ({actual_hash!r})"
            )
        if expected_program is not None:
            expected_hash = codec.program_hash(expected_program)
            if expected_hash != stored_hash:
                raise ProgramHashMismatchError(
                    f"data directory was built from program {stored_hash!r} "
                    f"but was opened with program {expected_hash!r}; refusing "
                    "to replay a foreign WAL"
                )
        effective_program = codec.decode_program(
            codec.canonical_bytes(manifest["effective_program"])
        )
        deletion_program = codec.decode_program(
            codec.canonical_bytes(manifest["deletion_program"])
        )
        view = MaterializedView()
        shard_table = manifest.get("shards", {})
        if not isinstance(shard_table, dict):
            raise SnapshotIntegrityError(f"manifest {name!r} shard table is malformed")
        for predicate in sorted(shard_table):
            meta = shard_table[predicate]
            shard_path = self._shard_dir / meta["file"]
            try:
                data = shard_path.read_bytes()
            except FileNotFoundError as exc:
                raise SnapshotIntegrityError(
                    f"shard file {meta['file']!r} for {predicate!r} is missing"
                ) from exc
            if codec.checksum(data) != meta["checksum"]:
                raise SnapshotIntegrityError(
                    f"shard file {meta['file']!r} for {predicate!r} fails its "
                    "checksum; the snapshot is corrupt"
                )
            decoded_predicate, rows = codec.decode_shard(data)
            if decoded_predicate != predicate:
                raise SnapshotIntegrityError(
                    f"shard file {meta['file']!r} holds predicate "
                    f"{decoded_predicate!r}, manifest says {predicate!r}"
                )
            if len(rows) != meta.get("entries"):
                raise SnapshotIntegrityError(
                    f"shard {predicate!r} holds {len(rows)} entries, manifest "
                    f"says {meta.get('entries')!r}"
                )
            view.import_shard_rows(predicate, rows)
            cached = view.shard_for(predicate)
            if cached is not None:
                self._last_shards[predicate] = (cached, meta["checksum"], len(data), {})
        self._manifest_files[name] = frozenset(meta["file"] for meta in shard_table.values())
        next_seq = manifest.get("next_seq")
        if isinstance(next_seq, int) and not isinstance(next_seq, bool):
            view.advance_sequence_number(next_seq)
        return RecoveredState(
            view=view,
            program=program,
            effective_program=effective_program,
            deletion_program=deletion_program,
            watermark=int(manifest.get("txn_watermark", 0)),
            txn_high=int(manifest.get("txn_high", 0)),
            program_hash=stored_hash,
            report_digest=str(manifest.get("report_digest", "")),
        )
