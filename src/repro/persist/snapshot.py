"""Atomic checkpoints of a materialized view: a full base, then deltas.

On-disk layout of a data directory::

    <data_dir>/
      CURRENT                  # name of the newest durable manifest
      snapshots/<n>.json       # manifests, monotonically numbered
      shards/<sha256>.json     # content-addressed shard, delta and program files
      wal/wal-<n>.log          # write-ahead log segments (see wal.py)

A *base* writes every shard; a later checkpoint writes one *delta*: per
shard that is not the object the last checkpoint saw, the sequence numbers
it no longer holds and its new ``(entry, seq)`` rows.  A program file is
written when its object changed.  The manifest names the programs, the
base's shard files and the chain of deltas since the base; ``CURRENT``
then swings to it, so a crash leaves it at the previous complete snapshot.
Recovery applies the chain to the base: a row whose number is held
replaces it in place, the others are appended in number order.  A new base
is written once the chain reaches ``1 / REBASE_FRACTION`` of the base's
shard bytes.  Entry and clause bytes are remembered by object identity, so
only new objects are encoded.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.datalog.program import ConstrainedDatabase
from repro.datalog.view import MaterializedView, PredicateShard, ViewEntry
from repro.errors import (
    CodecError,
    ProgramHashMismatchError,
    SnapshotIntegrityError,
)
from repro.persist import codec
from repro.persist.faults import fire

#: A new base once the chain's delta bytes reach 1/4 of the base's shard bytes.
REBASE_FRACTION = 4

#: The manifest's program roles, in the order ``write_checkpoint`` takes them.
_PROGRAMS = ("program", "effective_program", "deletion_program")


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
    through it."""

    def __init__(self, previous: Fragments, encode: Callable[..., bytes]) -> None:
        self.previous, self.encode, self.current, self.encoded = previous, encode, {}, 0

    def __call__(self, obj: object, *args: object) -> bytes:
        hit = self.previous.get(id(obj)) or self.current.get(id(obj))
        if hit is None or hit[1] != args:
            hit = (obj, args, self.encode(obj, *args))
            self.encoded += 1
        self.current[id(obj)] = hit
        return hit[2]


def _references(manifest: dict) -> FrozenSet[str]:
    """The files under ``shards/`` a manifest names."""
    digests = [*manifest["programs"].values(), *manifest["chain"]]
    shards = [meta["file"] for meta in manifest["shards"].values()]
    return frozenset(shards + [f"{digest}.json" for digest in digests])


@dataclass(frozen=True)
class CheckpointInfo:
    """What one checkpoint did (the persist benchmark's raw numbers)."""

    manifest: str
    watermark: int
    #: A base: shard files written and found; a delta: shards in it and not.
    shards_written: int
    shards_reused: int
    bytes_written: int
    #: Entries and clauses encoded afresh (the rest were remembered).
    entries_encoded: int
    clauses_encoded: int
    #: Deltas since the base, this one included (0: this is a base).
    chain: int


@dataclass
class RecoveredState:
    """Everything :func:`SnapshotStore.load_current` reconstructs."""

    view: MaterializedView
    program: ConstrainedDatabase
    effective_program: ConstrainedDatabase
    deletion_program: ConstrainedDatabase
    watermark: int
    txn_high: int
    report_digest: str


class SnapshotStore:
    """Reader/writer of the snapshot half of a data directory."""

    def __init__(self, root: Path) -> None:
        self._root = Path(root)
        self._snapshots = self._root / "snapshots"
        self._shard_dir = self._root / "shards"
        self._snapshots.mkdir(parents=True, exist_ok=True)
        self._shard_dir.mkdir(parents=True, exist_ok=True)
        #: The manifest ``CURRENT`` names, as this store last wrote or read it.
        self._name = self._current_name()
        #: The last checkpoint's shards: the next delta is taken against them
        #: (copy-on-write publishing keeps an untouched shard's object).
        self._last_shards: Dict[str, PredicateShard] = {}
        #: The base's shard table and shard bytes; ``(digest, bytes)`` of
        #: each delta since it; role -> (program object, digest).
        self._base: Dict[str, Dict[str, object]] = {}
        self._base_bytes = 0
        self._chain: List[Tuple[str, int]] = []
        self._programs: Dict[str, Tuple[ConstrainedDatabase, str]] = {}
        #: Entry bytes of the base and chain; clause bytes of the last programs.
        self._entry_bytes: Fragments = {}
        self._clause_bytes: Fragments = {}
        #: manifest name -> the files it names (the manifests this store wrote
        #: or read); the first prune of its life lists ``shards/``.
        self._manifest_files: Dict[str, FrozenSet[str]] = {}
        self._swept = False

    @property
    def chain_length(self) -> int:
        """Deltas since the base of the snapshot last written or loaded."""
        return len(self._chain)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def _manifests(self) -> List[str]:
        """The manifest names, oldest first."""
        found = (path.stem for path in self._snapshots.glob("*.json") if path.stem.isdigit())
        return [f"{stem}.json" for stem in sorted(found, key=int)]

    @staticmethod
    def _write_atomic(path: Path, data: bytes) -> None:
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)

    def _put(self, payload: bytes, written: List[int]) -> str:
        """File *payload* under its checksum unless it is there (then its size
        goes on *written*)."""
        digest = codec.checksum(payload)
        target = self._shard_dir / f"{digest}.json"
        if not target.exists():
            self._write_atomic(target, payload)
            written.append(len(payload))
        return digest

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
        """Write one snapshot (a base or a delta, the changed programs, the
        manifest) and publish it."""
        fire("checkpoint.write")
        entries = _Remembered(self._entry_bytes, codec.entry_bytes)
        written: List[int] = []
        predicates = view.predicates()
        base, base_bytes, chain = self._base, self._base_bytes, self._chain
        rebase = sum(size for _, size in chain) * REBASE_FRACTION >= base_bytes
        if rebase:
            base, base_bytes, chain = {}, 0, []
            for predicate in predicates:
                rows = view.export_shard_rows(predicate)
                payload = codec.encode_shard(predicate, rows, entries)
                digest = self._put(payload, written)
                base[predicate] = {"file": f"{digest}.json", "checksum": digest, "entries": len(rows)}
                base_bytes += len(payload)
            shards_written = len(written)
            shards_reused = len(predicates) - shards_written
        else:
            removed, rows = {}, []
            for predicate in sorted(set(predicates).union(self._last_shards)):
                previous = self._last_shards.get(predicate)
                if view.shard_for(predicate) is not previous:
                    gone, new = view.export_shard_changes(predicate, previous)
                    if gone or new:
                        removed[predicate] = gone
                        rows.extend(new)
            if removed:
                payload = codec.encode_delta(removed, rows, entries)
                chain = chain + [(self._put(payload, written), len(payload))]
            shards_written = len(removed)
            shards_reused = sum(predicate not in removed for predicate in predicates)
        clauses = _Remembered(self._clause_bytes, codec.clause_bytes)
        programs = dict(self._programs)
        for role, held in zip(_PROGRAMS, (program, effective_program, deletion_program)):
            if role not in programs or programs[role][0] is not held:
                programs[role] = (held, self._put(codec.encode_program(held, clauses), written))
        if written:
            fsync_dir(self._shard_dir)
        manifest = {
            "format": codec.FORMAT_VERSION,
            "programs": {role: digest for role, (_, digest) in programs.items()},
            "report_digest": report_digest,
            "shards": base,
            "chain": [digest for digest, _ in chain],
            "next_seq": view.next_sequence_number(),
            "txn_watermark": watermark,
            "txn_high": txn_high,
        }
        manifest_bytes = codec.canonical_bytes(manifest)
        fire("checkpoint.manifest")
        manifests = self._manifests()
        name = f"{int(manifests[-1][:-5]) + 1 if manifests else 1:08d}.json"
        self._write_atomic(self._snapshots / name, manifest_bytes)
        fsync_dir(self._snapshots)
        fire("checkpoint.rename")
        self._write_atomic(self._root / "CURRENT", (name + "\n").encode("ascii"))
        fsync_dir(self._root)
        self._name = name
        self._last_shards = {predicate: view.shard_for(predicate) for predicate in predicates}
        self._base, self._base_bytes, self._chain = base, base_bytes, chain
        self._programs = programs
        self._entry_bytes = entries.current if rebase else {**self._entry_bytes, **entries.current}
        self._clause_bytes = clauses.current or self._clause_bytes
        self._manifest_files[name] = _references(manifest)
        self._prune(manifests + [name])
        return CheckpointInfo(
            manifest=name,
            watermark=watermark,
            shards_written=shards_written,
            shards_reused=shards_reused,
            bytes_written=sum(written) + len(manifest_bytes),
            entries_encoded=entries.encoded,
            clauses_encoded=clauses.encoded,
            chain=len(chain),
        )

    def _prune(self, manifests: List[str]) -> None:
        """Keep the newest two *manifests* and the files named by those this
        store wrote or read; delete the others and the files only they
        named.  The first prune of a store's life lists ``shards/`` for the
        files no kept manifest names (what a crash left)."""
        known = self._manifest_files
        live = frozenset().union(*(known.get(name, frozenset()) for name in manifests[-2:]))
        for name in manifests[:-2]:
            for file in known.pop(name, frozenset()) - live:
                (self._shard_dir / file).unlink(missing_ok=True)
            (self._snapshots / name).unlink(missing_ok=True)
        for path in () if self._swept else self._shard_dir.iterdir():
            if path.name not in live:
                path.unlink(missing_ok=True)
        self._swept = True

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def current_name(self) -> Optional[str]:
        """The manifest ``CURRENT`` names (``None`` when fresh) as this store
        last wrote or read it, without a disk read: the active snapshot id."""
        return self._name

    def _current_name(self) -> Optional[str]:
        try:
            name = (self._root / "CURRENT").read_text().strip()
        except FileNotFoundError:
            return None
        return name or None

    def _read(self, digest: str, what: str) -> bytes:
        """The content-addressed file *digest*, checked against its name."""
        try:
            data = (self._shard_dir / f"{digest}.json").read_bytes()
        except FileNotFoundError as exc:
            raise SnapshotIntegrityError(f"{what} {digest!r} is missing") from exc
        if codec.checksum(data) != digest:
            raise SnapshotIntegrityError(f"{what} {digest!r} fails its checksum; the snapshot is corrupt")
        return data

    def load_current(
        self, expected_program: Optional[ConstrainedDatabase] = None
    ) -> Optional[RecoveredState]:
        """Load the snapshot ``CURRENT`` points at; ``None`` when fresh.

        Validation is strict and loud: a missing or checksum-mismatched file
        raises :class:`~repro.errors.SnapshotIntegrityError`, a program whose
        hash differs from *expected_program*'s
        :class:`~repro.errors.ProgramHashMismatchError`.  Silent fallback to
        recompute-on-start would mask the corruption this layer must catch.
        """
        name = self._name = self._current_name()
        if name is None:
            return None
        path = self._snapshots / name
        if not path.exists():
            raise SnapshotIntegrityError(f"CURRENT points at missing manifest {name!r}")
        try:
            manifest = json.loads(path.read_text())
        except ValueError as exc:
            raise SnapshotIntegrityError(f"manifest {name!r} is unreadable: {exc}") from exc
        if manifest.get("format") != codec.FORMAT_VERSION:
            raise CodecError(
                f"manifest {name!r} has format version {manifest.get('format')!r}; "
                f"this codec reads {codec.FORMAT_VERSION}"
            )
        try:
            references = _references(manifest)
            digests = {role: manifest["programs"][role] for role in _PROGRAMS}
        except (LookupError, TypeError, AttributeError) as exc:
            raise SnapshotIntegrityError(f"manifest {name!r} is malformed: {exc}") from exc
        programs = {role: codec.decode_program(self._read(digest, f"{role} file"))
                    for role, digest in digests.items()}
        stored_hash = digests["program"]
        actual_hash = codec.program_hash(programs["program"])
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
        view = MaterializedView()
        for predicate, shard in sorted(self._load_rows(manifest["shards"], manifest["chain"]).items()):
            if shard:
                view.import_shard_rows(predicate, ((entry, seq) for seq, entry in shard.items()))
        next_seq = manifest.get("next_seq")
        if isinstance(next_seq, int) and not isinstance(next_seq, bool):
            view.advance_sequence_number(next_seq)
        self._last_shards = {predicate: view.shard_for(predicate) for predicate in view.predicates()}
        self._programs = {role: (programs[role], digests[role]) for role in _PROGRAMS}
        self._manifest_files[name] = references
        return RecoveredState(
            view=view,
            program=programs["program"],
            effective_program=programs["effective_program"],
            deletion_program=programs["deletion_program"],
            watermark=int(manifest.get("txn_watermark", 0)),
            txn_high=int(manifest.get("txn_high", 0)),
            report_digest=str(manifest.get("report_digest", "")),
        )

    def _load_rows(self, table: dict, chain: List[str]) -> Dict[str, Dict[int, ViewEntry]]:
        """Each predicate's rows, ``{seq: entry}`` in order, as the base
        shard *table* holds them once the deltas of *chain* are applied."""
        held: Dict[str, Dict[int, ViewEntry]] = {}
        self._base, self._base_bytes, self._chain = table, 0, []
        for predicate, meta in table.items():
            data = self._read(meta["checksum"], f"shard file for {predicate!r}")
            self._base_bytes += len(data)
            decoded, rows = codec.decode_shard(data)
            held[predicate] = {seq: entry for entry, seq in rows}
            if decoded != predicate or len(held[predicate]) != meta["entries"]:
                raise SnapshotIntegrityError(
                    f"shard file {meta['file']!r} holds {len(held[predicate])} rows of "
                    f"{decoded!r}; the manifest says {meta['entries']!r} of {predicate!r}"
                )
        for digest in chain:
            data = self._read(digest, "delta file")
            self._chain.append((digest, len(data)))
            removed, rows = codec.decode_delta(data)
            try:
                for predicate, seqs in removed.items():
                    for seq in seqs:
                        del held[predicate][seq]
            except KeyError as exc:
                raise SnapshotIntegrityError(f"delta {digest!r} removes a row never held: {exc}") from exc
            for entry, seq in sorted(rows, key=lambda row: row[1]):
                held.setdefault(entry.predicate, {})[seq] = entry
        return held
