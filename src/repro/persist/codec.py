"""Versioned, deterministic codec for shards, programs and stream payloads.

Everything the durability layer puts on disk goes through this module: shard
payloads (the entries of one :class:`~repro.datalog.view.PredicateShard`
with their façade-allocated sequence numbers), encoded programs (the base
program plus the effective/deletion programs the scheduler's rewrites
produced), and WAL records (drained transaction batches).

Design rules:

* **Structural, not textual.**  Entries are encoded as tagged JSON trees
  mirroring the constructors (``{"v": name}`` for a variable, ``{"c": value}``
  for a constant, ...), never by rendering and re-parsing rule text --
  the parser cannot round-trip arbitrary constant values, and a codec that
  loses information silently is worse than none.
* **Deterministic bytes.**  :func:`canonical_bytes` serializes with sorted
  keys, fixed separators and ASCII escapes, so encoding the same object
  twice yields the same bytes and checksums are meaningful.  Indexes are
  *not* serialized -- they rebuild lazily on load, so only entries and
  sequence numbers need to be byte-stable.  A payload is the join of its
  members' bytes (:func:`canonical_object`), so a checkpoint splices the
  entries and clauses it encoded before instead of encoding them again.
* **Typed rejection.**  Every decoder raises
  :class:`~repro.errors.CodecError` on malformed input (unknown format
  version, unknown tag, truncated or bit-flipped payload).  A decode never
  returns a wrong value.
* **Decoding interns.**  The decoders build nodes through the public
  constructors, and the constraint language hash-conses in ``__new__``
  (see :mod:`repro.constraints.intern`), so sharing survives the disk
  seam for free: replaying a WAL or loading a snapshot yields the *same*
  term and constraint objects the live process uses, and every
  pointer-identity fast path (solver memos, view-entry keys, coalescer
  dedup) applies to persisted state exactly as to freshly built state.
* **Decoding scopes what was parsed.**  A clause or a request's atom
  scopes its ``not(...)`` conjuncts against its atoms, as the parser does:
  an older tree's unscoped ``not(X' = 5 & X' = X)`` decodes as
  ``not(5 = X)``.  A view entry is decoded as written: the join builds
  entries whose negations name variables no argument does (outer, because
  a body atom named them), which a rescoping would read as local.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from repro.constraints.ast import (
    Comparison,
    Conjunction,
    Constraint,
    DomainCall,
    FalseConstraint,
    Membership,
    NegatedConjunction,
    TrueConstraint,
    FALSE,
    TRUE,
)
from repro.constraints.projection import scope_negations
from repro.constraints.terms import Constant, Term, Variable
from repro.datalog.atoms import Atom, ConstrainedAtom
from repro.datalog.clauses import Clause
from repro.datalog.program import ConstrainedDatabase
from repro.datalog.support import Support
from repro.datalog.view import ViewEntry
from repro.errors import CodecError, ReproError
from repro.maintenance.requests import DeletionRequest, InsertionRequest
from repro.stream.log import ExternalChangeNotice, StreamPayload, Transaction

#: On-disk format version.  Bump on any incompatible encoding change; the
#: decoder rejects versions it does not know rather than guessing.
#: 2: an inserted fact's leaf carries its origin (1 filed them all under
#: the one leaf ``[0, []]``, which must not be read as naming a fact).
#: 3: a manifest names its programs by content hash and chains deltas
#: (:func:`encode_delta`) to its base shards, and a WAL record's timestamps
#: are integer microseconds.  A WAL record, a delta and a manifest carry it.
FORMAT_VERSION = 3
#: Shard and program payloads carry this one: their encoding is format 2's.
PAYLOAD_FORMAT = 2


# ----------------------------------------------------------------------
# Canonical bytes & checksums
# ----------------------------------------------------------------------
def canonical_bytes(obj: object) -> bytes:
    """Deterministic JSON serialization of an encoded object."""
    return json.dumps(
        obj,
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
        allow_nan=False,
    ).encode("utf-8")


def canonical_object(encoded: Dict[str, bytes], **plain: object) -> bytes:
    """``canonical_bytes`` of the object whose members are *plain* and
    *encoded* (canonical bytes already, spliced as they are)."""
    members = {key: canonical_bytes(value) for key, value in plain.items()}
    members.update(encoded)
    pairs = (canonical_bytes(key) + b":" + members[key] for key in sorted(members))
    return b"{" + b",".join(pairs) + b"}"


def checksum(data: bytes) -> str:
    """Hex SHA-256 of *data* (the manifest's per-shard integrity check)."""
    return hashlib.sha256(data).hexdigest()


def _loads(data: bytes) -> object:
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CodecError(f"payload is not valid UTF-8 JSON: {exc}") from exc


def _check_format(obj: object, what: str, expected: int = FORMAT_VERSION) -> Dict[str, object]:
    if not isinstance(obj, dict):
        raise CodecError(f"{what} payload must be a JSON object, got {type(obj).__name__}")
    version = obj.get("format")
    if version != expected:
        raise CodecError(
            f"{what} payload has format version {version!r}; this codec "
            f"reads version {expected}"
        )
    return obj


# ----------------------------------------------------------------------
# Constant values
# ----------------------------------------------------------------------
def encode_value(value: object) -> object:
    """Encode one constant value (None, bool, int, float, str, tuple)."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise CodecError(f"non-finite float constant cannot be persisted: {value!r}")
        return value
    if isinstance(value, tuple):
        return {"t": [encode_value(item) for item in value]}
    raise CodecError(
        f"constant value of type {type(value).__name__} is not persistable: {value!r}"
    )


def decode_value(obj: object) -> object:
    if obj is None or isinstance(obj, (bool, str, int, float)):
        return obj
    if isinstance(obj, dict):
        if set(obj) != {"t"} or not isinstance(obj["t"], list):
            raise CodecError(f"unknown value encoding: {obj!r}")
        return tuple(decode_value(item) for item in obj["t"])
    raise CodecError(f"unknown value encoding: {obj!r}")


# ----------------------------------------------------------------------
# Terms, atoms, constraints, supports
# ----------------------------------------------------------------------
def encode_term(term: Term) -> object:
    if isinstance(term, Variable):
        return {"v": term.name}
    if isinstance(term, Constant):
        return {"c": encode_value(term.value)}
    raise CodecError(f"not a term: {term!r}")


def decode_term(obj: object) -> Term:
    if isinstance(obj, dict):
        if set(obj) == {"v"}:
            return Variable(obj["v"])
        if set(obj) == {"c"}:
            return Constant(decode_value(obj["c"]))
    raise CodecError(f"unknown term encoding: {obj!r}")


def encode_atom(atom: Atom) -> object:
    return {"p": atom.predicate, "a": [encode_term(term) for term in atom.args]}


def decode_atom(obj: object) -> Atom:
    if (
        not isinstance(obj, dict)
        or set(obj) != {"p", "a"}
        or not isinstance(obj["a"], list)
    ):
        raise CodecError(f"unknown atom encoding: {obj!r}")
    return Atom(obj["p"], tuple(decode_term(term) for term in obj["a"]))


def _encode_call(call: DomainCall) -> object:
    return {
        "d": call.domain,
        "f": call.function,
        "a": [encode_term(term) for term in call.args],
    }


def _decode_call(obj: object) -> DomainCall:
    if not isinstance(obj, dict) or set(obj) != {"d", "f", "a"}:
        raise CodecError(f"unknown domain-call encoding: {obj!r}")
    return DomainCall(
        obj["d"], obj["f"], tuple(decode_term(term) for term in obj["a"])
    )


def encode_constraint(constraint: Constraint) -> object:
    if isinstance(constraint, TrueConstraint):
        return {"k": "true"}
    if isinstance(constraint, FalseConstraint):
        return {"k": "false"}
    if isinstance(constraint, Comparison):
        return {
            "k": "cmp",
            "l": encode_term(constraint.left),
            "o": constraint.op,
            "r": encode_term(constraint.right),
        }
    if isinstance(constraint, Membership):
        return {
            "k": "in",
            "e": encode_term(constraint.element),
            "call": _encode_call(constraint.call),
            "pos": constraint.positive,
        }
    if isinstance(constraint, NegatedConjunction):
        return {
            "k": "not",
            "parts": [encode_constraint(part) for part in constraint.parts],
        }
    if isinstance(constraint, Conjunction):
        return {
            "k": "and",
            "parts": [encode_constraint(part) for part in constraint.parts],
        }
    raise CodecError(f"unknown constraint node: {constraint!r}")


def decode_constraint(obj: object) -> Constraint:
    if not isinstance(obj, dict):
        raise CodecError(f"unknown constraint encoding: {obj!r}")
    kind = obj.get("k")
    if kind == "true":
        return TRUE
    if kind == "false":
        return FALSE
    if kind == "cmp":
        return Comparison(
            decode_term(obj["l"]), obj["o"], decode_term(obj["r"])
        )
    if kind == "in":
        return Membership(
            decode_term(obj["e"]), _decode_call(obj["call"]), obj["pos"]
        )
    if kind == "not":
        return NegatedConjunction(
            tuple(decode_constraint(part) for part in obj["parts"])
        )
    if kind == "and":
        return Conjunction(
            tuple(decode_constraint(part) for part in obj["parts"])
        )
    raise CodecError(f"unknown constraint kind: {kind!r}")


def encode_support(support: Support) -> object:
    encoded = [
        support.clause_number,
        [encode_support(child) for child in support.children],
    ]
    if support.origin is not None:
        # An inserted fact's leaf: what it inserted is part of its identity.
        encoded.append(support.origin)
    return encoded


def decode_support(obj: object) -> Support:
    if not isinstance(obj, list) or len(obj) not in (2, 3) or not isinstance(obj[1], list):
        raise CodecError(f"unknown support encoding: {obj!r}")
    return Support(obj[0], tuple(decode_support(child) for child in obj[1]), *obj[2:])


def encode_entry(entry: ViewEntry, seq: int) -> object:
    return {
        "atom": encode_atom(entry.atom),
        "constraint": encode_constraint(entry.constraint),
        "support": encode_support(entry.support),
        "seq": seq,
    }


def entry_bytes(entry: ViewEntry, seq: int) -> bytes:
    return canonical_bytes(encode_entry(entry, seq))


def decode_entry(obj: object) -> Tuple[ViewEntry, int]:
    if not isinstance(obj, dict) or set(obj) != {"atom", "constraint", "support", "seq"}:
        raise CodecError(f"unknown entry encoding: {obj!r}")
    entry = ViewEntry(
        decode_atom(obj["atom"]),
        decode_constraint(obj["constraint"]),
        decode_support(obj["support"]),
    )
    return entry, _sequence(obj["seq"])


def _sequence(seq: object) -> int:
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
        raise CodecError(f"entry sequence number must be a non-negative int: {seq!r}")
    return seq


# ----------------------------------------------------------------------
# Shard payloads
# ----------------------------------------------------------------------
def _payload(
    member: str, fragments: Iterable[bytes], format: int = PAYLOAD_FORMAT, **plain: object
) -> bytes:
    """A shard, program or delta payload: its list *member* joined from fragments."""
    joined = b"[" + b",".join(fragments) + b"]"
    return canonical_object({member: joined}, format=format, **plain)


def encode_shard(
    predicate: str,
    rows: Sequence[Tuple[ViewEntry, int]],
    fragment: Callable[[ViewEntry, int], bytes] = entry_bytes,
) -> bytes:
    """Serialize one shard: entries in insertion order with their global
    sequence numbers.  Indexes are rebuilt lazily on load and are never
    written.  A checkpoint passes a *fragment* that remembers entry bytes."""
    fragments = (fragment(entry, seq) for entry, seq in rows)
    return _payload("entries", fragments, predicate=predicate)


def decode_shard(data: bytes) -> Tuple[str, Tuple[Tuple[ViewEntry, int], ...]]:
    """Decode one shard payload; raises :class:`CodecError` on any damage."""
    try:
        payload = _check_format(_loads(data), "shard", PAYLOAD_FORMAT)
        predicate = payload.get("predicate")
        entries = payload.get("entries")
        if not isinstance(predicate, str) or not isinstance(entries, list):
            raise CodecError("shard payload missing predicate/entries")
        rows: List[Tuple[ViewEntry, int]] = []
        for item in entries:
            entry, seq = decode_entry(item)
            if entry.predicate != predicate:
                raise CodecError(
                    f"entry predicate {entry.predicate!r} does not match "
                    f"shard predicate {predicate!r}"
                )
            rows.append((entry, seq))
        return predicate, tuple(rows)
    except CodecError:
        raise
    except (ReproError, KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CodecError(f"malformed shard payload: {exc}") from exc


def encode_delta(
    removed: Dict[str, Sequence[int]], rows: Iterable[Tuple[ViewEntry, int]], fragment=entry_bytes
) -> bytes:
    """Serialize one delta checkpoint: per predicate, the sequence numbers
    its shard no longer holds, and the rows that are new since the last
    checkpoint (one whose number is held replaces that row in place)."""
    entries = (fragment(*row) for row in rows)
    return _payload("entries", entries, format=FORMAT_VERSION, removed=removed)


def decode_delta(data: bytes) -> Tuple[Dict[str, List[int]], Tuple[Tuple[ViewEntry, int], ...]]:
    """Decode one delta payload; raises :class:`CodecError` on any damage."""
    try:
        payload = _check_format(_loads(data), "delta")
        removed = {str(key): list(map(_sequence, seqs)) for key, seqs in payload["removed"].items()}
        return removed, tuple(map(decode_entry, payload["entries"]))
    except CodecError:
        raise
    except (ReproError, KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CodecError(f"malformed delta payload: {exc}") from exc


# ----------------------------------------------------------------------
# Programs
# ----------------------------------------------------------------------
def encode_clause(clause: Clause) -> object:
    return {
        "head": encode_atom(clause.head),
        "constraint": encode_constraint(clause.constraint),
        "body": [encode_atom(atom) for atom in clause.body],
        "n": clause.number,
    }


def clause_bytes(clause: Clause) -> bytes:
    return canonical_bytes(encode_clause(clause))


def decode_clause(obj: object) -> Clause:
    if not isinstance(obj, dict) or set(obj) != {"head", "constraint", "body", "n"}:
        raise CodecError(f"unknown clause encoding: {obj!r}")
    head = decode_atom(obj["head"])
    body = tuple(decode_atom(atom) for atom in obj["body"])
    outer = head.variables().union(*(atom.variables() for atom in body))
    constraint = scope_negations(decode_constraint(obj["constraint"]), outer)
    return Clause(head, constraint, body, obj["n"])


def encode_program(
    program: ConstrainedDatabase, fragment: Callable[[Clause], bytes] = clause_bytes
) -> bytes:
    return _payload("clauses", map(fragment, program.clauses))


def decode_program(data: bytes) -> ConstrainedDatabase:
    try:
        payload = _check_format(_loads(data), "program", PAYLOAD_FORMAT)
        clauses = payload.get("clauses")
        if not isinstance(clauses, list):
            raise CodecError("program payload missing clauses")
        return ConstrainedDatabase(decode_clause(item) for item in clauses)
    except CodecError:
        raise
    except (ReproError, KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CodecError(f"malformed program payload: {exc}") from exc


def program_hash(program: ConstrainedDatabase) -> str:
    """Stable identity of a program: checksum of its canonical encoding."""
    return checksum(encode_program(program))


def report_digest(report) -> str:
    """Stable digest of an analyzer :class:`ProgramReport`.

    Recovery compares the stored digest against a fresh analysis of the
    decoded program: a mismatch means the analyzer (and therefore the
    closure tables the scheduler replays with) changed since the snapshot
    was written, and replay would not be maintenance-equivalent.
    """
    return checksum(
        json.dumps(
            report.as_dict(), sort_keys=True, default=_jsonify, ensure_ascii=True
        ).encode("utf-8")
    )


def _jsonify(value: object) -> object:
    if isinstance(value, (frozenset, set)):
        return sorted(value, key=repr)
    if isinstance(value, tuple):
        return list(value)
    return str(value)


# ----------------------------------------------------------------------
# Stream payloads (WAL records)
# ----------------------------------------------------------------------
def _encode_constrained_atom(atom: ConstrainedAtom) -> object:
    return {
        "atom": encode_atom(atom.atom),
        "constraint": encode_constraint(atom.constraint),
    }


def _decode_constrained_atom(obj: object) -> ConstrainedAtom:
    if not isinstance(obj, dict) or set(obj) != {"atom", "constraint"}:
        raise CodecError(f"unknown constrained-atom encoding: {obj!r}")
    atom = decode_atom(obj["atom"])
    return ConstrainedAtom(
        atom, scope_negations(decode_constraint(obj["constraint"]), atom.variables())
    )


def encode_payload(payload: StreamPayload) -> object:
    """Encode one of the paper's three update kinds for the WAL."""
    if isinstance(payload, DeletionRequest):
        return {"kind": "del", "atom": _encode_constrained_atom(payload.atom)}
    if isinstance(payload, InsertionRequest):
        return {"kind": "ins", "atom": _encode_constrained_atom(payload.atom)}
    if isinstance(payload, ExternalChangeNotice):
        return {
            "kind": "ext",
            "source": payload.source,
            "added": [[encode_value(v) for v in row] for row in payload.added_rows],
            "removed": [[encode_value(v) for v in row] for row in payload.removed_rows],
            "version": payload.version,
        }
    raise CodecError(f"not a stream payload: {payload!r}")


def decode_payload(obj: object) -> StreamPayload:
    if not isinstance(obj, dict):
        raise CodecError(f"unknown payload encoding: {obj!r}")
    kind = obj.get("kind")
    if kind == "del":
        return DeletionRequest(_decode_constrained_atom(obj["atom"]))
    if kind == "ins":
        return InsertionRequest(_decode_constrained_atom(obj["atom"]))
    if kind == "ext":
        version = obj.get("version")
        if version is not None and not isinstance(version, int):
            raise CodecError(f"notice version must be an int or null: {version!r}")
        return ExternalChangeNotice(
            source=obj["source"],
            added_rows=tuple(
                tuple(decode_value(v) for v in row) for row in obj["added"]
            ),
            removed_rows=tuple(
                tuple(decode_value(v) for v in row) for row in obj["removed"]
            ),
            version=version,
        )
    raise CodecError(f"unknown payload kind: {kind!r}")


def encode_transactions(transactions: Sequence[Transaction]) -> object:
    """Encode one drained batch (the WAL's journaling unit)."""
    return {
        "format": FORMAT_VERSION,
        "txns": [
            {
                "id": txn.txn_id,
                "ts": round(txn.timestamp * 1_000_000),  # microseconds: fixed width
                "payload": encode_payload(txn.payload),
            }
            for txn in transactions
        ],
    }


def decode_transactions(obj: object) -> Tuple[Transaction, ...]:
    try:
        payload = _check_format(obj, "WAL record")
        txns = payload.get("txns")
        if not isinstance(txns, list):
            raise CodecError("WAL record missing txns")
        decoded: List[Transaction] = []
        for item in txns:
            if not isinstance(item, dict) or set(item) != {"id", "ts", "payload"}:
                raise CodecError(f"unknown transaction encoding: {item!r}")
            txn_id = item["id"]
            timestamp = item["ts"]
            if not isinstance(txn_id, int) or isinstance(txn_id, bool) or txn_id < 1:
                raise CodecError(f"transaction id must be a positive int: {txn_id!r}")
            if not isinstance(timestamp, int) or isinstance(timestamp, bool):
                raise CodecError(f"transaction timestamp must be int microseconds: {timestamp!r}")
            decoded.append(
                Transaction(txn_id, timestamp / 1_000_000, decode_payload(item["payload"]))
            )
        return tuple(decoded)
    except CodecError:
        raise
    except (ReproError, KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CodecError(f"malformed WAL record: {exc}") from exc
