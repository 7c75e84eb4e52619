"""Hypothesis round-trip properties for the persistence codec.

Arbitrary shards and views must encode -> decode -> re-encode byte-stably
(same bytes, so checksums are meaningful) and entry-identically (same
atoms, same constraints -- interval bounds included -- same support
trees, same sequence numbers).  That includes support-0 external entries
and empty shards.  Clauses and requests decode with their negations scoped
against their atoms, as the parser reads them, and what they decode to
round-trips unchanged.  Truncated or bit-flipped payloads must be rejected
with :class:`~repro.errors.CodecError` -- a decode never returns a wrong
view.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.ast import (
    COMPARISON_OPERATORS,
    Comparison,
    Conjunction,
    DomainCall,
    Membership,
    NegatedConjunction,
    FALSE,
    TRUE,
)
from repro.constraints.projection import scope_negations
from repro.constraints.terms import Constant, Variable
from repro.datalog.atoms import Atom
from repro.datalog.clauses import Clause
from repro.datalog.program import ConstrainedDatabase
from repro.datalog.support import Support
from repro.datalog.view import MaterializedView, ViewEntry
from repro.errors import CodecError
from repro.persist import codec
from repro.stream.log import ExternalChangeNotice, Transaction

names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8
)

values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**9), max_value=10**9)
    | st.floats(allow_nan=False, allow_infinity=False, width=32)
    | st.text(max_size=12),
    lambda children: st.tuples(children, children).map(tuple),
    max_leaves=4,
)

terms = names.map(Variable) | values.map(Constant)

atoms = st.builds(
    Atom, names, st.lists(terms, max_size=3).map(tuple)
)

comparisons = st.builds(
    Comparison, terms, st.sampled_from(sorted(COMPARISON_OPERATORS)), terms
)

memberships = st.builds(
    Membership,
    terms,
    st.builds(
        DomainCall, names, names, st.lists(terms, max_size=2).map(tuple)
    ),
    st.booleans(),
)

# Constraint grammar, matching the AST's own validity rules: conjunctions
# are flat (no nested Conjunction, no TRUE conjunct) and negated
# conjunctions hold primitives / FALSE / nested negations only.
primitives = comparisons | memberships

negated = st.recursive(
    st.lists(primitives | st.just(FALSE), min_size=1, max_size=2).map(
        lambda parts: NegatedConjunction(tuple(parts))
    ),
    lambda children: st.lists(
        primitives | children, min_size=1, max_size=2
    ).map(lambda parts: NegatedConjunction(tuple(parts))),
    max_leaves=3,
)

constraints = st.one_of(
    st.just(TRUE),
    st.just(FALSE),
    primitives,
    negated,
    st.lists(
        primitives | st.just(FALSE) | negated, min_size=1, max_size=3
    ).map(lambda parts: Conjunction(tuple(parts))),
)

supports = st.recursive(
    # A leaf is a body-free clause's, or an inserted fact's (Algorithm 3:
    # clause number 0 and, as origin, the text of what it inserted); the
    # codec must carry the origin wherever in the tree the leaf sits.
    st.integers(min_value=1, max_value=50).map(Support)
    | st.builds(Support, st.just(0), st.just(()), st.text(max_size=12)),
    lambda children: st.builds(
        Support,
        st.integers(min_value=0, max_value=50),
        st.lists(children, max_size=3).map(tuple),
    ),
    max_leaves=5,
)

entries = st.builds(ViewEntry, atoms, constraints, supports)


def scoped(constraint, *atoms):
    """*constraint* as the parser reads it attached to *atoms*: its
    negations scoped against their arguments."""
    return scope_negations(constraint, frozenset().union(*(a.variables() for a in atoms)))


seqs = st.integers(min_value=0, max_value=10**9)


def shard_rows(draw, predicate):
    """Entries re-pinned to one predicate, with distinct sequence numbers."""
    raw = draw(st.lists(st.tuples(entries, seqs), max_size=6))
    rows = []
    seen_seqs = set()
    seen_keys = set()
    for entry, seq in raw:
        pinned = ViewEntry(
            Atom(predicate, entry.atom.args), entry.constraint, entry.support
        )
        if seq in seen_seqs or pinned.key() in seen_keys:
            continue
        seen_seqs.add(seq)
        seen_keys.add(pinned.key())
        rows.append((pinned, seq))
    return tuple(rows)


@st.composite
def shards(draw):
    predicate = draw(names)
    return predicate, shard_rows(draw, predicate)


@settings(max_examples=50, deadline=None)
@given(shards())
def test_shard_round_trip_is_entry_identical_and_byte_stable(shard):
    predicate, rows = shard
    payload = codec.encode_shard(predicate, rows)
    decoded_predicate, decoded_rows = codec.decode_shard(payload)
    assert decoded_predicate == predicate
    assert len(decoded_rows) == len(rows)
    for (entry, seq), (back, back_seq) in zip(rows, decoded_rows):
        assert back_seq == seq
        assert back.key() == entry.key()
        assert back.atom == entry.atom
        assert back.constraint == entry.constraint
        assert back.support == entry.support
    # Byte stability: re-encoding the decoded rows reproduces the payload
    # exactly, so the content-addressed file name / checksum is meaningful.
    assert codec.encode_shard(decoded_predicate, decoded_rows) == payload


@settings(max_examples=50, deadline=None)
@given(shards(), st.lists(seqs, max_size=4), st.data())
def test_delta_round_trip_is_entry_identical_and_byte_stable(shard, removed, data):
    predicate, rows = shard
    payload = codec.encode_delta({predicate: removed}, rows)
    decoded_removed, decoded_rows = codec.decode_delta(payload)
    assert decoded_removed == {predicate: removed}
    assert [(back.key(), seq) for back, seq in decoded_rows] == [
        (entry.key(), seq) for entry, seq in rows
    ]
    assert codec.encode_delta(decoded_removed, decoded_rows) == payload
    cut = data.draw(st.integers(min_value=0, max_value=len(payload) - 1))
    with pytest.raises(CodecError):
        codec.decode_delta(payload[:cut])


@settings(max_examples=50, deadline=None)
@given(shards())
def test_view_import_export_round_trip(shard):
    predicate, rows = shard
    view = MaterializedView()
    view.import_shard_rows(predicate, rows)
    assert view.export_shard_rows(predicate) == rows
    # And the exported rows re-encode to the same bytes.
    assert codec.encode_shard(predicate, view.export_shard_rows(predicate)) == (
        codec.encode_shard(predicate, rows)
    )


def test_empty_shard_round_trips():
    payload = codec.encode_shard("p", ())
    assert codec.decode_shard(payload) == ("p", ())


def test_a_leaf_is_written_with_its_origin_only_when_it_has_one():
    inserted = Support(0, (), "p(X) <- X = 7")
    assert codec.encode_support(Support(3, (Support(1), inserted))) == [
        3, [[1, []], [0, [], "p(X) <- X = 7"]]
    ]
    with pytest.raises(CodecError):
        codec.decode_support([0, [], "p(X) <- X = 7", "again"])


def test_a_version_1_shard_is_refused():
    """Format 1 filed every inserted fact under the one leaf ``<0>``: a
    shard written then must not be read as if its leaves named their facts.
    Format 3 changed the manifest, not the shard payload, which stays 2."""
    import json

    payload = json.loads(codec.encode_shard("p", ()))
    assert payload["format"] == codec.PAYLOAD_FORMAT == 2
    assert codec.FORMAT_VERSION == 3
    payload["format"] = 1
    with pytest.raises(CodecError, match="format version 1; this codec reads version 2"):
        codec.decode_shard(codec.canonical_bytes(payload))


def test_a_version_2_delta_is_refused():
    import json

    payload = json.loads(codec.encode_delta({"p": [3]}, ()))
    assert payload["format"] == codec.FORMAT_VERSION == 3
    assert codec.decode_delta(codec.canonical_bytes(payload)) == ({"p": [3]}, ())
    payload["format"] = 2
    with pytest.raises(CodecError, match="format version 2; this codec reads version 3"):
        codec.decode_delta(codec.canonical_bytes(payload))


@settings(max_examples=50, deadline=None)
@given(shards(), st.data())
def test_truncated_payloads_are_rejected(shard, data):
    predicate, rows = shard
    payload = codec.encode_shard(predicate, rows)
    cut = data.draw(st.integers(min_value=1, max_value=len(payload) - 1))
    with pytest.raises(CodecError):
        codec.decode_shard(payload[:cut])


@settings(max_examples=50, deadline=None)
@given(shards(), st.data())
def test_bit_flipped_payloads_never_decode_to_a_different_shard(shard, data):
    """A corrupted payload either raises CodecError or (when the flip
    happens to produce valid JSON of the right shape, e.g. flipping one
    digit of a constant) decodes to bytes that no longer match the
    original checksum -- the snapshot loader compares checksums first, so
    a wrong view can never be loaded silently."""
    predicate, rows = shard
    payload = codec.encode_shard(predicate, rows)
    position = data.draw(st.integers(min_value=0, max_value=len(payload) - 1))
    bit = data.draw(st.integers(min_value=0, max_value=7))
    corrupted = bytearray(payload)
    corrupted[position] ^= 1 << bit
    corrupted = bytes(corrupted)
    if corrupted == payload:  # flipping into an identical byte is impossible
        return
    assert codec.checksum(corrupted) != codec.checksum(payload)
    try:
        back_predicate, back_rows = codec.decode_shard(corrupted)
    except CodecError:
        return  # typed rejection: the expected outcome
    # Survived decoding: must still re-encode deterministically, and the
    # checksum gate (manifest vs bytes) has already excluded this file.
    reencoded = codec.encode_shard(back_predicate, back_rows)
    assert codec.checksum(reencoded) != codec.checksum(payload) or (
        (back_predicate, back_rows) == (predicate, rows)
    )


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.builds(Clause, atoms, constraints, st.lists(atoms, max_size=2).map(tuple)),
        max_size=4,
    )
)
def test_program_round_trip_and_hash_stability(clauses):
    program = ConstrainedDatabase(clauses)
    back = codec.decode_program(codec.encode_program(program))
    # Decoding reads each clause as the parser would: its negations scoped
    # against its head and body.
    parsed = ConstrainedDatabase(
        clause.with_constraint(scoped(clause.constraint, clause.head, *clause.body))
        for clause in program.clauses
    )
    assert tuple(back.clauses) == tuple(parsed.clauses)
    payload = codec.encode_program(parsed)
    assert codec.encode_program(back) == payload
    assert codec.program_hash(back) == codec.program_hash(parsed)
    # A decoded program is a fixed point: it decodes to itself.
    assert tuple(codec.decode_program(payload).clauses) == tuple(back.clauses)


from repro.datalog.atoms import ConstrainedAtom  # noqa: E402
from repro.maintenance.requests import DeletionRequest, InsertionRequest  # noqa: E402

constrained_atoms = st.builds(ConstrainedAtom, atoms, constraints)

rows_strategy = st.lists(
    st.lists(values, min_size=1, max_size=3).map(tuple), max_size=3
).map(tuple)

stream_payloads = st.one_of(
    st.builds(DeletionRequest, constrained_atoms),
    st.builds(InsertionRequest, constrained_atoms),
    st.builds(
        ExternalChangeNotice,
        names,
        rows_strategy,
        rows_strategy,
        st.none() | st.integers(min_value=0, max_value=1000),
    ),
)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=10**9),
            st.floats(
                min_value=0, max_value=2**31, allow_nan=False, allow_infinity=False
            ),
            stream_payloads,
        ),
        max_size=4,
    )
)
def test_wal_transaction_round_trip(raw):
    seen = set()
    transactions = []
    for txn_id, timestamp, payload in raw:
        if txn_id in seen:
            continue
        seen.add(txn_id)
        transactions.append(Transaction(txn_id, timestamp, payload))
    decoded = codec.decode_transactions(codec.encode_transactions(transactions))
    # A request's atom decodes as the parser reads it, scoped against its
    # arguments; the decoded transactions round-trip byte-stably.
    encoded = codec.encode_transactions(decoded)
    assert codec.encode_transactions(codec.decode_transactions(encoded)) == encoded
    assert len(decoded) == len(transactions)
    for original, back in zip(transactions, decoded):
        assert back.txn_id == original.txn_id
        payload = original.payload
        if isinstance(payload, (DeletionRequest, InsertionRequest)):
            atom = payload.atom
            payload = type(payload)(
                ConstrainedAtom(atom.atom, scoped(atom.constraint, atom.atom))
            )
        assert back.payload == payload


def test_an_unscoped_negation_decodes_scoped_and_maintains():
    """An older tree left a deletion's negation unscoped in the effective
    program (``p(X) <- not(X_1 = 5 & X_1 = X)``, its check deferred to the
    solver).  Decoding scopes it against the clause, as the parser would."""
    from repro.constraints import ConstraintSolver
    from repro.datalog.parser import parse_clause, parse_constrained_atom
    from repro.stream import StreamScheduler

    x, x1 = Variable("X"), Variable("X_1")
    unscoped = NegatedConjunction(
        (Comparison(x1, "=", Constant(5)), Comparison(x1, "=", x))
    )
    written = ConstrainedDatabase(
        [Clause(Atom("p", (x,)), unscoped, ()), parse_clause("h(X) <- p(X)")]
    )
    program = codec.decode_program(codec.encode_program(written))
    assert str(program.clauses[0].constraint) == "not(5 = X)"
    scheduler = StreamScheduler(program, ConstraintSolver())
    universe = range(11)
    kept = {(v,) for v in universe if v != 5}
    assert scheduler.query("p", universe) == scheduler.query("h", universe) == kept
    request = DeletionRequest(parse_constrained_atom("p(X) <- X = 7"))
    assert scheduler.apply_batch((request,)).ok
    assert scheduler.query("h", universe) == kept - {(7,)}


def test_a_checkpointed_view_reloads_the_entries_it_had(tmp_path):
    """The join builds ``h(Y) <- not(Z = 5 & U = 6)``: ``Z`` and ``U`` are
    outer there (the body atom ``r(Z, U)`` named them) though no argument
    of ``h`` does.  A reload gives back the entries the live view holds,
    byte for byte, not a rescoping of them (which reads ``h(Y) <- false``)."""
    import json

    from repro.datalog.parser import parse_program
    from repro.persist import DurabilityOptions, open_scheduler

    program = parse_program(
        "p(X) <- true. r(W, V) <- not(W = 5 & V = 6). h(Y) <- p(Y), r(Z, U)."
    )
    options = DurabilityOptions(checkpoint_wal_bytes=1 << 30)
    writer = open_scheduler(tmp_path / "data", program, durability_options=options)
    info = writer.checkpoint()
    assert info is not None
    live = {entry.key() for entry in writer.view}
    assert "h(Y) <- not(Z = 5 & U = 6)" in {str(entry.constrained_atom) for entry in writer.view}
    reopened = open_scheduler(tmp_path / "data", program, durability_options=options)
    assert reopened._replayed_batches == 0
    assert {entry.key() for entry in reopened.view} == live
    manifest = json.loads((tmp_path / "data" / "snapshots" / info.manifest).read_bytes())
    for predicate, meta in manifest["shards"].items():
        stored = (tmp_path / "data" / "shards" / meta["file"]).read_bytes()
        assert codec.encode_shard(predicate, reopened.view.export_shard_rows(predicate)) == stored
