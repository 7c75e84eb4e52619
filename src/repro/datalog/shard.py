"""Path-copying storage of one predicate's entries and indexes.

A :class:`PredicateShard` holds everything the view keeps per predicate: the
insertion-ordered entry sequence, the per-support groups, the child-support
-> parent index and the per-position argument slots.  The façade in
:mod:`repro.datalog.view` clones a shard the first time a copy-on-write view
writes it, so the clone -- and every write after it -- must cost the
*delta*, not the shard:

* every entry-count-sized table is a :class:`_SharedTable`, a
  hash-partitioned map with a fixed fan-out whose parts a shard shares with
  its clones;
* the entry sequence is a list of fixed-size chunks under the same rule;
* the inner groups (one :class:`_IndexedSlots` per support and per child
  support, one bucket per bound argument value) are shared as well.

``copy()`` copies the fan-out and chunk *pointers* and nothing else.  Every
shared container records the **edit token** of the shard that may write it
in place; ``copy()`` hands both sides a new token, so neither owns anything
the other can reach, and the first write to a part, chunk, group or bucket
copies just that container (a C-level ``dict`` / ``list`` copy) and files
the copy under the writer's token.  The test is one pointer comparison --
no registry of container ids and no pointer back to the shard, which would
make every shard a reference cycle.

A shard another view may reference is therefore never changed through a
clone's writes.  What still happens to it are its lazy builds (child index,
name table, range postings, value window): each constructs complete state
and publishes it with one assignment, and clones made afterwards inherit it.
"""

from __future__ import annotations

import bisect
import operator
from itertools import chain, zip_longest
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.constraints.solver import (
    Interval as _Interval,
    interval_excludes as _interval_excludes,
    intervals_disjoint as _intervals_disjoint,
)
from repro.datalog.support import Support
from repro.errors import ShardSanitizerError

if TYPE_CHECKING:  # pragma: no cover - the façade module imports this one
    from repro.datalog.view import ViewEntry

#: Parts per :class:`_SharedTable` and slots per entry-sequence chunk.  A
#: write copies one part of each table it touches and one chunk, so both
#: bound the per-write copy (entries / fan-out, chunk size) against the
#: fixed cost every clone pays (fan-out pointers per table) and the memory
#: a small shard spends on part headers.  Measured on the 800-entry ladder
#: shards and the 150-entry ``serve-durable`` shards (CHANGES.md, PR 19).
_FANOUT = 64
_CHUNK = 64


class _UnboundArgument:
    """Sentinel: an atom argument not pinned to a constant by the constraint."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<unbound>"


#: Marks argument positions whose value the constraint does not determine.
UNBOUND = _UnboundArgument()


class _OwnedDict(dict):
    """A ``dict`` stamped with the edit token that may write it in place:
    the parts of a :class:`_SharedTable` and the bound-value buckets."""

    __slots__ = ("owner",)


class _OwnedList(list):
    """A ``list`` stamped the same way: one chunk of the entry sequence."""

    __slots__ = ("owner",)


def _owned_dict(items, edit: object) -> _OwnedDict:
    fresh = _OwnedDict(items)
    fresh.owner = edit
    return fresh


def _owned_list(items, edit: object) -> _OwnedList:
    fresh = _OwnedList(items)
    fresh.owner = edit
    return fresh


#: The part every empty table position points at; owned by no edit.
_NO_PART = _owned_dict((), None)


class _SharedTable:
    """A hash-partitioned map whose parts are shared between clones.

    Reads go straight to the key's part (one Python-level call on top of the
    ``dict`` operation).  Writes take the writer's edit token: a part stamped
    with another token is copied first (``dict(part)`` at C speed), so the
    table a clone was copied from never sees the write.  Iteration order is
    by part, not by insertion; whoever renders or persists table content
    sorts it or goes through the entry sequence.
    """

    __slots__ = ("_parts",)

    def __init__(self) -> None:
        self._parts: List[_OwnedDict] = [_NO_PART] * _FANOUT

    def copy(self) -> "_SharedTable":
        dup = _SharedTable.__new__(_SharedTable)
        dup._parts = self._parts.copy()
        return dup

    def get(self, key: object, default: object = None):
        return self._parts[hash(key) % _FANOUT].get(key, default)

    def __getitem__(self, key: object):
        return self._parts[hash(key) % _FANOUT][key]

    def __contains__(self, key: object) -> bool:
        return key in self._parts[hash(key) % _FANOUT]

    def __len__(self) -> int:
        return sum(map(len, self._parts))

    def __bool__(self) -> bool:
        return any(self._parts)

    def __iter__(self) -> Iterator[object]:
        return chain.from_iterable(self._parts)

    def items(self) -> Iterator[Tuple[object, object]]:
        return chain.from_iterable(map(dict.items, self._parts))

    def put(self, key: object, value: object, edit: object) -> None:
        index = hash(key) % _FANOUT
        part = self._parts[index]
        if part.owner is not edit:
            part = self._parts[index] = _owned_dict(part, edit)
        part[key] = value

    def pop(self, key: object, edit: object):
        """Remove and return *key*'s value (``KeyError`` when absent)."""
        index = hash(key) % _FANOUT
        part = self._parts[index]
        if part.owner is not edit:
            part = self._parts[index] = _owned_dict(part, edit)
        return part.pop(key)


class _IndexedSlots:
    """An insertion-ordered entry group with O(1) add/remove/replace.

    The entries sharing one support (or one child support).  Entries live in
    a slot list; removal tombstones the slot and the list is compacted once
    tombstones dominate, so amortized cost stays O(1) while insertion order
    (and the position of in-place replacements) is preserved.  A group is
    written only by the shard whose edit token it carries; any other shard
    copies it first.
    """

    __slots__ = ("_slots", "_pos", "_dead", "owner")

    def __init__(self, edit: object) -> None:
        self._slots: List[Optional["ViewEntry"]] = []
        self._pos: Dict[object, int] = {}
        self._dead = 0
        self.owner = edit

    def __len__(self) -> int:
        return len(self._pos)

    def __iter__(self) -> Iterator["ViewEntry"]:
        for entry in self._slots:
            if entry is not None:
                yield entry

    def copy(self, edit: object) -> "_IndexedSlots":
        dup = _IndexedSlots.__new__(_IndexedSlots)
        dup._slots = list(self._slots)
        dup._pos = dict(self._pos)
        dup._dead = self._dead
        dup.owner = edit
        return dup

    def add(self, key: object, entry: "ViewEntry") -> None:
        self._pos[key] = len(self._slots)
        self._slots.append(entry)

    def remove(self, key: object) -> None:
        index = self._pos.pop(key)
        self._slots[index] = None
        self._dead += 1
        if self._dead > len(self._pos) and self._dead > 8:
            self._compact()

    def replace(self, old_key: object, new_key: object, entry: "ViewEntry") -> None:
        index = self._pos.pop(old_key)
        self._pos[new_key] = index
        self._slots[index] = entry

    def first(self) -> Optional["ViewEntry"]:
        for entry in self._slots:
            if entry is not None:
                return entry
        return None

    def to_tuple(self) -> Tuple["ViewEntry", ...]:
        if not self._dead:
            return tuple(self._slots)
        return tuple(entry for entry in self._slots if entry is not None)

    def _compact(self) -> None:
        live = [
            (key, self._slots[index])
            for key, index in sorted(self._pos.items(), key=lambda item: item[1])
        ]
        self._slots = [entry for _, entry in live]
        self._pos = {key: index for index, (key, _) in enumerate(live)}
        self._dead = 0


class _SortedValueWindow:
    """Sorted numeric bound values of one argument-index slot.

    ``probe_range``'s overlap path used to scan *every* distinct bound value
    of the slot linearly; this keeps the numeric values in a sorted list so
    an interval query bisects its window instead (the ROADMAP's "sorted
    value list with a bisected query window").  Values that cannot serve as
    an **exact** float sort key -- non-numbers, bools, NaN, and ints whose
    ``float()`` rounding moves them (so a bisected window could cut them
    off) -- are kept aside and offered to every query; the caller's
    ``_interval_excludes`` screens them exactly as the linear scan did, so
    results are unchanged.

    Removals tombstone (the sorted list keeps the value until compaction);
    the live set is the authority, mirroring ``_RangePostings``.
    """

    __slots__ = ("_sorted", "_live", "_other", "_dead")

    def __init__(self) -> None:
        self._sorted: List[float] = []
        self._live: set = set()
        self._other: set = set()
        self._dead = 0

    @staticmethod
    def _window_key(value: object) -> Optional[float]:
        """The value's exact float sort key, or ``None`` when it has none.

        A key is only usable when ``float(value) == value`` *exactly*: huge
        ints round (``2**53 + 1`` becomes ``2**53``), so bisecting on the
        rounded key could place the value outside a query window that a
        linear scan would include -- the value must then be screened by the
        exact per-value check instead.  NaN (never equal to itself) and
        overflowing ints land in the same bucket, which also fixes the old
        leak where an overflowing int filed under ``_other`` on ``add`` was
        never discarded (the numeric ``discard`` path could not find it).
        """
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return None
        try:
            key = float(value)
        except OverflowError:  # int beyond float range: cannot be windowed
            return None
        if key != value:  # rounded (huge int) or NaN: bisect would misplace
            return None
        return key

    def copy(self) -> "_SortedValueWindow":
        dup = _SortedValueWindow.__new__(_SortedValueWindow)
        dup._sorted = list(self._sorted)
        dup._live = set(self._live)
        dup._other = set(self._other)
        dup._dead = self._dead
        return dup

    def add(self, value: object) -> None:
        key = self._window_key(value)
        if key is None:
            self._other.add(value)
            return
        if value in self._live:
            return
        self._live.add(value)
        bisect.insort(self._sorted, key)

    def discard(self, value: object) -> None:
        key = self._window_key(value)
        if key is None:
            self._other.discard(value)
            return
        if value in self._live:
            self._live.discard(value)
            self._dead += 1
            if self._dead > len(self._live) and self._dead > 8:
                self._compact()

    def _compact(self) -> None:
        live_keys = {float(value) for value in self._live}
        self._sorted = sorted(live_keys)
        self._dead = 0

    def window(self, interval: _Interval) -> Iterator[object]:
        """Values the query *interval* could admit (superset; exact filter
        stays with the caller's ``_interval_excludes`` check)."""
        low = bisect.bisect_left(self._sorted, interval.low)
        high = bisect.bisect_right(self._sorted, interval.high)
        previous = None
        for key in self._sorted[low:high]:
            if key == previous:  # tombstoned duplicates collapse to one probe
                continue
            previous = key
            yield key
        yield from self._other

    def candidate_values(self, interval: _Interval, buckets: _SharedTable):
        """The slot's bound values admitted by *interval*, bucket-resolved.

        The sorted window yields float keys; the bucket table's own hashing
        resolves them to the stored values (``3`` and ``3.0`` hash and
        compare alike), and every candidate -- windowed numerics and
        non-numeric leftovers -- is screened by ``_interval_excludes``
        exactly like the linear scan this replaces.

        A bucket is yielded at most once: a straggler that compares equal
        to a windowed numeric (``True`` vs ``1``, ``Decimal('3.5')`` vs
        ``3.5``) resolves to the *same* bucket dictionary, and the linear
        scan this replaces -- which iterated distinct bucket keys -- never
        returned a bucket twice.
        """
        emitted: set = set()
        for value in self.window(interval):
            if _interval_excludes(interval, value):
                continue
            members = buckets.get(value)
            if members:
                ident = id(members)
                if ident in emitted:
                    continue
                emitted.add(ident)
                yield from members.items()


class _RangePostings:
    """A sorted interval list for one per-position index slot.

    Holds the entries of the slot's *unbound* bucket that carry a numeric
    interval at the position, sorted by interval lower bound, so a probe for
    a value (or an overlap query) only scans the prefix whose lower bounds
    can admit it.  Entries without an interval stay in the plain unbound
    bucket and are returned by every probe, as before.  Removals tombstone;
    the list is compacted once tombstones dominate.
    """

    __slots__ = ("_items", "_bounds", "_dead", "_counter")

    def __init__(self) -> None:
        #: ``(low, low_strict_rank, tiebreak, key)`` sorted ascending.  The
        #: monotonic tiebreak keeps tuples comparable (keys never compared),
        #: makes the order deterministic for equal lower bounds, and -- held
        #: alongside the bounds entry -- identifies the one live item of a
        #: key, so stale items from remove/re-add cycles are recognized by
        #: both the scans and the compaction.
        self._items: List[Tuple[float, int, int, object]] = []
        self._bounds: Dict[object, Tuple[_Interval, "ViewEntry", int]] = {}
        self._dead = 0
        self._counter = 0

    def __len__(self) -> int:
        return len(self._bounds)

    def __contains__(self, key: object) -> bool:
        return key in self._bounds

    def copy(self) -> "_RangePostings":
        dup = _RangePostings.__new__(_RangePostings)
        dup._items = list(self._items)
        dup._bounds = dict(self._bounds)
        dup._dead = self._dead
        dup._counter = self._counter
        return dup

    def add(self, key: object, entry: "ViewEntry", interval: _Interval) -> None:
        if key in self._bounds:
            self.remove(key)
        self._counter += 1
        self._bounds[key] = (interval, entry, self._counter)
        bisect.insort(
            self._items,
            (interval.low, int(interval.low_strict), self._counter, key),
        )

    def remove(self, key: object) -> None:
        if self._bounds.pop(key, None) is None:
            return
        self._dead += 1
        if self._dead > len(self._bounds) and self._dead > 8:
            self._compact()

    def _compact(self) -> None:
        live = {counter for _, _, counter in self._bounds.values()}
        self._items = [item for item in self._items if item[2] in live]
        self._dead = 0

    def _scan(self, upper: float) -> Iterator[Tuple[object, _Interval, "ViewEntry"]]:
        """Live postings whose lower bound is at most *upper*.

        A key removed and re-added leaves its old sort item as a tombstone
        next to the fresh one; matching the item's tiebreak against the
        live posting's yields each key exactly once, from the item carrying
        the authoritative interval.
        """
        limit = bisect.bisect_right(self._items, (upper, 2))
        for _, _, counter, key in self._items[:limit]:
            found = self._bounds.get(key)
            if found is None or found[2] != counter:
                continue
            yield key, found[0], found[1]

    def probe_value(self, value: object) -> List[Tuple[object, "ViewEntry"]]:
        """Entries whose interval can admit *value* (conservative for bools)."""
        if isinstance(value, bool):
            # Mirror the quick-reject pre-filter: the solver coerces bools in
            # numeric comparisons, so range postings venture no opinion.
            return self.entries()
        if not isinstance(value, (int, float)):
            # Non-numeric values can only satisfy trivial intervals, and
            # trivial intervals are never posted -- nothing matches.
            return []
        # Bounds and value compare exactly (an int beyond float range too).
        return [
            (key, entry)
            for key, interval, entry in self._scan(value)
            if not _interval_excludes(interval, value)
        ]

    def probe_overlap(self, query: _Interval) -> List[Tuple[object, "ViewEntry"]]:
        """Entries whose interval overlaps *query*."""
        return [
            (key, entry)
            for key, interval, entry in self._scan(query.high)
            if not _intervals_disjoint(interval, query)
        ]

    def entries(self) -> List[Tuple[object, "ViewEntry"]]:
        """All live ``(key, entry)`` postings, in no particular order."""
        return [(key, entry) for key, (_, entry, _) in self._bounds.items()]

    def snapshot_rows(self) -> List[Tuple[str, str]]:
        """Canonical ``(interval repr, entry key)`` rows for the tests."""
        rows = []
        for key, (interval, _, _) in self._bounds.items():
            lo = "(" if interval.low_strict else "["
            hi = ")" if interval.high_strict else "]"
            rows.append((f"{lo}{interval.low}, {interval.high}{hi}", str(key)))
        return rows


class _ArgSlot:
    """Argument-index state of one argument position inside one shard.

    Bundling the per-position bound buckets, unbound bucket, range postings
    and sorted value window into one object gives lazy index builds an
    atomic publication point: a build constructs a *complete* replacement
    slot and swaps it in with a single assignment, so a concurrent reader
    holding the old slot object always sees a consistent (postings-free,
    unbound-complete) superset state.  Shared shards are read-only apart
    from these swaps -- writers always operate on a copy-on-write clone --
    which is what makes readers beside the applying batch safe without
    per-probe locking.
    """

    __slots__ = ("bound", "unbound", "postings", "postings_gate", "window")

    def __init__(self) -> None:
        #: bound value -> bucket ``{entry key -> entry}``; table and buckets
        #: are shared with clones until written.
        self.bound = _SharedTable()
        #: entry key -> entry (position not pinned, no posted interval)
        self.unbound: Dict[object, "ViewEntry"] = {}
        self.postings: Optional[_RangePostings] = None
        #: ``(evaluator, version token)`` the postings were built under.
        #: Kept on the slot -- not the shard -- so an evaluator change is
        #: handled per slot by one more atomic slot swap; shard-level gate
        #: fields would need a multi-step reset that a concurrent reader
        #: could observe half-done.
        self.postings_gate: Optional[Tuple[object, object]] = None
        self.window: Optional[_SortedValueWindow] = None

    def copy(self) -> "_ArgSlot":
        """The slot for a clone: the bound table by its part pointers; the
        unbound bucket, postings and window -- empty or unbuilt on a ground
        shard -- whole."""
        dup = _ArgSlot.__new__(_ArgSlot)
        dup.bound = self.bound.copy()
        dup.unbound = dict(self.unbound)
        dup.postings = self.postings.copy() if self.postings is not None else None
        dup.postings_gate = self.postings_gate
        dup.window = self.window.copy() if self.window is not None else None
        return dup


class PredicateShard:
    """Entries and indexes of one predicate.

    Everything the monolithic view used to keep in global maps keyed by
    ``(predicate, ...)`` lives here scoped to a single predicate: the
    insertion-ordered entry sequence, the per-support groups, the
    child-support -> parent index, and the per-position argument slots
    (bound-value buckets, unbound bucket, range postings, sorted value
    window).  The façade owns the cross-predicate glue -- it allocates the
    global sequence numbers kept next to each entry's slot here, and merges
    per-shard answers for support lookups and snapshots.

    Mutating methods must only be called on shards the owning view has
    checked out (see :meth:`MaterializedView._writable_shard`); read paths
    may run concurrently on shared shards, and every lazy index build
    publishes fully-built state with a single atomic assignment.  See the
    module docstring for what a clone shares and what a write copies.
    """

    __slots__ = (
        "predicate",
        "_edit",
        "_chunks",
        "_layout",
        "_index",
        "_live",
        "_dead",
        "_by_support",
        "_child_index",
        "_arg",
        "_names",
        "_shared",
    )

    def __init__(self, predicate: str) -> None:
        self.predicate = predicate
        #: The token this shard's private containers carry (module docstring).
        self._edit = object()
        #: The entry sequence: chunks of at most ``_CHUNK`` slots, all but
        #: the last full; a removed entry leaves ``None`` until compaction.
        self._chunks: List[_OwnedList] = []
        #: Shared by clones, replaced by compaction: slots line up between
        #: shards with the same token (:meth:`changes_since`).
        self._layout = object()
        #: entry key -> ``(global sequence number, slot)``.  The sequence
        #: number is façade-allocated and survives in-place replacement.
        self._index = _SharedTable()
        self._live = 0
        self._dead = 0
        #: support -> the entries carrying it.
        self._by_support = _SharedTable()
        #: child support -> parent entries.  ``None`` until the first
        #: :meth:`parents_of` probe builds it; after that it is maintained
        #: incrementally by every mutation.
        self._child_index: Optional[_SharedTable] = None
        self._arg: Dict[int, _ArgSlot] = {}
        #: Variable name -> number of entries mentioning it.  ``None`` until
        #: :meth:`variable_names` first builds it; every mutation keeps it
        #: current after that.
        self._names: Optional[Dict[str, int]] = None
        #: Sanitizer state: ``None``, or (only while ``REPRO_SHARD_SANITIZER``
        #: is on) the slots and sequence numbers this shard held when
        #: another view came to reference it.  Armed shards refuse mutation
        #: until copy-on-write clones them, and :meth:`assert_unwritten`
        #: re-checks what they hold.
        self._shared: Optional[Tuple[tuple, tuple]] = None

    # ------------------------------------------------------------------
    # Container basics
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._live

    def __iter__(self) -> Iterator["ViewEntry"]:
        entries = chain.from_iterable(self._chunks)
        return filter(None, entries) if self._dead else entries

    def contains_key(self, key: object) -> bool:
        return key in self._index

    def to_tuple(self) -> Tuple["ViewEntry", ...]:
        return tuple(self)

    def sequence_of(self, key: object) -> int:
        """The global sequence number of the entry filed under *key*."""
        return self._index[key][0]

    def rows(self) -> Tuple[Tuple["ViewEntry", int], ...]:
        """``(entry, sequence number)`` in insertion order -- what the codec
        persists and :meth:`add` rebuilds a shard from."""
        index = self._index
        return tuple((entry, index[entry.key()][0]) for entry in self)

    def changes_since(self, previous: "PredicateShard") -> Tuple[tuple, tuple]:
        """The sequence numbers *previous* (an earlier state of this shard)
        holds and this one does not, and the ``(entry, seq)`` rows of this
        one that *previous* lacks, in order.  A chunk still *previous*'s is
        skipped and the other slots compared by identity; once a compaction
        moved the slots, rows are compared by sequence number."""
        if previous._layout is not self._layout:
            held = {seq: entry for entry, seq in previous.rows()}
            rows = tuple(row for row in self.rows() if held.pop(row[1], None) is not row[0])
            return tuple(held), rows
        removed, rows = [], []
        for chunk, old in zip_longest(self._chunks, previous._chunks, fillvalue=()):
            for entry, was in zip_longest(chunk, old) if chunk is not old else ():
                if entry is not was:
                    seq = None if entry is None else self._index[entry.key()][0]
                    if was is not None and previous._index[was.key()][0] != seq:
                        removed.append(previous._index[was.key()][0])
                    if entry is not None:
                        rows.append((entry, seq))
        return tuple(removed), tuple(rows)

    def copy(self) -> "PredicateShard":
        """A clone sharing every part, chunk, group and bucket.

        Copies the fan-out and chunk pointers only.  Both sides get a new
        edit token: whatever is reachable from both is owned by neither, so
        whichever side writes first copies what it writes.  Lazy builds made
        so far are inherited.
        """
        dup = PredicateShard.__new__(PredicateShard)
        dup.predicate = self.predicate
        dup._edit = object()
        self._edit = object()
        dup._chunks = self._chunks.copy()
        dup._layout = self._layout
        dup._index = self._index.copy()
        dup._live = self._live
        dup._dead = self._dead
        dup._by_support = self._by_support.copy()
        child_index = self._child_index
        dup._child_index = child_index.copy() if child_index is not None else None
        dup._arg = {position: slot.copy() for position, slot in self._arg.items()}
        names = self._names
        dup._names = dict(names) if names is not None else None
        dup._shared = None
        return dup

    # ------------------------------------------------------------------
    # Sanitizer (``REPRO_SHARD_SANITIZER`` only)
    # ------------------------------------------------------------------
    def arm(self) -> None:
        """Mark the shard as referenced by another view (sharing events)."""
        if self._shared is None:
            self._shared = self._content()

    def _content(self) -> Tuple[tuple, tuple]:
        """Every slot (tombstones included) and every sequence number, read
        without trusting the counters a stray write would not have kept."""
        slots = tuple(chain.from_iterable(self._chunks))
        index = self._index
        return slots, tuple(
            index[entry.key()][0] for entry in slots if entry is not None
        )

    def _reject_shared_write(self) -> None:
        """Sanitizer trip: a mutator ran on a shard another view references.

        Only reachable while ``REPRO_SHARD_SANITIZER`` armed the shard at
        share time: every legal write path goes through the façade's
        copy-on-write (:meth:`MaterializedView._writable_shard`), which
        clones a borrowed shard -- and the clone is private -- before
        mutating it.
        """
        raise ShardSanitizerError(
            f"mutation of shared shard {self.predicate!r}: the shard is "
            "referenced by a published view; writes must go through a "
            "checked-out copy (copy-on-write), not the shared pointer"
        )

    def assert_unwritten(self) -> None:
        """Sanitizer check: an armed shard still holds what it was armed with.

        A clone shares this shard's parts, chunks, groups and buckets, so a
        write that skipped the ownership test would not go through any of
        this shard's mutators -- it would show up *here*, as rows or index
        content the shard was not armed with.  Compares the slots and
        sequence numbers with the ones recorded by :meth:`arm` and every
        index with a shard rebuilt from them; O(shard), which a test mode
        can afford.
        """
        armed = self._shared
        if armed is None:
            return
        try:
            slots, sequence = self._content()
            intact = (
                len(slots) == len(armed[0])
                and all(map(operator.is_, slots, armed[0]))
                and sequence == armed[1]
            )
            if intact:
                rebuilt = PredicateShard(self.predicate)
                for entry, seq in zip(filter(None, slots), sequence):
                    rebuilt.add(entry.key(), entry, seq)
                intact = self._index_content(self) == rebuilt._index_content(self)
        except KeyError:  # an entry of the sequence is gone from the index
            intact = False
        if not intact:
            raise ShardSanitizerError(
                f"shared shard {self.predicate!r} changed after it was "
                "published: a write reached a part, chunk, group or bucket "
                "a published view still references"
            )

    def _index_content(self, like: "PredicateShard"):
        """What every index of this shard holds, as order-free values over
        entry identities; the lazy indexes *like* has built are built first
        (a rebuilt shard starts without them)."""
        groups = [{
            support: tuple(map(id, group)) for support, group in self._by_support.items()
        }]
        if like._child_index is not None:
            groups.append({
                child: tuple(map(id, group))
                for child, group in self._ensure_child_index().items()
            })
        slots = {}
        for position, built in like._arg.items():
            if built.postings is not None:
                self._ensure_postings(position, *built.postings_gate)
            # (A shard rebuilt from no entries has no slots at all.)
            slot = self._arg.get(position) or _ArgSlot()
            posted = slot.postings._bounds if slot.postings is not None else {}
            slots[position] = (
                {value: set(map(id, bucket.values())) for value, bucket in slot.bound.items()},
                set(map(id, slot.unbound.values())),
                {key: found[0] for key, found in posted.items()},
            )
        names = self.variable_names() if like._names is not None else None
        sequence = {key: found[0] for key, found in self._index.items()}
        return sequence, groups, slots, names

    # ------------------------------------------------------------------
    # Mutation (writable shards only)
    # ------------------------------------------------------------------
    def add(self, key: object, entry: "ViewEntry", seq: int = 0) -> None:
        """Append *entry* under the façade-allocated sequence number *seq*."""
        if self._shared is not None:
            self._reject_shared_write()
        edit = self._edit
        chunks = self._chunks
        if chunks and len(chunks[-1]) < _CHUNK:
            last = chunks[-1]
            if last.owner is not edit:
                last = chunks[-1] = _owned_list(last, edit)
            last.append(entry)
        else:
            last = _owned_list((entry,), edit)
            chunks.append(last)
        self._index.put(key, (seq, (len(chunks) - 1) * _CHUNK + len(last) - 1), edit)
        self._live += 1
        self._writable_group(self._by_support, entry.support, edit).add(key, entry)
        child_index = self._child_index
        if child_index is not None:
            for child in dict.fromkeys(entry.support.children):
                self._writable_group(child_index, child, edit).add(key, entry)
        self._index_arguments(key, entry, edit)
        if self._names is not None:
            self._count_names(self._names, entry, 1)

    def remove(self, key: object, entry: "ViewEntry") -> None:
        if self._shared is not None:
            self._reject_shared_write()
        edit = self._edit
        _, slot = self._index.pop(key, edit)
        self._writable_chunk(slot, edit)[slot % _CHUNK] = None
        self._live -= 1
        self._dead += 1
        self._remove_from_group(self._by_support, entry.support, key, edit)
        child_index = self._child_index
        if child_index is not None:
            for child in dict.fromkeys(entry.support.children):
                self._remove_from_group(child_index, child, key, edit)
        self._unindex_arguments(key, entry, edit)
        if self._names is not None:
            self._count_names(self._names, entry, -1)
        if self._dead > self._live and self._dead > 8:
            self._compact(edit)

    def replace(
        self, old_key: object, new_key: object, old: "ViewEntry", new: "ViewEntry"
    ) -> None:
        """Swap *old* for *new* in place (same predicate; slot and sequence
        number preserved)."""
        if self._shared is not None:
            self._reject_shared_write()
        edit = self._edit
        filed = self._index.pop(old_key, edit)
        self._index.put(new_key, filed, edit)
        self._writable_chunk(filed[1], edit)[filed[1] % _CHUNK] = new
        child_index = self._child_index
        if new.support == old.support:
            self._writable_group(self._by_support, old.support, edit).replace(
                old_key, new_key, new
            )
            if child_index is not None:
                for child in dict.fromkeys(old.support.children):
                    self._writable_group(child_index, child, edit).replace(
                        old_key, new_key, new
                    )
        else:  # pragma: no cover - algorithms never change the support
            self._remove_from_group(self._by_support, old.support, old_key, edit)
            self._writable_group(self._by_support, new.support, edit).add(new_key, new)
            if child_index is not None:
                for child in dict.fromkeys(old.support.children):
                    self._remove_from_group(child_index, child, old_key, edit)
                for child in dict.fromkeys(new.support.children):
                    self._writable_group(child_index, child, edit).add(new_key, new)
        self._unindex_arguments(old_key, old, edit)
        self._index_arguments(new_key, new, edit)
        if self._names is not None:
            self._count_names(self._names, old, -1)
            self._count_names(self._names, new, 1)

    def _writable_chunk(self, slot: int, edit: object) -> _OwnedList:
        number = slot // _CHUNK
        chunk = self._chunks[number]
        if chunk.owner is not edit:
            chunk = self._chunks[number] = _owned_list(chunk, edit)
        return chunk

    @staticmethod
    def _writable_group(
        table: _SharedTable, support: Support, edit: object
    ) -> _IndexedSlots:
        """*support*'s group in *table*, created or copied for this edit."""
        group = table.get(support)
        if group is None:
            group = _IndexedSlots(edit)
        elif group.owner is not edit:
            group = group.copy(edit)
        else:
            return group
        table.put(support, group, edit)
        return group

    @staticmethod
    def _remove_from_group(
        table: _SharedTable, support: Support, key: object, edit: object
    ) -> None:
        """Drop *key* from *support*'s group, and the group once it empties:
        a deleted clause fact's supports never come back (re-inserted, it
        derives under its inserted leaf), so a group left behind would stay
        forever."""
        if len(table[support]) == 1:
            table.pop(support, edit)
        else:
            PredicateShard._writable_group(table, support, edit).remove(key)

    def _compact(self, edit: object) -> None:
        """Rewrite the entry sequence without its tombstones (amortized
        against the removals that left them)."""
        live = list(self)
        old_index = self._index
        self._index = index = _SharedTable()
        for slot, entry in enumerate(live):
            key = entry.key()
            index.put(key, (old_index[key][0], slot), edit)
        self._chunks = [
            _owned_list(live[start:start + _CHUNK], edit)
            for start in range(0, len(live), _CHUNK)
        ]
        self._layout = object()
        self._dead = 0

    # ------------------------------------------------------------------
    # Variable names
    # ------------------------------------------------------------------
    def variable_names(self) -> Dict[str, int]:
        """The shard's name table: every variable name occurring in an entry
        (atom or constraint), with the number of entries mentioning it.

        Built on first use and published with one assignment, like the
        child-support index; read-only for callers.
        """
        names = self._names
        if names is None:
            names = {}
            for entry in self:
                self._count_names(names, entry, 1)
            self._names = names
        return names

    @staticmethod
    def _count_names(names: Dict[str, int], entry: "ViewEntry", step: int) -> None:
        for variable in entry.constrained_atom.variables():
            count = names.get(variable.name, 0) + step
            if count:
                names[variable.name] = count
            else:
                del names[variable.name]

    # ------------------------------------------------------------------
    # Support lookups
    # ------------------------------------------------------------------
    def first_by_support(self, support: Support) -> Optional["ViewEntry"]:
        group = self._by_support.get(support)
        return group.first() if group is not None else None

    def all_by_support(self, support: Support) -> Tuple["ViewEntry", ...]:
        group = self._by_support.get(support)
        return group.to_tuple() if group is not None else ()

    def parents_of(self, support: Support) -> Tuple["ViewEntry", ...]:
        group = self._ensure_child_index().get(support)
        return group.to_tuple() if group is not None else ()

    def _ensure_child_index(self) -> _SharedTable:
        """Build the child-support index on first use (lazy, then live).

        The index is assembled fully before the single publishing
        assignment, so concurrent readers of a shared shard either see the
        complete index or build their own identical one.
        """
        index = self._child_index
        if index is None:
            index = _SharedTable()
            edit = self._edit
            for entry in self:
                key = entry.key()
                for child in dict.fromkeys(entry.support.children):
                    self._writable_group(index, child, edit).add(key, entry)
            self._child_index = index
        return index

    # ------------------------------------------------------------------
    # Argument index
    # ------------------------------------------------------------------
    def _index_arguments(self, key: object, entry: "ViewEntry", edit: object) -> None:
        for position, value in enumerate(entry.bound_args()):
            slot = self._arg.get(position)
            if slot is None:
                slot = self._arg[position] = _ArgSlot()
            if value is UNBOUND:
                if slot.postings is not None:
                    gate = slot.postings_gate or (None, None)
                    interval = entry.arg_intervals(gate[0], gate[1])[position]
                    if interval is not None:
                        slot.postings.add(key, entry, interval)
                        continue
                slot.unbound[key] = entry
                continue
            try:
                members = slot.bound.get(value)
            except TypeError:  # unhashable constant: keep it probe-visible
                slot.unbound[key] = entry
                continue
            if members is None:
                slot.bound.put(value, _owned_dict(((key, entry),), edit), edit)
            else:
                if members.owner is not edit:
                    members = _owned_dict(members, edit)
                    slot.bound.put(value, members, edit)
                members[key] = entry
            if slot.window is not None:
                slot.window.add(value)

    def _unindex_arguments(self, key: object, entry: "ViewEntry", edit: object) -> None:
        for position, value in enumerate(entry.bound_args()):
            slot = self._arg.get(position)
            if slot is None:  # pragma: no cover - slots exist for all positions
                continue
            if value is not UNBOUND:
                try:
                    members = slot.bound.get(value)
                except TypeError:
                    members = None  # was filed under the unbound bucket
                if members is not None and key in members:
                    if len(members) == 1:
                        slot.bound.pop(value, edit)
                        if slot.window is not None:
                            slot.window.discard(value)
                    else:
                        if members.owner is not edit:
                            members = _owned_dict(members, edit)
                            slot.bound.put(value, members, edit)
                        del members[key]
                    continue
            if slot.unbound.pop(key, None) is not None:
                continue
            if slot.postings is not None:
                slot.postings.remove(key)

    def probe(self, position: int, value: object) -> Optional[Tuple["ViewEntry", ...]]:
        """Entries that can carry *value* at *position* (``None``: fall back).

        Returns ``None`` for unhashable values, telling the façade to fall
        back to the full per-predicate pool.
        """
        slot = self._arg.get(position)
        if slot is None:
            return ()
        try:
            matched = slot.bound.get(value)
        except TypeError:
            return None
        candidates = list(matched.items()) if matched else []
        if slot.unbound:
            candidates.extend(slot.unbound.items())
        if slot.postings is not None:
            # A range-unaware probe must stay a superset: posted entries are
            # returned unfiltered, exactly as if they still sat in the
            # unbound bucket.
            candidates.extend(slot.postings.entries())
        return self._ordered(candidates)

    def probe_overlap(
        self,
        position: int,
        interval: _Interval,
        evaluator: Optional[object],
        token: object,
    ) -> Tuple["ViewEntry", ...]:
        """Range-aware probe: entries that can carry a value inside
        *interval* at *position*."""
        slot = self._ensure_postings(position, evaluator, token)
        if slot is None:
            return ()
        candidates: List[Tuple[object, "ViewEntry"]] = []
        if slot.bound:
            # Bisected window over the slot's sorted distinct bound values
            # (plus the not-exactly-floatable stragglers, screened exactly
            # like the linear scan this replaced) -- logarithmic in the
            # number of distinct values instead of linear.
            window = self._ensure_window(slot)
            candidates.extend(window.candidate_values(interval, slot.bound))
        candidates.extend(slot.postings.probe_overlap(interval))
        if slot.unbound:
            candidates.extend(slot.unbound.items())
        return self._ordered(candidates)

    def probe_value(
        self,
        position: int,
        value: object,
        evaluator: Optional[object],
        token: object,
    ) -> Optional[Tuple["ViewEntry", ...]]:
        """Range-aware probe for a pinned *value* (``None``: unhashable
        value, fall back to the full pool)."""
        slot = self._arg.get(position)
        if slot is None:
            return ()
        try:
            matched = slot.bound.get(value)
        except TypeError:
            return None
        slot = self._ensure_postings(position, evaluator, token)
        candidates = list(matched.items()) if matched else []
        candidates.extend(slot.postings.probe_value(value))
        if slot.unbound:
            candidates.extend(slot.unbound.items())
        return self._ordered(candidates)

    def _ordered(
        self, candidates: List[Tuple[object, "ViewEntry"]]
    ) -> Tuple["ViewEntry", ...]:
        # A sort (not a two-bucket merge) is required for correctness:
        # ``replace`` keeps the old sequence number but re-files the entry at
        # the end of its dict bucket, so bucket order alone is not sequence
        # order.  Timsort is adaptive, so the common nearly-sorted case
        # stays effectively linear.
        if len(candidates) > 1:
            filed = self._index.__getitem__
            candidates.sort(key=lambda item: filed(item[0]))
        return tuple(entry for _, entry in candidates)

    @staticmethod
    def _ensure_window(slot: _ArgSlot) -> _SortedValueWindow:
        """Build (or fetch) the slot's sorted bound-value window.

        Built fully, then published with one assignment; duplicate builds by
        concurrent readers produce identical windows (last write wins).
        """
        window = slot.window
        if window is None:
            window = _SortedValueWindow()
            for value in slot.bound:
                window.add(value)
            slot.window = window
        return window

    def _ensure_postings(
        self, position: int, evaluator: Optional[object], token: object
    ) -> Optional[_ArgSlot]:
        """Build (or fetch) the range postings of one argument slot.

        Gated on the evaluator's identity *and* its version token: a
        different evaluator could resolve ``index_interval`` hooks
        differently, and re-registering a function on the same registry
        installs a different hook (the token changes) -- either way the slot's postings
        rebuild from scratch before they can serve stale intervals.

        The gate lives on the slot itself (``postings_gate``), so both the
        first build and an evaluator-change rebuild are one and the same
        operation: construct a complete replacement ``_ArgSlot`` (stale
        postings dissolved, fresh postings populated, unbound bucket drained
        of posted entries, gate recorded) and swap it in with a single
        assignment.  Concurrent readers of a shared shard always see either
        the previous complete state or the new complete state -- never a
        half-drained bucket or a slot whose postings disagree with a
        shard-level gate field.
        """
        slot = self._arg.get(position)
        if slot is None:
            return None
        if slot.postings is not None:
            gate = slot.postings_gate
            if gate is not None and gate[0] is evaluator and gate[1] == token:
                return slot
        unbound = dict(slot.unbound)
        if slot.postings is not None:
            # Stale evaluator/token: dissolve the old postings back into the
            # unbound pool and re-post under the new hooks.
            for key, entry in slot.postings.entries():
                unbound[key] = entry
        postings = _RangePostings()
        remaining: Dict[object, "ViewEntry"] = {}
        for key, entry in unbound.items():
            interval = entry.arg_intervals(evaluator, token)[position]
            if interval is not None:
                postings.add(key, entry, interval)
            else:
                remaining[key] = entry
        fresh = _ArgSlot.__new__(_ArgSlot)
        fresh.bound = slot.bound
        fresh.unbound = remaining
        fresh.postings = postings
        fresh.postings_gate = (evaluator, token)
        fresh.window = slot.window
        self._arg[position] = fresh
        return fresh

    # ------------------------------------------------------------------
    # Snapshot rows (merged and sorted by the façade)
    # ------------------------------------------------------------------
    def argument_rows(self) -> List[Tuple[str, int, str, Tuple[str, ...]]]:
        rows = []
        for position, slot in self._arg.items():
            for value, members in slot.bound.items():
                rows.append(
                    (
                        self.predicate,
                        position,
                        repr(value),
                        tuple(sorted(str(key) for key in members)),
                    )
                )
            # Entries moved into range postings still belong to the unbound
            # partition of the value index; merging them back here keeps the
            # snapshot independent of whether a slot's postings were built.
            unbound_keys = [str(key) for key in slot.unbound]
            if slot.postings is not None:
                unbound_keys.extend(str(key) for key, _ in slot.postings.entries())
            if unbound_keys:
                rows.append(
                    (self.predicate, position, "<unbound>", tuple(sorted(unbound_keys)))
                )
        return rows

    def posting_rows(self) -> List[Tuple[str, int, str, str]]:
        rows = []
        for position, slot in self._arg.items():
            if slot.postings is None:
                continue
            for interval_repr, key_repr in slot.postings.snapshot_rows():
                rows.append((self.predicate, position, interval_repr, key_repr))
        return rows

    def child_rows(self) -> Iterator[Tuple[Support, _IndexedSlots]]:
        """``(child support, parent group)`` of the child-support index
        (built on first use)."""
        return self._ensure_child_index().items()

    def built_postings(self) -> Dict[int, _RangePostings]:
        """Positions with built range postings (read by the tests)."""
        return {
            position: slot.postings
            for position, slot in self._arg.items()
            if slot.postings is not None
        }

    def built_windows(self) -> Dict[int, _SortedValueWindow]:
        """Positions with built value windows (read by the tests)."""
        return {
            position: slot.window
            for position, slot in self._arg.items()
            if slot.window is not None
        }
