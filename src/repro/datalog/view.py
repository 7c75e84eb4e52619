"""Materialized views as sets of supported constrained atoms.

A materialized mediated view is a set of constrained atoms (paper Section
2.3), kept under *duplicate semantics*: one entry per derivation, each entry
indexed by the support of its derivation (Section 3.1.2).  This module
provides the container used by the fixpoint operators, the maintenance
algorithms and the mediator.

Storage is **sharded by predicate**: every predicate's entries and indexes
live in their own :class:`~repro.datalog.shard.PredicateShard`, and
:class:`MaterializedView` is a copy-on-write façade over the shard map.
``copy()`` shares shard pointers and only clones a shard when it is first
written, and a clone shares its tables with the shard it was cloned from
part by part (see :mod:`repro.datalog.shard`), so a maintenance pass over a
view pays copy cost proportional to the entries it actually writes -- the
paper's delta-proportionality carried into the storage layer -- and the
stream scheduler publishes a batch by swapping one view pointer instead of
merging whole views.

This module keeps the entry type, the interval helpers and the façade, and
still exports the storage names its callers import from here (``UNBOUND``,
``PredicateShard``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.constraints.ast import Constraint, conjoin, tuple_equalities
from repro.constraints.simplify import canonical_form
from repro.constraints.solver import (
    ConstraintSolver,
    Interval as _Interval,
    _is_number,
    bounds_of,
    intersect_intervals as _intersect_intervals,
)
from repro.constraints.terms import FreshVariableFactory
from repro.datalog.atoms import Atom, ConstrainedAtom
from repro.datalog.shard import UNBOUND, PredicateShard
from repro.datalog.support import Support
from repro.errors import ProgramError, ShardSanitizerError, WriteScopeError
from repro.sanitizer import sanitizer_enabled


#: Sentinel: "compute the evaluator's version token here".  Callers on the
#: hot join path (probe pairs, interval getters) fetch the token once per
#: round and pass it down, instead of rebuilding the registry's tuple on
#: every probe.
_NO_TOKEN = object()


def evaluator_token(evaluator: Optional[object]) -> Optional[object]:
    """The evaluator's hook-relevant version token (``None`` when absent).

    Prefers ``registration_version`` -- which changes only when the
    registered function set (and thus the ``index_interval`` hooks) can
    change -- over the full ``version`` token, which also moves on every
    external *data* change; hook results are contractually time-invariant,
    so gating them on the full token would rebuild the interval caches on
    every clock advance for nothing.
    """
    token = getattr(evaluator, "registration_version", None)
    if token is not None:
        return token
    return getattr(evaluator, "version", None)


def bound_argument_values(
    args: Sequence[object], constraint: Constraint
) -> Tuple[object, ...]:
    """Per-position constant values pinned by *constraint* (or :data:`UNBOUND`).

    Constant arguments are their own value; variable arguments take the value
    the constraint's top-level equalities pin them to, when any.  This is the
    per-position generalization of
    :meth:`~repro.datalog.atoms.ConstrainedAtom.bound_tuple` and feeds the
    hash-join argument index.
    """
    bounds = bounds_of(constraint)
    return tuple(bounds.value_of(arg, UNBOUND) for arg in args)


@dataclass(frozen=True)
class IntervalQuery:
    """A range query against the argument index (probe-by-overlap).

    Built from the interval an already-chosen join premise pins a shared
    variable into; the index answers with every entry that could carry a
    value inside it at the probed position.
    """

    low: float
    low_strict: bool
    high: float
    high_strict: bool

    def as_interval(self) -> _Interval:
        """The query as a solver interval (for overlap arithmetic)."""
        return _Interval(self.low, self.low_strict, self.high, self.high_strict)


def interval_query_from(interval: _Interval) -> IntervalQuery:
    """Wrap a solver interval as a probe query."""
    return IntervalQuery(
        interval.low, interval.low_strict, interval.high, interval.high_strict
    )


def argument_intervals(
    args: Sequence[object],
    constraint: Constraint,
    evaluator: Optional[object] = None,
) -> Tuple[Optional[_Interval], ...]:
    """Per-position numeric intervals implied by *constraint* (or ``None``).

    The interval at a position is a *time-invariant over-approximation* of
    the values the constraint admits there: the interval :func:`bounds_of`
    reads from the top-level ordering conjuncts, intersected with the
    ``index_interval`` hook of every ground positive DCA-atom on that
    position, when *evaluator* exposes one (see
    :meth:`repro.domains.base.DomainFunction` -- hooks must return a superset
    interval valid at every time point, which is what keeps range postings
    sound under external source changes).  Hook bounds are taken as they
    are, so they compare exactly; a bound that is not a number gives no
    opinion.  Positions pinned to a numeric constant get the point interval;
    non-numeric pins and unconstrained positions get ``None``.
    """
    bounds = bounds_of(constraint)
    if bounds.unsatisfiable:
        # No instances at all: the empty interval excludes every probe and
        # refutes every join binding.  This is a large share of the win on
        # deletion workloads -- DRed's over-estimate is full of entries
        # narrowed to ``false``, and every combination using one would be
        # enumerated only for the solvability check to kill it.
        empty = _Interval(math.inf, False, -math.inf, False)
        return tuple(empty for _ in args)
    hook = getattr(evaluator, "index_interval", None)
    intervals: List[Optional[_Interval]] = []
    for arg in args:
        value = bounds.value_of(arg, UNBOUND)
        if value is UNBOUND:
            interval = bounds.intervals.get(arg)  # shared with the node: read only
        elif _is_number(value):
            interval = _Interval(value, False, value, False)  # exact
        else:
            intervals.append(None)
            continue
        if hook is not None:
            for domain, function, call_args in bounds.calls.get(arg, ()):
                try:
                    low, low_strict, high, high_strict = hook(domain, function, call_args)
                except Exception:  # hooks must never break indexing
                    continue  # no bound, or a malformed one: no opinion
                if not (_is_number(low) and _is_number(high)):
                    continue
                called = _Interval(low, bool(low_strict), high, bool(high_strict))
                interval = called if interval is None else _intersect_intervals(interval, called)
        if interval is not None and interval.is_trivial():
            interval = None
        intervals.append(interval)
    return tuple(intervals)


@dataclass(frozen=True)
class ViewEntry:
    """One view element: a constrained atom plus the support of its derivation."""

    atom: Atom
    constraint: Constraint
    support: Support

    @property
    def predicate(self) -> str:
        """Predicate name of the entry's atom."""
        return self.atom.predicate

    @property
    def constrained_atom(self) -> ConstrainedAtom:
        """The entry viewed as a constrained atom (dropping the support).

        Cached: join pools and renamed-premise caches rely on this being the
        same object on every access.
        """
        cached = self.__dict__.get("_cached_atom")
        if cached is None:
            cached = ConstrainedAtom(self.atom, self.constraint)
            object.__setattr__(self, "_cached_atom", cached)
        return cached

    def with_constraint(self, constraint: Constraint) -> "ViewEntry":
        """Return a copy with the constraint replaced (same atom, same support)."""
        return ViewEntry(self.atom, constraint, self.support)

    def bound_args(self) -> Tuple[object, ...]:
        """Per-position pinned constants (or :data:`UNBOUND`), cached.

        Purely syntactic (top-level equalities only), so the result is
        time-invariant even when the constraint mentions external domain
        calls -- which is what lets the ``W_P`` view's hash indexes stay
        byte-identical across source changes (Theorem 4).
        """
        cached = self.__dict__.get("_cached_bound_args")
        if cached is None:
            cached = bound_argument_values(self.atom.args, self.constraint)
            object.__setattr__(self, "_cached_bound_args", cached)
        return cached

    def arg_intervals(
        self, evaluator: Optional[object] = None, token: object = _NO_TOKEN
    ) -> Tuple[Optional[_Interval], ...]:
        """Per-position numeric intervals (see :func:`argument_intervals`).

        Cached per (evaluator identity, evaluator version token): the
        intervals are syntactic except for ``index_interval`` hook results,
        and while the hook *contract* makes a given hook's answers
        time-invariant, re-registering a function installs a different hook
        -- the registry's version token changes then, dropping the stale
        tuple.  Pass a pre-fetched *token* on hot paths; the token cannot
        change inside a single evaluation round.
        """
        if token is _NO_TOKEN:
            token = evaluator_token(evaluator)
        cached = self.__dict__.get("_cached_arg_intervals")
        if cached is not None:
            known, known_token, intervals = cached
            if known is evaluator and known_token == token:
                return intervals
        intervals = argument_intervals(self.atom.args, self.constraint, evaluator)
        # Single slot (most recent evaluator + token): entries are shared
        # across copied views and outlive solvers, so an unbounded per-
        # evaluator list would pin dead registries for the entry's lifetime.
        object.__setattr__(
            self, "_cached_arg_intervals", (evaluator, token, intervals)
        )
        return intervals

    def key(self) -> Tuple[Atom, Constraint, Support]:
        """Deduplication key: atom, canonical constraint, support.

        The canonical form is computed once and cached on the entry: every
        membership test, add and remove goes through the key, and entries are
        immutable, so recomputing it per lookup was pure waste.  The
        constraint component is the *interned* canonical node (a per-node
        slot read), so key hashing mixes cached ints and key equality
        degenerates to pointer comparisons -- two entries are duplicates
        exactly when their key components are the same objects.
        """
        cached = self.__dict__.get("_cached_key")
        if cached is None:
            cached = (self.atom, canonical_form(self.constraint), self.support)
            object.__setattr__(self, "_cached_key", cached)
        return cached

    def __str__(self) -> str:
        return f"{self.atom} <- {self.constraint}   {self.support}"


class MaterializedView:
    """An insertion-ordered collection of :class:`ViewEntry` objects.

    The container deduplicates on ``(atom, canonical constraint, support)``;
    two entries with the same constrained atom but different supports are
    *both* kept, which is exactly the paper's duplicate semantics.

    Storage is a copy-on-write façade over per-predicate
    :class:`PredicateShard` objects.  ``copy()`` shares every shard pointer
    (both views mark their shards borrowed); the first mutation of a
    predicate clones just that predicate's shard, so a maintenance pass pays
    copy cost proportional to the predicates it touches, not the view.
    Global insertion order is preserved across shards through per-entry
    sequence numbers allocated by the façade.

    Four index families back each shard: the key index (membership,
    removal), the insertion-ordered entry sequence (the fixpoint operators'
    join pools), a per-support index (StDel's re-fetch of replaced entries)
    and a child-support index mapping each *direct premise* support to the
    parent entries whose derivation used it (StDel's upward propagation), so
    ``remove``, ``replace``, ``__contains__``, ``find_by_support`` and
    ``find_parents_of`` stay O(1) in the shard (a parent lookup merges the
    handful of shards).

    A support names one derivation (Lemma 1), so it names one predicate:
    ``add`` raises :class:`~repro.errors.ProgramError` for an entry whose
    support this lineage has filed under another predicate.
    """

    def __init__(self, entries: Iterable[ViewEntry] = ()) -> None:
        self._shards: Dict[str, PredicateShard] = {}
        #: Predicates whose shard object may be shared with another view;
        #: writing one of these first clones it (copy-on-write).
        self._borrowed: Set[str] = set()
        #: When set (by :meth:`checkout`), writes outside these predicates
        #: raise -- the stream scheduler's guard that a unit never writes a
        #: shard outside the write closure the analyzer gave it.
        self._write_scope: Optional[FrozenSet[str]] = None
        self._next_seq = 0
        #: Shards cloned by copy-on-write since this lineage started
        #: (carried through ``copy()``; the scheduler reports deltas).
        self._shard_checkouts = 0
        #: Memoized global-order entry tuple; dropped by every mutation.
        self._entries_cache: Optional[Tuple[ViewEntry, ...]] = None
        #: Support -> owning predicate.  Shared *by reference* across the
        #: whole copy lineage and append-only, so it is a superset hint: a
        #: recorded predicate may no longer hold the support (harmless --
        #: the shard probe answers), but a support carried by any entry of
        #: this lineage is always recorded.
        self._support_hints: Dict[Support, str] = {}
        #: Child support -> predicates whose entries ever used it as a
        #: direct premise (same lineage-shared superset discipline).
        self._parent_hints: Dict[Support, Set[str]] = {}
        for entry in entries:
            self.add(entry)

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[ViewEntry]:
        return iter(self._sorted_entries())

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards.values())

    def __contains__(self, entry: ViewEntry) -> bool:
        shard = self._shards.get(entry.predicate)
        return shard is not None and shard.contains_key(entry.key())

    def __str__(self) -> str:
        return "\n".join(str(entry) for entry in self)

    def copy(self) -> "MaterializedView":
        """Return an independent copy (copy-on-write: shards are shared
        until either side writes them)."""
        dup = MaterializedView.__new__(MaterializedView)
        dup._shards = dict(self._shards)
        dup._borrowed = set(self._shards)
        dup._write_scope = self._write_scope
        dup._next_seq = self._next_seq
        dup._shard_checkouts = self._shard_checkouts
        # Same entries, same order: the copy can start from the memo.
        dup._entries_cache = self._entries_cache
        # Hints are shared by reference across the lineage (append-only
        # supersets; see __init__), so copies stay O(#shards).
        dup._support_hints = self._support_hints
        dup._parent_hints = self._parent_hints
        # The original must treat its shards as shared from now on too:
        # a later write on either side clones before mutating.
        self._borrowed.update(self._shards)
        if sanitizer_enabled():
            for shard in self._shards.values():
                shard.arm()
        return dup

    def checkout(self, predicates: Iterable[str]) -> "MaterializedView":
        """A copy-on-write copy whose writes are fenced to *predicates*.

        The stream scheduler checks out a unit's write closure before
        applying it: the unit's maintenance pass clones exactly the shards
        it touches (all inside the closure -- anything else raises
        :class:`~repro.errors.ProgramError`).  A write outside the closure
        means the analyzer's closure table is wrong, and the units the
        scheduler treats as independent are not, so the fence turns the bug
        into a loud failure.
        """
        dup = self.copy()
        dup._write_scope = frozenset(predicates)
        return dup

    def without_write_scope(self) -> "MaterializedView":
        """This view with the checkout fence removed (copy-on-write copy)."""
        if self._write_scope is None:
            return self
        dup = self.copy()
        dup._write_scope = None
        return dup

    @property
    def shard_checkouts(self) -> int:
        """Copy-on-write shard clones made by this view's lineage so far."""
        return self._shard_checkouts

    def _writable_shard(self, predicate: str) -> PredicateShard:
        if self._write_scope is not None and predicate not in self._write_scope:
            raise WriteScopeError(
                f"write to predicate {predicate!r} outside this view's "
                f"checkout scope {sorted(self._write_scope)}"
            )
        shard = self._shards.get(predicate)
        if shard is None:
            shard = self._shards[predicate] = PredicateShard(predicate)
            return shard
        if predicate in self._borrowed:
            shard = shard.copy()
            self._shards[predicate] = shard
            self._borrowed.discard(predicate)
            self._shard_checkouts += 1
        return shard

    def assert_publish_scope(
        self, base: "MaterializedView", allowed: Iterable[str]
    ) -> None:
        """Sanitizer check: this view diverges from *base* only in *allowed*.

        Run by the stream scheduler on every commit that changes the view,
        with the batch's written closures as *allowed*.  A shard pointer that
        differs from the base's outside them is a write no unit declared --
        a torn publish in the making -- so it raises
        :class:`~repro.errors.ShardSanitizerError` instead.
        So does a *base* shard that no longer holds what it held when it was
        shared: the batch's clones share its containers, and a write that
        reached one of them without copying it first has changed the
        published view.
        """
        for shard in base._shards.values():
            shard.assert_unwritten()
        allowed_set = set(allowed)
        for predicate, shard in self._shards.items():
            if predicate in allowed_set:
                continue
            if base._shards.get(predicate) is not shard:
                raise ShardSanitizerError(
                    f"torn publish: shard {predicate!r} was rewritten outside "
                    f"the declared write closure {sorted(allowed_set)}"
                )
        for predicate in base._shards:
            if predicate not in allowed_set and predicate not in self._shards:
                raise ShardSanitizerError(
                    f"torn publish: shard {predicate!r} was dropped outside "
                    f"the declared write closure {sorted(allowed_set)}"
                )

    # ------------------------------------------------------------------
    # Shard export / import (the durability layer's codec surface)
    # ------------------------------------------------------------------
    def export_shard_rows(
        self, predicate: str
    ) -> Tuple[Tuple[ViewEntry, int], ...]:
        """One predicate's entries in insertion order with their global
        sequence numbers -- everything a shard codec needs to persist.
        Indexes are deliberately absent: they rebuild lazily on load."""
        shard = self._shards.get(predicate)
        return shard.rows() if shard is not None else ()

    def export_shard_changes(self, predicate: str, previous: Optional[PredicateShard]):
        """:meth:`PredicateShard.changes_since` *previous*, the predicate's
        shard in an earlier view of this lineage (``None``: it had none)."""
        shard = self._shards.get(predicate) or PredicateShard(predicate)
        return shard.changes_since(previous or PredicateShard(predicate))

    def import_shard_rows(
        self, predicate: str, rows: Iterable[Tuple["ViewEntry", int]]
    ) -> int:
        """Rebuild one predicate's shard from exported ``(entry, seq)`` rows.

        The recovery path's inverse of :meth:`export_shard_rows`: entries
        are added in the stored order and keep their *original* sequence
        numbers, so the reloaded view's global iteration order -- and its
        re-encoded bytes -- are identical to the persisted ones.  The view
        must not already hold the predicate (recovery builds into an empty
        view); duplicate keys within the rows are rejected."""
        existing = self._shards.get(predicate)
        if existing is not None and len(existing):
            raise ProgramError(
                f"cannot import shard {predicate!r}: the view already holds "
                "entries for it"
            )
        shard = self._writable_shard(predicate)
        imported = 0
        for entry, seq in rows:
            if not isinstance(entry, ViewEntry):
                raise ProgramError(f"not a view entry: {entry!r}")
            if entry.predicate != predicate:
                raise ProgramError(
                    f"entry for {entry.predicate!r} cannot be imported into "
                    f"shard {predicate!r}"
                )
            if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
                raise ProgramError(
                    f"sequence number must be a non-negative int: {seq!r}"
                )
            key = entry.key()
            if shard.contains_key(key):
                raise ProgramError(
                    f"duplicate entry key in imported shard {predicate!r}: {entry}"
                )
            self._record_support_hints(entry)
            shard.add(key, entry, seq)
            if seq >= self._next_seq:
                self._next_seq = seq + 1
            imported += 1
        self._entries_cache = None
        return imported

    def next_sequence_number(self) -> int:
        """The façade's sequence counter (persisted in snapshot manifests)."""
        return self._next_seq

    def advance_sequence_number(self, floor: int) -> None:
        """Raise the sequence counter to at least *floor* (recovery only)."""
        if floor > self._next_seq:
            self._next_seq = floor

    def _sorted_entries(self) -> Tuple[ViewEntry, ...]:
        """All entries in global insertion order (sequence-number merge).

        Memoized until the next mutation: iteration runs on hot per-batch
        paths (working-copy snapshots, purges, instance queries) and the
        entry set only changes through ``add`` / ``remove`` / ``replace`` /
        ``import_shard_rows``, each of which drops the cache.
        """
        cached = self._entries_cache
        if cached is not None:
            return cached
        self._entries_cache = merged = self._merge_entries()
        return merged

    def _merge_entries(self) -> Tuple[ViewEntry, ...]:
        shards = [shard for shard in self._shards.values() if len(shard)]
        if not shards:
            return ()
        if len(shards) == 1:
            return shards[0].to_tuple()
        decorated: List[Tuple[int, str, ViewEntry]] = []
        for shard in shards:
            predicate = shard.predicate
            decorated.extend((seq, predicate, entry) for entry, seq in shard.rows())
        # Sequence numbers are unique within one lineage, so the predicate
        # only breaks a tie between imported rows that repeat a number: it
        # keeps the order total and deterministic whatever the rows say.
        decorated.sort(key=lambda item: (item[0], item[1]))
        return tuple(item[2] for item in decorated)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, entry: ViewEntry) -> bool:
        """Add an entry; return False when an identical entry already exists."""
        if not isinstance(entry, ViewEntry):
            raise ProgramError(f"not a view entry: {entry!r}")
        key = entry.key()
        existing = self._shards.get(entry.predicate)
        if existing is not None and existing.contains_key(key):
            return False
        self._record_support_hints(entry)
        self._writable_shard(entry.predicate).add(key, entry, self._next_seq)
        self._next_seq += 1
        self._entries_cache = None
        return True

    def _record_support_hints(self, entry: ViewEntry) -> None:
        """File the entry's support (and premises) in the lineage hints."""
        support = entry.support
        known = self._support_hints.setdefault(support, entry.predicate)
        if known != entry.predicate:
            raise ProgramError(
                f"support {support} derives {known!r}, not {entry.predicate!r}"
            )
        children = support.children
        if children:
            parents = self._parent_hints
            for child in dict.fromkeys(children):
                owners = parents.get(child)
                if owners is None:
                    owners = parents.setdefault(child, set())
                owners.add(entry.predicate)

    def remove(self, entry: ViewEntry) -> bool:
        """Remove an entry; return False when it was not present."""
        key = entry.key()
        existing = self._shards.get(entry.predicate)
        if existing is None or not existing.contains_key(key):
            return False
        self._writable_shard(entry.predicate).remove(key, entry)
        self._entries_cache = None
        return True

    def replace(self, old: ViewEntry, new: ViewEntry) -> bool:
        """Replace *old* by *new* in place (preserving insertion order).

        Returns True when the slot was replaced.  When *new*'s key already
        belongs to a *different* entry the two entries are identical by the
        container's own dedup criterion (atom, canonical constraint and
        support all match), so they are merged instead: *old* is removed,
        the existing entry stays, and False is returned.  The previous
        implementation silently reused the key for two list positions, and
        a later ``remove`` of either entry dropped both from the key index.
        """
        old_key = old.key()
        existing = self._shards.get(old.predicate)
        if existing is None or not existing.contains_key(old_key):
            raise ProgramError(f"entry not in view: {old}")
        new_key = new.key()
        if new.predicate == old.predicate:
            if new_key != old_key and existing.contains_key(new_key):
                self.remove(old)
                return False
            self._record_support_hints(new)
            self._writable_shard(old.predicate).replace(old_key, new_key, old, new)
            self._entries_cache = None
            return True
        else:  # pragma: no cover - algorithms never change the predicate
            target = self._shards.get(new.predicate)
            if target is not None and target.contains_key(new_key):
                self.remove(old)
                return False
            self._record_support_hints(new)
            source = self._writable_shard(old.predicate)
            sequence = source.sequence_of(old_key)
            source.remove(old_key, old)
            self._writable_shard(new.predicate).add(new_key, new, sequence)
            self._entries_cache = None
            return True

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    @property
    def entries(self) -> Tuple[ViewEntry, ...]:
        """All entries in insertion order."""
        return self._sorted_entries()

    def entries_for(self, predicate: str) -> Tuple[ViewEntry, ...]:
        """Entries whose atom has the given predicate."""
        shard = self._shards.get(predicate)
        return shard.to_tuple() if shard is not None else ()

    def shard_for(self, predicate: str) -> Optional[PredicateShard]:
        """The predicate's shard, when it exists (read-only access)."""
        return self._shards.get(predicate)

    def predicates(self) -> Tuple[str, ...]:
        """Predicates that have at least one entry, sorted."""
        return tuple(
            sorted(name for name, shard in self._shards.items() if len(shard))
        )

    def find_by_support(self, support: Support) -> Optional[ViewEntry]:
        """Return the (first-inserted) entry carrying exactly this support.

        The lineage's support hints name the one shard that can hold the
        support, so the probe is O(1) instead of per-shard.
        """
        shard = self._shards.get(self._support_hints.get(support))
        return shard.first_by_support(support) if shard is not None else None

    def find_all_by_support(self, support: Support) -> Tuple[ViewEntry, ...]:
        """Every entry carrying exactly this support, in insertion order.

        A support names one derivation, but DRed rederivation can add a
        rederived twin (same predicate, wider constraint) alongside a
        narrowed entry.  Callers that reason about *all* entries under a
        support (the delta-rederivation seed, the subsumption pass) must
        use this, not :meth:`find_by_support`.
        """
        shard = self._shards.get(self._support_hints.get(support))
        return shard.all_by_support(support) if shard is not None else ()

    def find_parents_of(self, support: Support) -> Tuple[ViewEntry, ...]:
        """Entries whose derivation used *support* as a direct premise.

        This is StDel step 3's probe: instead of scanning the whole view per
        ``P_OUT`` pair, the propagation asks the child-support index for
        exactly the parents the pair can affect.  Results come back in
        insertion order; entries replaced in place keep their slot.  The
        first probe builds a shard's index from its current entries;
        mutations maintain it incrementally after that.

        The lineage's parent hints name the predicates whose entries ever
        used *support* as a premise (a superset -- removals leave stale
        names behind), so only those shards are probed; most supports have
        no parents at all and return without touching any shard.
        """
        recorded = self._parent_hints.get(support)
        if recorded is None:
            return ()
        owners = tuple(recorded)
        if len(owners) == 1:
            shard = self._shards.get(owners[0])
            return shard.parents_of(support) if shard is not None else ()
        candidates = [
            shard
            for owner in owners
            if (shard := self._shards.get(owner)) is not None
        ]
        decorated: List[Tuple[int, str, ViewEntry]] = []
        for shard in candidates:
            group = shard.parents_of(support)
            if not group:
                continue
            sequence_of = shard.sequence_of
            predicate = shard.predicate
            decorated.extend(
                (sequence_of(entry.key()), predicate, entry) for entry in group
            )
        decorated.sort(key=lambda item: (item[0], item[1]))
        return tuple(item[2] for item in decorated)

    def child_support_snapshot(self) -> Tuple[Tuple[str, Tuple[str, ...]], ...]:
        """A canonical, comparable rendering of the child-support index.

        Each row is ``(child support, sorted parent entry keys)``; the
        property tests compare this against a brute-force scan of
        ``entries`` after random mutation sequences.  Builds the index if
        it has not been probed yet.
        """
        merged: Dict[str, List[str]] = {}
        for shard in self._shards.values():
            for child, group in shard.child_rows():
                if len(group):
                    merged.setdefault(str(child), []).extend(
                        str(entry.key()) for entry in group
                    )
        return tuple(
            sorted((child, tuple(sorted(keys))) for child, keys in merged.items())
        )

    # ------------------------------------------------------------------
    # Hash-join argument index
    # ------------------------------------------------------------------
    def probe(
        self, predicate: str, position: int, value: object
    ) -> Tuple[ViewEntry, ...]:
        """Entries of *predicate* that can carry *value* at argument *position*.

        Returns the entries whose constraint pins the position to *value*
        plus every entry whose constraint leaves the position unbound -- a
        superset of the entries that can join with that binding, and usually
        a small fraction of the predicate's full pool.  Results come back in
        insertion order (matching the positional pools).  An unhashable
        *value* falls back to the full pool.
        """
        shard = self._shards.get(predicate)
        if shard is None:
            return ()
        result = shard.probe(position, value)
        if result is None:
            return shard.to_tuple()
        return result

    def probe_range(
        self,
        predicate: str,
        position: int,
        query: object,
        evaluator: Optional[object] = None,
        token: object = _NO_TOKEN,
    ) -> Tuple[ViewEntry, ...]:
        """Range-aware probe: *query* is a pinned value or an :class:`IntervalQuery`.

        Like :meth:`probe`, but entries whose constraint bounds the position
        into a numeric interval are consulted through the slot's range
        postings: a pinned value only returns the postings whose interval
        admits it, an interval query only those whose interval overlaps it.
        Entries with no interval at the position remain in the plain unbound
        bucket and are returned by every probe.  The result is still a
        superset of the entries that can join -- the interval is a
        time-invariant over-approximation of the position's admissible
        values -- just a tighter one than the unbound-bucket fallback.

        The first range-aware probe of a slot builds its postings from the
        unbound bucket (using *evaluator*'s ``index_interval`` hooks, when
        present); later mutations maintain them incrementally.  ``W_P``
        materialization never calls this, so under ``W_P`` the postings are
        never populated (Theorem 4's byte-invariance is untouched).
        """
        shard = self._shards.get(predicate)
        if shard is None:
            return ()
        if token is _NO_TOKEN:
            token = evaluator_token(evaluator)
        if isinstance(query, IntervalQuery):
            return shard.probe_overlap(position, query.as_interval(), evaluator, token)
        result = shard.probe_value(position, query, evaluator, token)
        if result is None:
            return shard.to_tuple()
        return result

    def range_posting_snapshot(
        self,
    ) -> Tuple[Tuple[str, int, str, str], ...]:
        """A canonical rendering of the built range postings.

        Each row is ``(predicate, position, interval, entry key)``.  Empty
        until the first range-aware probe -- the W_P invariance tests assert
        it *stays* empty under ``W_P`` materialization and source changes.
        """
        rows: List[Tuple[str, int, str, str]] = []
        for shard in self._shards.values():
            rows.extend(shard.posting_rows())
        return tuple(sorted(rows))

    def argument_index_snapshot(self) -> Tuple[Tuple[str, int, str, Tuple[str, ...]], ...]:
        """A canonical, comparable rendering of the argument index.

        Each row is ``(predicate, position, value-or-"<unbound>", entry
        keys)``; the W_P invariance tests compare snapshots byte-for-byte
        across external source changes (Theorem 4 extended to the indexes).
        """
        rows: List[Tuple[str, int, str, Tuple[str, ...]]] = []
        for shard in self._shards.values():
            rows.extend(shard.argument_rows())
        return tuple(sorted(rows))

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------
    def instances(
        self,
        solver: Optional[ConstraintSolver] = None,
        universe: Optional[Iterable[object]] = None,
    ) -> FrozenSet[Tuple[str, Tuple[object, ...]]]:
        """The ground instance set ``[M]`` of the whole view."""
        universe_values = list(universe) if universe is not None else None
        collected = set()
        for entry in self:
            collected.update(
                entry.constrained_atom.instances(solver=solver, universe=universe_values)
            )
        return frozenset(collected)

    def instances_for(
        self,
        predicate: str,
        solver: Optional[ConstraintSolver] = None,
        universe: Optional[Iterable[object]] = None,
    ) -> FrozenSet[Tuple[object, ...]]:
        """Ground instances of one predicate (tuples only)."""
        universe_values = list(universe) if universe is not None else None
        collected = set()
        for entry in self.entries_for(predicate):
            for _, values in entry.constrained_atom.instances(
                solver=solver, universe=universe_values
            ):
                collected.add(values)
        return frozenset(collected)

    def same_instances(
        self,
        other: "MaterializedView",
        solver: Optional[ConstraintSolver] = None,
        universe: Optional[Iterable[object]] = None,
    ) -> bool:
        """Semantic comparison ``[self] == [other]`` (the paper's theorems)."""
        return self.instances(solver=solver, universe=universe) == other.instances(
            solver=solver, universe=universe
        )

    def prune_unsolvable(
        self,
        solver: ConstraintSolver,
        candidates: Optional[Iterable[ViewEntry]] = None,
    ) -> int:
        """Drop entries whose constraint is unsatisfiable; return the count.

        StDel's final step ("remove any constraint atom from M whose
        constraint is not solvable") and W_P's query-time evaluation both use
        this operation.  With *candidates*, only those of them still in the
        view are checked -- DRed passes the entries its pass narrowed, the
        only ones a solvability-purged input view can have made unsolvable.
        """
        if candidates is None:
            candidates = self
        doomed = [
            entry
            for entry in candidates
            if entry in self and not solver.is_satisfiable(entry.constraint)
        ]
        for entry in doomed:
            self.remove(entry)
        return len(doomed)

    def is_duplicate_free(
        self,
        solver: ConstraintSolver,
        fresh_factory: Optional[FreshVariableFactory] = None,
    ) -> bool:
        """Check the duplicate-freeness condition of Section 3.1.

        The Extended DRed algorithm is "efficient when the mediated view is
        duplicate-free", i.e. for all distinct entries ``A(X̄) <- φ1`` and
        ``A(Ȳ) <- φ2`` of the same predicate the instance sets are disjoint.
        Disjointness of two entries is checked as unsatisfiability of
        ``φ1 & φ2' & (X̄ = Ȳ')`` with the second entry renamed apart.
        """
        factory = fresh_factory or FreshVariableFactory(
            variable.name for entry in self for variable in entry.constrained_atom.variables()
        )
        for predicate in self.predicates():
            bucket = self.entries_for(predicate)
            for index, first in enumerate(bucket):
                for second in bucket[index + 1:]:
                    renamed, _ = second.constrained_atom.renamed_apart(factory)
                    overlap = conjoin(
                        first.constraint,
                        renamed.constraint,
                        tuple_equalities(first.atom.args, renamed.atom.args),
                    )
                    if solver.is_satisfiable(overlap):
                        return False
        return True

    def variable_name_tables(
        self, predicates: Optional[Iterable[str]] = None
    ) -> Tuple[Dict[str, int], ...]:
        """The name tables of the view's shards (see
        :meth:`PredicateShard.variable_names`), for membership tests.

        With *predicates*, only those predicates' tables.  A table stays
        owned by its shard and follows its writes.  Taken from a fresh
        :meth:`copy` -- what every maintenance pass does -- the tables are
        those of shared shards, which are never written: the pass's own
        writes go to copy-on-write clones.
        """
        if predicates is None:
            shards: Iterable[Optional[PredicateShard]] = self._shards.values()
        else:
            shards = (self._shards.get(name) for name in sorted(set(predicates)))
        return tuple(
            shard.variable_names() for shard in shards if shard is not None
        )

    def all_variable_names(
        self, predicates: Optional[Iterable[str]] = None
    ) -> FrozenSet[str]:
        """Names of every variable in the view (atoms and constraints).

        With *predicates* only those predicates' shards are consulted.
        Callers that combine fresh variables exclusively with entries of a
        known predicate set (a maintenance pass scoped to a read closure)
        can reserve against just that set: a name clash with an entry the
        pass never reads is harmless, because constraint variables are
        scoped per entry.
        """
        return frozenset().union(*self.variable_name_tables(predicates))
