"""The delta-join kernel shared by ``T_P``/``W_P``, ``P_OUT`` and ``P_ADD``.

The fixpoint operator (paper Section 2.3), the ``P_OUT`` unfolding of
Extended DRed (Algorithm 1, step 1) and the ``P_ADD`` unfolding of insertion
(Algorithm 3) are the same act: apply a clause with at least one premise
drawn from a *delta* and the rest from the view.  They differ only in where
the delta lives (:class:`Seed`), in whether solvability is checked, and in
what the caller does with the derived atoms (dedup key, ``view.add``, round
cap).  The kernel owns everything else: a :class:`DeltaRound` groups the
delta, selects clauses through the body-predicate index and sets up the
per-round ``(full, old, delta)`` pools, the argument-index probes and the
indexed-vs-scan choice; its :class:`DeltaJoinKernel` holds what a whole
unfolding shares (program, solver, options, fresh names, counters) and
performs the single clause application.

:class:`EngineOptions` is the one configuration every algorithm takes.  How
a derived constraint is normalized is not part of it: every algorithm
projects and simplifies the same way, which keeps StDel, DRed, insertion and
recomputation key-comparable.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, replace
from functools import partial
from operator import attrgetter
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.constraints.ast import (
    FALSE,
    TRUE,
    Comparison,
    Constraint,
    conjoin,
    negate,
    tuple_equalities,
)
from repro.constraints.projection import eliminate_variables
from repro.constraints.simplify import pins_of, simplify
from repro.constraints.solver import (
    ConstraintSolver,
    box_of,
    Interval as _Interval,
    intersect_intervals as _intersect_intervals,
    interval_excludes as _interval_excludes,
)
from repro.constraints.terms import Constant, FreshVariableFactory, Substitution, Variable
from repro.datalog.atoms import Atom, ConstrainedAtom
from repro.datalog.clauses import Clause
from repro.datalog.program import ConstrainedDatabase
from repro.datalog.support import Support
from repro.datalog.view import (
    IntervalQuery,
    MaterializedView,
    UNBOUND,
    ViewEntry,
    argument_intervals,
    bound_argument_values,
    evaluator_token,
    interval_query_from,
)


#: Hard cap on the total number of view entries a fixpoint builds before it
#: gives up.
MAX_VIEW_ENTRIES = 200_000

#: Cap on the rounds of one ``T_P`` / ``W_P`` fixpoint before it gives up.
MAX_FIXPOINT_ROUNDS = 200

#: Cap on ``P_OUT`` / ``P_ADD`` unfolding rounds (defensive; recursion is
#: bounded by the view size because premises come from the finite view).
MAX_UNFOLD_ROUNDS = 100


@dataclass(frozen=True)
class EngineOptions:
    """The one configuration of the fixpoint engine and every algorithm.

    The engine has one behaviour for what the paper fixes: duplicate
    semantics (one entry per derivation), an ``Add`` set that excludes the
    instances already present, derived constraints projected onto the head
    variables and simplified with entailed comparisons dropped, and
    deletions that purge the entries left unsolvable.  What remains here
    are the fast paths.  Values marked *reference* exist only so the
    differential harness can compare a fast path against the path it
    replaced; production always runs the defaults.
    """

    #: Probe the view's argument index with the bindings accumulated so far
    #: instead of scanning the full per-position pools (hash join).  Only
    #: applied when solvability is checked: the index prunes combinations
    #: whose binding equalities are unsatisfiable, and ``W_P`` must keep
    #: exactly those entries (Theorem 4).  ``False`` is the *reference* scan
    #: join.
    hash_join_index: bool = True
    #: Consult the argument index's interval range postings: positions whose
    #: entries are interval-constrained (not pinned to a constant) are probed
    #: by containment/overlap instead of falling back to the unbound bucket,
    #: and join bindings carry intervals alongside pinned values.  Only
    #: effective when ``hash_join_index`` is on; like it, never applied under
    #: ``W_P`` (the postings are then never even populated).  ``False`` is a
    #: *reference*.
    range_postings: bool = True
    #: Statically-inferred (predicate, position) pairs that can actually
    #: carry a non-degenerate interval (see
    #: :func:`repro.analysis.signatures.infer_interval_positions`; filled by
    #: :meth:`with_report`).  When set, pinned-value probes against positions
    #: *not* in the table skip the range-postings path entirely -- the
    #: exact-value index already answers them.  ``None`` (no analysis
    #: available) keeps every position on the range-aware path; overlap
    #: (:class:`IntervalQuery`) probes always stay range-aware regardless.
    range_eligible: Optional[FrozenSet[Tuple[str, int]]] = None
    #: DRed: seed the rederivation fixpoint only with the entries the
    #: over-deletion narrowed plus their direct premises (found through the
    #: support index), instead of the whole over-estimate.  ``False`` is the
    #: *reference* full-seed rederivation.
    delta_rederivation: bool = True
    #: DRed: segment a batch around requests that delete a *derivable*
    #: predicate, so runs of EDB-only requests keep the single-pass path.
    #: ``False`` is the *reference* one-at-a-time chain.
    segment_batches: bool = True

    def with_report(self, report) -> "EngineOptions":
        """Fill :attr:`range_eligible` from an analyzer report.

        The single place the interval-position table enters a configuration;
        a caller that pinned one explicitly keeps it.
        """
        if self.range_eligible is not None:
            return self
        return replace(self, range_eligible=report.interval_positions)


_T = TypeVar("_T")


def iter_delta_joins(
    old_pools: Sequence[Sequence[_T]],
    delta_pools: Sequence[Sequence[_T]],
    full_pools: Sequence[Sequence[_T]],
) -> Iterator[Tuple[_T, ...]]:
    """Enumerate premise combinations that use at least one delta element.

    The enumeration is partitioned by the *first* body position that takes a
    delta element: positions before it draw from ``old_pools`` (the view
    minus the delta), the position itself draws from ``delta_pools`` and the
    positions after it draw from ``full_pools`` (the whole view).  Every
    combination containing at least one delta element is produced exactly
    once, and no delta-free combination is ever materialized -- this is the
    semi-naive join the naive product-then-filter loop only simulated.

    Passing ``full_pools`` again as ``old_pools`` yields the combinations
    with *exactly one* delta element instead (assuming the delta pools are
    disjoint from the full pools), which is the Extended DRed / P_ADD
    unfolding discipline.
    """
    arity = len(full_pools)
    for position in range(arity):
        delta_pool = delta_pools[position]
        if not delta_pool:
            continue
        prefix = old_pools[:position]
        suffix = full_pools[position + 1:]
        if any(not pool for pool in prefix) or any(not pool for pool in suffix):
            continue
        for chosen in delta_pool:
            for before in itertools.product(*prefix):
                for after in itertools.product(*suffix):
                    yield before + (chosen,) + after


def _values_compatible(left: object, right: object) -> bool:
    """Conservative equality: False only when the values definitely differ.

    Mirrors the solver's value equality (Python ``==``, which already treats
    ``3 == 3.0``); anything odd (raising ``__eq__``, non-bool result) counts
    as compatible so the index never prunes a satisfiable combination.
    """
    try:
        return bool(left == right)
    except Exception:
        return True


def _extend_bindings(
    bindings: Dict[Variable, object],
    body_atom: Atom,
    values: Sequence[object],
    intervals: Optional[Sequence[Optional[_Interval]]] = None,
) -> Optional[Dict[Variable, object]]:
    """Fold one premise's pinned argument values into the binding map.

    Returns ``None`` when a pinned value clashes with an existing binding or
    a constant argument -- exactly the combinations whose binding equalities
    the solver would find unsatisfiable.

    With *intervals* (the premise's per-position numeric bounds, from
    :func:`repro.datalog.view.argument_intervals`), positions the premise
    does not pin to a value contribute an *interval* binding instead:
    intervals intersect (an empty intersection prunes the combination), a
    later pinned value refines an interval binding (a value outside it
    prunes), and constants are checked for containment.  All the pruned
    combinations are exactly those whose binding equalities plus ordering
    conjuncts are unsatisfiable, so this stays ``T_P``-only, like the rest
    of the indexed enumeration.
    """
    updated = bindings
    copied = False
    for index, (arg, value) in enumerate(zip(body_atom.args, values)):
        if value is UNBOUND:
            interval = intervals[index] if intervals is not None else None
            if interval is None:
                continue
            if isinstance(arg, Constant):
                if _interval_excludes(interval, arg.value):
                    return None
                continue
            existing = updated.get(arg, UNBOUND)
            if existing is UNBOUND:
                if not copied:
                    updated = dict(updated)
                    copied = True
                updated[arg] = interval
            elif isinstance(existing, _Interval):
                merged = _intersect_intervals(existing, interval)
                if merged.is_empty():
                    return None
                if not copied:
                    updated = dict(updated)
                    copied = True
                updated[arg] = merged
            elif _interval_excludes(interval, existing):
                return None
            continue
        if isinstance(arg, Constant):
            if not _values_compatible(arg.value, value):
                return None
            continue
        existing = updated.get(arg, UNBOUND)
        if existing is UNBOUND:
            if not copied:
                updated = dict(updated)
                copied = True
            updated[arg] = value
        elif isinstance(existing, _Interval):
            if _interval_excludes(existing, value):
                return None
            if not copied:
                updated = dict(updated)
                copied = True
            updated[arg] = value
        elif not _values_compatible(existing, value):
            return None
    return updated


def iter_indexed_delta_joins(
    body_atoms: Sequence[Atom],
    old_pools: Sequence[Sequence[_T]],
    delta_pools: Sequence[Sequence[_T]],
    full_pools: Sequence[Sequence[_T]],
    probe_old: Callable[[Atom, int, object], Sequence[_T]],
    probe_full: Callable[[Atom, int, object], Sequence[_T]],
    bound_intervals: Optional[
        Callable[[_T], Sequence[Optional[_Interval]]]
    ] = None,
) -> Iterator[Tuple[_T, ...]]:
    """Hash-join variant of :func:`iter_delta_joins`.

    Enumerates the same partitions (first delta position draws from the
    delta, earlier positions from the old pools, later ones from the full
    pools) but visits the delta position *first* so its pinned argument
    values become bindings, then resolves every remaining position through
    ``probe_old`` / ``probe_full`` -- an argument-index lookup returning only
    entries that can carry the accumulated binding -- falling back to the
    positional pool when no argument of the position is bound yet.

    With *bound_intervals* (range postings enabled), positions a premise
    bounds numerically without pinning contribute interval bindings, and a
    position whose first informative argument carries only an interval is
    resolved with an :class:`~repro.datalog.view.IntervalQuery` probe
    (overlap instead of containment) -- interval-constrained workloads then
    skip the unbound-bucket fallback that made them effectively positional.

    The yielded set is the subset of :func:`iter_delta_joins`'s output whose
    binding equalities are not trivially unsatisfiable, so it is only valid
    for ``T_P``-style evaluation (solvability-checked derivations).  Each
    combination is yielded with its premises in body order.
    """
    arity = len(full_pools)
    values_cache: Dict[int, Sequence[object]] = {}
    intervals_cache: Dict[int, Sequence[Optional[_Interval]]] = {}

    def values_of(item: _T) -> Sequence[object]:
        cached = values_cache.get(id(item))
        if cached is None:
            cached = values_cache[id(item)] = _bound_values(item)
        return cached

    def intervals_of(item: _T) -> Optional[Sequence[Optional[_Interval]]]:
        if bound_intervals is None:
            return None
        cached = intervals_cache.get(id(item))
        if cached is None:
            cached = intervals_cache[id(item)] = bound_intervals(item)
        return cached

    def candidates(
        position: int, use_old: bool, bindings: Dict[Variable, object]
    ) -> Sequence[_T]:
        body_atom = body_atoms[position]
        interval_query: Optional[Tuple[int, _Interval]] = None
        for arg_index, arg in enumerate(body_atom.args):
            if isinstance(arg, Constant):
                value = arg.value
            elif isinstance(arg, Variable) and arg in bindings:
                bound = bindings[arg]
                if isinstance(bound, _Interval):
                    if interval_query is None:
                        interval_query = (arg_index, bound)
                    continue
                value = bound
            else:
                continue
            probe = probe_old if use_old else probe_full
            return probe(body_atom, arg_index, value)
        if interval_query is not None:
            arg_index, interval = interval_query
            probe = probe_old if use_old else probe_full
            return probe(body_atom, arg_index, interval_query_from(interval))
        return old_pools[position] if use_old else full_pools[position]

    for delta_position in range(arity):
        if not delta_pools[delta_position]:
            continue
        if any(not old_pools[p] for p in range(delta_position)):
            continue
        if any(not full_pools[p] for p in range(delta_position + 1, arity)):
            continue
        # Visit the delta position first so its bindings prune the rest;
        # remaining positions go in body order.
        order = [delta_position] + [p for p in range(arity) if p != delta_position]
        chosen: List[Optional[_T]] = [None] * arity

        def recurse(depth: int, bindings: Dict[Variable, object]) -> Iterator[Tuple[_T, ...]]:
            if depth == arity:
                yield tuple(chosen)  # type: ignore[arg-type]
                return
            position = order[depth]
            if position == delta_position:
                pool: Sequence[_T] = delta_pools[position]
            else:
                pool = candidates(position, position < delta_position, bindings)
            for item in pool:
                extended = _extend_bindings(
                    bindings,
                    body_atoms[position],
                    values_of(item),
                    intervals_of(item),
                )
                if extended is None:
                    continue
                chosen[position] = item
                yield from recurse(depth + 1, extended)

        try:
            yield from recurse(0, {})
        finally:
            # ``recurse`` reaches itself through its closure cell: drop the
            # cycle so the join's frames, pools and the constraint nodes
            # they hold are freed now, not whenever the collector runs.
            recurse = None


def _bound_values(item: object) -> Sequence[object]:
    getter = getattr(item, "bound_args", None)
    if getter is not None:
        return getter()
    return bound_argument_values(item.atom.args, item.constraint)  # type: ignore[attr-defined]


def make_interval_getter(
    evaluator: Optional[object],
) -> Callable[[object], Sequence[Optional[_Interval]]]:
    """Per-item interval getter for :func:`iter_indexed_delta_joins`.

    Resolves :class:`~repro.datalog.view.ViewEntry` items through their
    cached ``arg_intervals``; bare constrained atoms (the P_OUT / P_ADD
    frontiers) are summarized on the fly.
    """
    token = evaluator_token(evaluator)

    def getter(item: object) -> Sequence[Optional[_Interval]]:
        method = getattr(item, "arg_intervals", None)
        if method is not None:
            return method(evaluator, token)
        return argument_intervals(item.atom.args, item.constraint, evaluator)  # type: ignore[attr-defined]

    return getter


class Seed(enum.Enum):
    """Where a round's delta lives relative to the view (the seed policy)."""

    #: The delta entries are members of the view; positions before the first
    #: delta position draw from ``view − delta``, so every combination with
    #: *at least one* delta premise is enumerated exactly once.  ``T_P`` /
    #: ``W_P`` rounds and the ``P_ADD`` unfolding.
    IN_VIEW = "in-view"
    #: The delta is a frontier of bare constrained atoms *outside* the view
    #: (grouped by signature); every other premise draws from the full view,
    #: so each combination uses *exactly one* frontier atom.  The ``P_OUT``
    #: unfolding.
    FRONTIER = "frontier"
    #: Every view entry is delta and the old pools are empty: one
    #: (non-inflationary) operator application enumerates the full product.
    ALL_DELTA = "all-delta"


def derived_entry(
    clause: Clause, premises: Sequence[ViewEntry], derived: ConstrainedAtom
) -> ViewEntry:
    """The view entry of one derivation: the derived atom plus its support."""
    support = Support(
        clause.number or 0, tuple(premise.support for premise in premises)
    )
    return ViewEntry(derived.atom, derived.constraint, support)


def make_fresh_factory(
    program: ConstrainedDatabase,
    view: MaterializedView,
    extra: Iterable[ConstrainedAtom] = (),
    predicates: Optional[Iterable[str]] = None,
) -> FreshVariableFactory:
    """A fresh-variable factory avoiding every name used so far.

    With *predicates* only those predicates' entries reserve names.  Sound
    whenever the caller's pass combines fresh-renamed constraints only with
    entries of that predicate set (e.g. a deletion pass scoped to its read
    closure): entry constraints are scoped per entry, so a collision with a
    never-read entry cannot capture anything.

    The program's and the view shards' name tables are consulted in place
    (see :meth:`MaterializedView.variable_name_tables`), not copied.
    """
    return FreshVariableFactory(
        {variable.name for atom in extra for variable in atom.variables()},
        (program.variable_names(), *view.variable_name_tables(predicates)),
    )


def make_view_probe(
    view: MaterializedView, solver: ConstraintSolver, options: EngineOptions
) -> Callable[[str, int, object], Tuple[ViewEntry, ...]]:
    """The argument-index probe *options* asks for: ``(predicate, position,
    query) -> entries``, with the choice bound once per round or pass.

    *query* is a pinned value or an :class:`~repro.datalog.view.IntervalQuery`
    (only issued with range postings on).  ``options.range_eligible`` (the
    analyzer's interval-position table) routes pinned-value probes of
    statically interval-free positions straight to the exact-value index:
    ``probe`` returns bound matches, the unbound bucket AND every
    interval-posted entry unfiltered, so skipping the range machinery on
    such positions is unconditionally a superset -- only overlap queries
    must stay on the range-aware path.
    """
    if not options.range_postings:
        return view.probe
    evaluator = solver.evaluator
    token = evaluator_token(evaluator)
    range_eligible = options.range_eligible

    def probe(predicate: str, position: int, query: object):
        if (
            range_eligible is not None
            and not isinstance(query, IntervalQuery)
            and (predicate, position) not in range_eligible
        ):
            return view.probe(predicate, position, query)
        return view.probe_range(predicate, position, query, evaluator, token)

    return probe


def overlap_candidates(
    view: MaterializedView,
    atom: ConstrainedAtom,
    solver: ConstraintSolver,
    options: EngineOptions,
    stats=None,
) -> Tuple[ViewEntry, ...]:
    """Entries of *atom*'s predicate that can share an instance with it.

    A superset, in insertion order: an entry left out is pinned to another
    value, or bounded into a disjoint interval, at a position where *atom*
    is pinned or bounded -- every overlap test (``quick_reject``, the
    solver) would turn it down.  The maintenance passes run their exact
    per-entry checks on what comes back, so narrowing the candidates never
    changes a ``Del``, ``Add`` or ``P_OUT`` set.

    The first position *atom* pins to a value is probed through the view's
    argument index; failing that, with range postings on, the first position
    it bounds numerically is probed by overlap.  The predicate's whole shard
    is scanned only when *atom* pins and bounds nothing, when the pinned
    value is unhashable (the index cannot look it up), or under the
    reference configuration ``hash_join_index=False``.  A probe is counted
    in ``stats.index_probes``.
    """
    found = _overlap_query(atom, solver, options) if options.hash_join_index else None
    if found is None:
        return view.entries_for(atom.predicate)
    if stats is not None:
        stats.index_probes += 1
    return make_view_probe(view, solver, options)(atom.predicate, *found)


def _overlap_query(
    atom: ConstrainedAtom, solver: ConstraintSolver, options: EngineOptions
) -> Optional[Tuple[int, object]]:
    """The ``(position, query)`` :func:`overlap_candidates` probes with."""
    for position, value in enumerate(
        bound_argument_values(atom.atom.args, atom.constraint)
    ):
        if value is not UNBOUND:
            return position, value
    if options.range_postings:
        for position, interval in enumerate(
            argument_intervals(atom.atom.args, atom.constraint, solver.evaluator)
        ):
            if interval is not None:
                return position, interval_query_from(interval)
    return None


def _without(delta_keys, pool: Sequence) -> tuple:
    """*pool* minus the round's delta entries (the ``old`` pool)."""
    return tuple(entry for entry in pool if entry.key() not in delta_keys)


class _DeferredPool:
    """A positional pool of the indexed join, built only if it is read.

    The indexed join asks a pool whether it is empty for every clause and
    reads its items only for a body position none of whose arguments is
    bound yet, so the length is worked out up front (from the shard's length
    and the delta's keys) and the tuple on first use.  Compares equal to the
    tuple it stands for.  The builder must not refer to the round: a round
    that is its own garbage cycle keeps its view alive until the collector
    finds it.
    """

    __slots__ = ("_size", "_build", "_items")

    def __init__(self, size: int, build: Callable[[], tuple]) -> None:
        self._size = size
        self._build = build
        self._items: Optional[tuple] = None

    def _tuple(self) -> tuple:
        items = self._items
        if items is None:
            items = self._items = self._build()
        return items

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator:
        return iter(self._tuple())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _DeferredPool):
            other = other._tuple()
        return self._tuple() == other

    __hash__ = None  # type: ignore[assignment]


class DeltaRound:
    """One round of *delta* against *view* under a seed policy: the
    selected clauses, their join pools and the probes.

    Iterating yields ``(clause, premises, derived constrained atom)`` for
    every enumerated combination whose clause application succeeds, clause
    by clause in clause-number order.

    **The view must not be mutated until the round has been iterated to the
    end.**  Probes read the view as the iteration reaches them, and under
    the indexed join the positional pools do too (:meth:`pools_for` defers
    them): a round is a function of the view it was built over only while
    that view stands still.  Every consumer collects a round's derivations
    before it applies them (``FixpointEngine._derive_round``, the ``P_ADD``
    loop of ``insert.py``, DRed's ``P_OUT`` loop).
    """

    def __init__(
        self,
        kernel: "DeltaJoinKernel",
        view: MaterializedView,
        delta: Sequence,
        seed: Seed = Seed.IN_VIEW,
    ) -> None:
        self._kernel = kernel
        self._view = view
        self._seed = seed
        # P_OUT atoms only poison body atoms of their own arity; entries
        # inside the view are pooled per predicate, like the view itself.
        self._group = attrgetter(
            "signature" if seed is Seed.FRONTIER else "predicate"
        )
        self._delta: Dict[object, list] = {}
        for item in delta:
            self._delta.setdefault(self._group(item.atom), []).append(item)
        self._delta_keys = (
            {entry.key() for entry in delta} if seed is Seed.IN_VIEW else None
        )
        self._pools: Dict[object, Tuple[tuple, tuple, tuple]] = {}

        # Only clauses whose body references a predicate that gained a delta
        # item can derive anything new.
        selected: Dict[int, Clause] = {}
        for predicate in {item.atom.predicate for item in delta}:
            for clause in kernel.program.clauses_with_body_predicate(predicate):
                selected[clause.number or 0] = clause
        #: The clauses this round evaluates, in clause-number order.
        self.clauses: Tuple[Clause, ...] = tuple(
            selected[number] for number in sorted(selected)
        )

        self._probes: Optional[Tuple[Callable, Callable]] = None
        self._interval_getter: Optional[Callable] = None
        options = kernel.options
        # Indexed only when solvability is checked: the index prunes exactly
        # the combinations whose binding equalities are unsatisfiable, which
        # ``W_P`` must keep (Theorem 4).
        if options.hash_join_index and kernel.check_solvability:
            self._probes = self._make_view_probes()
            # Built once per round, next to the probes: the getter pins the
            # evaluator's version token, which cannot change mid-round.
            if options.range_postings:
                self._interval_getter = make_interval_getter(
                    kernel.solver.evaluator
                )

    def _make_view_probes(self) -> Tuple[Callable, Callable]:
        """Build the ``(probe_old, probe_full)`` pair for indexed delta joins.

        ``probe_full`` resolves a body atom + binding against the view's
        argument index; ``probe_old`` additionally drops the round's delta
        entries (``Seed.IN_VIEW``) so the old pools stay delta-free --
        skipping the filter for predicates without a delta (there old ==
        full) -- and is empty under ``Seed.ALL_DELTA``, where every entry is
        delta.

        With ``options.range_postings`` probes go through the view's
        range-aware :meth:`~repro.datalog.view.MaterializedView.probe_range`
        (consulting the evaluator's ``index_interval`` hooks for DCA-bounded
        positions) and accept :class:`~repro.datalog.view.IntervalQuery`
        overlap queries (only issued with range postings on, see
        ``_interval_getter``); :func:`make_view_probe` makes the choice,
        once for the round.
        """
        stats = self._kernel.stats
        probe = make_view_probe(
            self._view, self._kernel.solver, self._kernel.options
        )

        def probe_full(body_atom: Atom, arg_index: int, value: object):
            stats.index_probes += 1
            return probe(body_atom.predicate, arg_index, value)

        if self._seed is Seed.ALL_DELTA:
            return (lambda body_atom, arg_index, value: ()), probe_full
        delta, delta_keys = self._delta, self._delta_keys
        if not delta_keys:
            return probe_full, probe_full

        def probe_old(body_atom: Atom, arg_index: int, value: object):
            result = probe_full(body_atom, arg_index, value)
            if not delta.get(body_atom.predicate):
                return result
            return tuple(entry for entry in result if entry.key() not in delta_keys)

        return probe_old, probe_full

    def pools_for(self, body_atom: Atom) -> Tuple[Sequence, Sequence, tuple]:
        """The ``(full, old, delta)`` pools of one body atom, cached per round.

        The scan join reads every pool, so it gets tuples.  The indexed join
        gets ``full`` and ``old`` deferred (:class:`_DeferredPool`): a round
        whose every join position is bound by its delta never walks the
        predicate's entries at all.
        """
        group = self._group(body_atom)
        cached = self._pools.get(group)
        if cached is None:
            view, predicate = self._view, body_atom.predicate
            fresh = tuple(self._delta.get(group, ()))
            if self._probes is None:
                full: Sequence = view.entries_for(predicate)
            else:
                shard = view.shard_for(predicate)
                full = _DeferredPool(
                    len(shard) if shard is not None else 0,
                    partial(view.entries_for, predicate),
                )
            if not fresh or self._seed is Seed.FRONTIER:
                old = full
            elif self._seed is Seed.ALL_DELTA:
                old = ()
            elif self._probes is None:
                old = _without(self._delta_keys, full)
            else:
                # Every delta key the shard holds is one entry less.
                keys = {entry.key() for entry in fresh}
                held = sum(map(shard.contains_key, keys)) if shard is not None else 0
                old = _DeferredPool(
                    len(full) - held, partial(_without, self._delta_keys, full)
                )
            cached = self._pools[group] = (full, old, fresh)
        return cached

    def combinations(self, clause: Clause) -> Iterator[tuple]:
        """Premise combinations of *clause* using at least one delta item."""
        pools = [self.pools_for(body_atom) for body_atom in clause.body]
        if any(not full and not fresh for full, _, fresh in pools):
            return iter(())
        full_pools = [full for full, _, _ in pools]
        old_pools = [old for _, old, _ in pools]
        delta_pools = [fresh for _, _, fresh in pools]
        if self._probes is None:
            return iter_delta_joins(old_pools, delta_pools, full_pools)
        return iter_indexed_delta_joins(
            clause.body,
            old_pools,
            delta_pools,
            full_pools,
            *self._probes,
            bound_intervals=self._interval_getter,
        )

    def __iter__(self) -> Iterator[Tuple[Clause, tuple, ConstrainedAtom]]:
        kernel = self._kernel
        for clause in self.clauses:
            # Rename each premise apart once per clause evaluation instead of
            # once per combination: fresh names are globally unique either
            # way, and a premise reused across combinations (or positions)
            # can safely share its renamed copy -- each derived atom is
            # independent.
            renamed_cache: Dict[Tuple[int, int], ConstrainedAtom] = {}
            for premises in self.combinations(clause):
                kernel.stats.derivation_attempts += 1
                derived = kernel.apply_clause(clause, premises, renamed_cache)
                if derived is not None:
                    yield clause, premises, derived


class DeltaJoinKernel:
    """What the rounds of one unfolding share, and the clause application.

    Counts ``derivation_attempts``, ``index_probes``, ``clause_applications``
    and ``solver_calls`` into the caller's *stats* object.
    """

    def __init__(
        self,
        program: ConstrainedDatabase,
        solver: ConstraintSolver,
        options: EngineOptions,
        factory: FreshVariableFactory,
        stats,
        check_solvability: bool = True,
    ) -> None:
        self.program = program
        self.solver = solver
        self.options = options
        self.factory = factory
        self.stats = stats
        self.check_solvability = check_solvability

    def apply_clause(
        self,
        clause: Clause,
        premises: Sequence = (),
        renamed_cache: Optional[Dict[Tuple[int, int], object]] = None,
        onto: Optional[ConstrainedAtom] = None,
        negated: Optional[int] = None,
    ) -> Optional[ConstrainedAtom]:
        """One clause application: the derived head atom, or ``None``.

        A premise (view entry or bare frontier atom) whose constraint is
        nothing but pins covering its arguments contributes a substitution:
        its constants meet the body atom's arguments directly, which is what
        renaming it apart, conjoining and projecting leaves of it.  So does
        a premise over distinct variables whose constraint is a box without
        pins (:func:`_box_arguments`): its comparisons, over the body atom's
        arguments, are what projection leaves of the renamed copy.  When
        every premise does and the clause constraint is ``true``, comparing
        the values decides the application (:meth:`_by_comparison`): no
        fresh name, no intermediate node, no solver call.  Every other
        premise is renamed apart and conjoined with the clause constraint
        and the binding equalities, auxiliary variables are projected away,
        the result is simplified and (when solvability is checked) ``None``
        is returned for an unsolvable combination.

        With *onto* (StDel's parent rebuild) the derivation is tied to that
        entry: the clause is renamed apart from it, ``head = onto's
        arguments`` and onto's constraint join the conjunction, and the
        result -- the part of the entry this derivation accounts for -- is
        over onto's atom.  *negated* (with *onto*) names the body position
        whose premise contributes negated instead: what the entry keeps once
        that premise's instances are gone, never checked for solvability.

        *renamed_cache* (keyed by ``(position, id(premise))``) lets a round
        share renamed premise copies across the combinations of one clause;
        each combination stays mutually renamed apart because distinct
        premises (and distinct positions) get distinct fresh names.
        """
        self.stats.clause_applications += 1
        check = self.check_solvability and negated is None
        pinned = [_pinned_args(premise) for premise in premises]
        if (
            premises
            and clause.constraint is TRUE
            and None not in pinned
            and (onto is not None or negated is None)
        ):
            decided = self._by_comparison(clause, premises, pinned, onto, negated, check)
            if decided is not NotImplemented:
                return decided
        if renamed_cache is None:
            renamed_cache = {}
        head, tied = clause.head, ()
        if onto is not None:
            # Renamed apart so clause-local variables cannot collide with
            # the entry's; both halves of a rebuild share the copy.
            key = (-1, id(clause))
            clause = renamed_cache.get(key) or renamed_cache.setdefault(
                key, clause.renamed_apart(self.factory)
            )
            head = onto.atom
            tied = (tuple_equalities(clause.head.args, head.args), onto.constraint)
        parts: List[Constraint] = [clause.constraint, *tied]
        for position, (body_atom, premise) in enumerate(zip(clause.body, premises)):
            if pinned and position != negated and pinned[position] is not None:
                part = tuple_equalities(pinned[position], body_atom.args)
            elif position != negated and (args := _box_arguments(premise)) is not None:
                part = premise.constraint.substitute(Substitution(dict(zip(args, body_atom.args))))
            else:
                cache_key = (position, id(premise))
                renamed = renamed_cache.get(cache_key)
                if renamed is None:
                    # A premise is a view entry or a bare frontier atom (P_OUT).
                    atom = (
                        premise.constrained_atom
                        if isinstance(premise, ViewEntry)
                        else premise
                    )
                    renamed, _ = atom.renamed_apart(self.factory)
                    renamed_cache[cache_key] = renamed
                part = conjoin(
                    renamed.constraint,
                    tuple_equalities(renamed.atom.args, body_atom.args),
                )
            parts.append(negate(part) if position == negated else part)
        constraint = simplify(
            eliminate_variables(conjoin(*parts), head.variables()),
            self.solver,
            drop_redundant_comparisons=True,
        )
        if check:
            self.stats.solver_calls += 1
            if not self.solver.is_satisfiable(constraint):
                return None
        return ConstrainedAtom(head, constraint)

    def _by_comparison(self, clause, premises, pinned, onto, negated, check):
        """An application of a ``true``-constrained clause to pinned
        premises, decided by comparing values: the atom the pipeline of
        :meth:`apply_clause` would build (the same interned constraint),
        ``None`` for values that definitely clash when solvability is
        checked, ``NotImplemented`` for what only the pipeline reproduces --
        a clash under ``W_P`` (Theorem 4 keeps the entry, in the pipeline's
        form), constants that are equal but not the same node, a rebuild
        onto an entry that is not one pin per variable of its atom.
        """
        bodies, emitted, plain_head = clause.application_plan()
        pairs = list(zip(bodies, pinned))
        if onto is not None:
            # The ties ``head = onto's arguments`` come first in the
            # pipeline: a head constant against an entry variable would pin
            # that variable ahead of the entry's own conjunct.
            parts, ties = onto.constraint.conjuncts(), _pinned_args(onto)
            if (
                ties is None
                or not plain_head
                or len(parts) != len(onto.atom.variables())
                or any(len(part.variables()) != 1 for part in parts)
                or any(
                    mine.__class__ is Constant and theirs.__class__ is Variable
                    for mine, theirs in zip(clause.head.args, onto.atom.args)
                )
            ):
                return NotImplemented
            pairs.insert(0, (clause.head.args, ties))
        bindings: Dict[object, Constant] = {}
        for args, values in pairs:
            for arg, value in zip(args, values):
                bound = arg if arg.__class__ is Constant else bindings.setdefault(arg, value)
                if bound is not value:
                    if check and not _values_compatible(bound.value, value.value):
                        return None
                    return NotImplemented
        if onto is None:
            # ``c = X`` per head variable, in the order the body binds them:
            # what projection and simplification leave of the pins.
            pins = [Comparison(bindings[variable], "=", variable) for variable in emitted]
            return ConstrainedAtom(clause.head, conjoin(*pins))
        if negated is None:
            return onto
        premise = premises[negated]
        if len(premise.atom.args) + len(premise.constraint.conjuncts()) == 1:
            return NotImplemented  # negates to a literal, not to ``not(...)``
        return ConstrainedAtom(onto.atom, FALSE)


def _pinned_args(premise) -> Optional[Tuple[Constant, ...]]:
    """The constant each argument of *premise* equals, when its constraint
    is nothing but pins (``pins_of``) and they cover the arguments."""
    pins = pins_of(premise.constraint)
    if pins is None:
        return None
    try:
        return tuple(
            arg if arg.__class__ is Constant else pins[arg] for arg in premise.atom.args
        )
    except KeyError:
        return None


def _box_arguments(premise) -> Optional[Tuple[Variable, ...]]:
    """The arguments of *premise* when they are distinct variables and its
    constraint is a box over them without pins (``solver.box_of``).  Each
    renamed variable is then projected onto its body argument's term and
    nothing else, so substituting the arguments builds the pipeline's node."""
    args, box = premise.atom.args, box_of(premise.constraint)
    if (
        box is None
        or any(arg.__class__ is not Variable for arg in args)
        or len(set(args)) < len(args)
        or any(variable not in args or op == "=" for variable, op, _ in box)
    ):
        return None
    return args
