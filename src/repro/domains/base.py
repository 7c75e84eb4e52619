"""Domain abstraction: external sources seen as sets of functions.

A *domain* (paper Section 2.1) abstracts a database or software package as

* a set Σ of data objects,
* a set F of functions over Σ (the "predefined functions ... implemented in
  the software package"), and
* relations over Σ (modelled here as boolean/set-valued functions).

The mediator reaches a domain exclusively through *domain calls*
``domain:function(args)`` wrapped in the ``in`` constraint; a call returns a
set of values (possibly infinite, represented intensionally).  The
:class:`DomainRegistry` implements the :class:`~repro.constraints.interfaces.
CallEvaluator` protocol consumed by the constraint solver.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, Mapping, Optional, Tuple

from repro.constraints.interfaces import FrozenResultSet, ResultSetLike
from repro.errors import EvaluationError, UnknownDomainError, UnknownFunctionError


class IntensionalResultSet:
    """A possibly-infinite result set defined by a membership predicate.

    Used for calls like ``arith:greater(2)`` whose value is the set of all
    integers greater than 2: the set cannot be enumerated, but membership,
    emptiness and (optionally) a bounded sample can be answered.
    """

    def __init__(
        self,
        membership: Callable[[object], bool],
        empty: bool = False,
        sample: Optional[Callable[[], Iterable[object]]] = None,
        description: str = "",
    ) -> None:
        self._membership = membership
        self._empty = empty
        self._sample = sample
        self._description = description or "intensional set"

    def contains(self, value: object) -> bool:
        """Membership test."""
        try:
            return bool(self._membership(value))
        except (TypeError, ValueError):
            return False

    def is_finite(self) -> bool:
        """Intensional sets are treated as not enumerable."""
        return False

    def is_empty(self) -> bool:
        """True only when the set is known to be empty."""
        return self._empty

    def iter_values(self) -> Iterator[object]:
        """Iterate a bounded sample if one was provided."""
        if self._sample is None:
            raise EvaluationError(f"cannot enumerate {self._description}")
        return iter(self._sample())

    def size_hint(self) -> Optional[int]:
        """Unknown cardinality."""
        return None

    def __repr__(self) -> str:
        return f"IntensionalResultSet({self._description})"


class _IntegerRange:
    """A ``range`` a function returned (``arith:between``): membership and
    size by arithmetic, so ``between(0, 2**54)`` is never built as a set."""

    __slots__ = ("_range", "_order")

    def __init__(self, values: range) -> None:
        self._range = values
        #: The values in solution-search order, set by that search.
        self._order: Optional[Tuple[object, ...]] = None

    def contains(self, value: object) -> bool:
        # As a set of its ints: a bool by its int value, a float with no fraction.
        integral = isinstance(value, int) or isinstance(value, float) and value.is_integer()
        return integral and int(value) in self._range

    def is_finite(self) -> bool:
        return True

    def is_empty(self) -> bool:
        return not self._range

    def iter_values(self) -> Iterator[object]:
        return iter(self._range)

    def size_hint(self) -> int:
        values = self._range  # (len() overflows past sys.maxsize)
        return max(0, -((values.start - values.stop) // values.step))


def coerce_result(value: object) -> ResultSetLike:
    """Coerce a domain function's return value into a result set.

    * ``ResultSetLike`` objects pass through,
    * ``bool`` maps to ``{True}`` / ``{}`` so that relations can be queried
      with the paper's ``in(true, domain:relation(args))`` idiom,
    * ``None`` maps to the empty set,
    * a ``range`` keeps answering by arithmetic (:class:`_IntegerRange`),
    * sets / frozensets / lists / tuples / iterators become finite sets,
    * any other single value becomes a singleton set.

    Concrete types are tested first: the ``isinstance`` check against the
    runtime-checkable ``ResultSetLike`` protocol inspects every protocol
    member and costs a third of an uncached call, so it is left for values
    that are none of the usual return types.
    """
    if isinstance(value, (FrozenResultSet, IntensionalResultSet)):
        return value
    if value is None:
        return FrozenResultSet()
    if isinstance(value, bool):
        return FrozenResultSet([True]) if value else FrozenResultSet()
    if isinstance(value, (set, frozenset, list, tuple)):
        return FrozenResultSet(value)
    if isinstance(value, range):
        return _IntegerRange(value)
    if isinstance(value, ResultSetLike):
        return value
    if hasattr(value, "__iter__") and not isinstance(value, (str, bytes, Mapping)):
        return FrozenResultSet(value)
    return FrozenResultSet([value])


@dataclass(frozen=True)
class DomainFunction:
    """One callable of a domain, with a human-readable description."""

    name: str
    callable: Callable[..., object]
    description: str = ""
    arity: Optional[int] = None
    #: Optional cheap membership refuter: ``quick_reject(args, value)``
    #: returns True only when *value* is **definitely not** a member of
    #: ``function(args)`` -- decided without running the full call.  The
    #: constraint solver's quick-reject pre-filter consults this to skip
    #: satisfiability checks; a hook that errs on the True side corrupts
    #: view maintenance, one that errs on the False side merely costs a
    #: solver call.
    quick_reject: Optional[Callable[[Tuple[object, ...], object], bool]] = None
    #: Optional range summariser feeding the view's interval range postings:
    #: ``index_interval(args)`` returns ``(low, low_strict, high,
    #: high_strict)`` -- a numeric interval that contains **every** member of
    #: ``function(args)`` **at every time point** -- or ``None`` for "no
    #: bound".  The contract is strict on both axes:
    #:
    #: * *superset*: a member outside the returned interval would let the
    #:   argument index prune a joinable entry, corrupting maintenance;
    #: * *time-invariant*: the hook is consulted when an entry is indexed,
    #:   not when it is probed, so the interval must hold across external
    #:   source changes.  Sources whose result sets drift over time must
    #:   answer ``None`` (the conservative default) unless they can bound
    #:   every future behaviour.
    #:
    #: The bounds are compared as they are returned, exactly: return the
    #: numbers themselves (a ``float()`` rounds ``2**53 + 1``).  A bound that
    #: is not a number counts as no bound.  Arithmetic comparison
    #: constraints (``between``, ``greater``, ...) satisfy both trivially;
    #: see :mod:`repro.domains.arithmetic`.
    index_interval: Optional[
        Callable[[Tuple[object, ...]], Optional[Tuple[object, bool, object, bool]]]
    ] = None

    def invoke(self, args: Tuple[object, ...]) -> ResultSetLike:
        """Call the function and coerce its result into a result set."""
        if self.arity is not None and len(args) != self.arity:
            raise EvaluationError(
                f"function {self.name!r} expects {self.arity} arguments, "
                f"got {len(args)}"
            )
        try:
            result = self.callable(*args)
        except (UnknownDomainError, UnknownFunctionError, EvaluationError):
            raise
        except Exception as exc:
            raise EvaluationError(
                f"domain function {self.name!r} failed on {args!r}: {exc}"
            ) from exc
        return coerce_result(result)


class Domain:
    """A named collection of domain functions."""

    def __init__(self, name: str, description: str = "") -> None:
        if not name:
            raise EvaluationError("domains need a name")
        self._name = name
        self._description = description
        self._functions: Dict[str, DomainFunction] = {}
        self._source_counter = 0

    @property
    def name(self) -> str:
        """The domain's name as used in domain calls."""
        return self._name

    @property
    def description(self) -> str:
        """Human-readable description of what this domain wraps."""
        return self._description

    def register(
        self,
        name: str,
        callable: Callable[..., object],
        description: str = "",
        arity: Optional[int] = None,
        quick_reject: Optional[Callable[[Tuple[object, ...], object], bool]] = None,
        index_interval: Optional[
            Callable[[Tuple[object, ...]], Optional[Tuple[object, bool, object, bool]]]
        ] = None,
    ) -> DomainFunction:
        """Register a function; replaces any previous function of that name."""
        function = DomainFunction(
            name, callable, description, arity, quick_reject, index_interval
        )
        self._functions[name] = function
        self._bump_source()
        return function

    def function(self, name: str) -> DomainFunction:
        """Look up a function; raises :class:`UnknownFunctionError`."""
        try:
            return self._functions[name]
        except KeyError as exc:
            raise UnknownFunctionError(
                f"domain {self._name!r} has no function {name!r} "
                f"(available: {sorted(self._functions)})"
            ) from exc

    def has_function(self, name: str) -> bool:
        """True when a function with this name is registered."""
        return name in self._functions

    def function_names(self) -> Tuple[str, ...]:
        """Names of all registered functions, sorted."""
        return tuple(sorted(self._functions))

    def call(self, function: str, args: Tuple[object, ...]) -> ResultSetLike:
        """Execute ``function(args)`` within this domain."""
        return self.function(function).invoke(args)

    # -- source versioning ---------------------------------------------------
    def _bump_source(self) -> None:
        """Record that the domain's observable behaviour may have changed."""
        self._source_counter += 1

    def source_version(self) -> object:
        """A token that changes whenever the domain's behaviour can change.

        The base implementation counts function (re)registrations and
        explicit :meth:`_bump_source` calls; subclasses fold in whatever
        state their functions actually read (a database version, a clock,
        a mutable scenario).  :meth:`DomainRegistry.versions_of` hands
        these tokens to the solver, which is what makes remembering
        DCA-dependent results safe.
        """
        return self._source_counter

    def registration_version(self) -> object:
        """A token that changes only when the *function set* changes.

        Counts (re)registrations, behaviour installs and explicit
        :meth:`_bump_source` calls -- but, unlike :meth:`source_version`,
        never folds in live source state (clock time, database versions):
        subclasses do not override it.  This is the right gate for caches
        of ``index_interval`` hook results, which are contractually
        time-invariant but do change when a different hook is installed.
        """
        return self._source_counter

    def __repr__(self) -> str:
        return f"Domain({self._name!r}, functions={list(self.function_names())})"


#: Results one domain's call memo holds before it is cleared wholesale (the
#: solver's memos use the same branch-free policy).
MAX_MEMOIZED_CALLS_PER_DOMAIN = 65_536


class _Source:
    """One registered domain: its call memo, notice epoch and counters."""

    __slots__ = ("domain", "epoch", "memo", "calls", "memo_hits")

    def __init__(self, domain: Domain, epoch: int) -> None:
        self.domain = domain
        self.calls = 0
        self.memo_hits = 0
        self.forget(epoch)

    def forget(self, epoch: int) -> None:
        """Drop every remembered result and move to a never-used version."""
        self.epoch = epoch
        #: ``(version the results were filed under, key -> result)``; one
        #: object, so a reader that raced a version change stores into the
        #: table it looked at and never into its successor.
        self.memo: Tuple[object, Dict[object, ResultSetLike]] = (None, {})

    def version(self) -> object:
        """What a result of this domain is valid under.

        The domain's own :meth:`Domain.source_version` (tracked changes)
        paired with the registry-side epoch that change notices and
        (re-)registration advance (changes nothing else can see).
        """
        return (self.epoch, self.domain.source_version())


class DomainRegistry:
    """The mediator's collection of integrated domains.

    Implements the solver-facing :class:`CallEvaluator` protocol.

    **Call memo and the change-notice contract.**  With ``cache_calls=True``
    (what every :class:`~repro.mediator.Mediator`-built registry passes; a
    bare registry stays uncached) the result of a ground call is remembered
    *per domain*, filed under the version that domain reported before the
    call, and served while that one domain's version stands -- a change to
    one source re-executes that source's calls only.  Two kinds of source
    follow:

    * a **tracked** source folds whatever its functions read into
      :meth:`Domain.source_version` (a table version, a clock, a mutation
      counter -- every domain shipped here does) and publishes its data
      *before* its version.  It needs no notice for correctness: the next
      call sees the new version and the stale table is dropped.
    * an **untracked** source (a function reading state the domain does not
      version) needs exactly one thing: a change notice naming it --
      :class:`~repro.stream.ExternalChangeNotice` through the stream, or
      ``on_source_changed`` of the Section-4 maintenance classes -- which
      ends in :meth:`source_changed` and advances that domain's epoch.
      Until the notice arrives reads keep the remembered answer.

    :meth:`versions_of` exposes the same per-domain versions to the solver,
    which gates everything it remembers about a constraint on exactly the
    domains the constraint names.
    """

    def __init__(self, domains: Iterable[Domain] = (), cache_calls: bool = False) -> None:
        self._sources: Dict[str, _Source] = {}
        self._sorted_sources: Tuple[_Source, ...] = ()
        self._cache_calls = cache_calls
        self._mutation_counter = 0
        # Epochs are registry-wide and never reused, so a name that is
        # unregistered and registered again cannot repeat an old version.
        self._epochs = itertools.count()
        for domain in domains:
            self.register(domain)

    # -- registration ------------------------------------------------------
    def register(self, domain: Domain) -> Domain:
        """Add a domain; replaces any previous domain with the same name."""
        source = self._sources.get(domain.name)
        if source is None:
            self._sources[domain.name] = _Source(domain, next(self._epochs))
        else:
            source.domain = domain
        self._sort_sources()
        self.invalidate_cache()
        return domain

    def unregister(self, name: str) -> None:
        """Remove a domain."""
        if name not in self._sources:
            raise UnknownDomainError(f"unknown domain: {name!r}")
        del self._sources[name]
        self._sort_sources()
        self.invalidate_cache()

    def _sort_sources(self) -> None:
        self._sorted_sources = tuple(
            self._sources[name] for name in sorted(self._sources)
        )

    def _source(self, name: str) -> _Source:
        try:
            return self._sources[name]
        except KeyError as exc:
            raise UnknownDomainError(
                f"unknown domain: {name!r} (registered: {sorted(self._sources)})"
            ) from exc

    def domain(self, name: str) -> Domain:
        """Look up a domain; raises :class:`UnknownDomainError`."""
        return self._source(name).domain

    def domain_names(self) -> Tuple[str, ...]:
        """Names of all registered domains, sorted."""
        return tuple(sorted(self._sources))

    def __contains__(self, name: str) -> bool:
        return name in self._sources

    # -- CallEvaluator protocol ---------------------------------------------
    def has_domain(self, domain: str) -> bool:
        """True when the named domain is registered."""
        return domain in self._sources

    def evaluate_call(
        self, domain: str, function: str, args: Tuple[object, ...]
    ) -> ResultSetLike:
        """Execute ``domain:function(args)``, or serve its remembered result.

        The domain's version is read *before* the function runs and the
        result is stored in the table of that version: a result computed
        while the source changes underneath the call is filed under the
        version that just passed (sources publish data before version) and
        is dropped with it, never served.  Arguments are keyed together
        with their types -- ``1``, ``True`` and ``1.0`` are one dict key
        but three different calls -- and an unhashable argument bypasses
        the memo.
        """
        source = self._source(domain)
        source.calls += 1
        args = tuple(args)
        results: Optional[Dict[object, ResultSetLike]] = None
        if self._cache_calls:
            version = source.version()
            memo = source.memo
            if memo[0] != version:
                memo = source.memo = (version, {})
            key = (function, args, tuple(map(type, args)))
            try:
                cached = memo[1].get(key)
                results = memo[1]
            except TypeError:  # an unhashable argument: answer uncached
                cached = None
            if cached is not None:
                source.memo_hits += 1
                return cached
        result = source.domain.call(function, args)
        if results is not None:
            if len(results) >= MAX_MEMOIZED_CALLS_PER_DOMAIN:
                results.clear()
            results[key] = result
        return result

    def quick_reject(
        self, domain: str, function: str, args: Tuple[object, ...], value: object
    ) -> bool:
        """Consult a function's ``quick_reject`` hook, defaulting to False.

        Part of the solver-facing evaluator surface: True means *value* is
        definitely not a member of ``domain:function(args)``, so a
        satisfiability check involving that DCA-atom can be skipped.  Unknown
        domains, functions without a hook, and hook errors all answer False
        (no opinion).
        """
        hook = self._hook(domain, function, "quick_reject")
        if hook is None:
            return False
        try:
            return bool(hook(tuple(args), value))
        except Exception:
            return False

    def index_interval(
        self, domain: str, function: str, args: Tuple[object, ...]
    ) -> Optional[Tuple[object, bool, object, bool]]:
        """Consult a function's ``index_interval`` hook, defaulting to ``None``.

        Part of the evaluator surface the view's range postings consume: a
        non-``None`` result is a time-invariant numeric interval containing
        every member ``domain:function(args)`` can ever have (see
        :class:`DomainFunction` for the full contract).  Unknown domains,
        functions without a hook, and hook errors all answer ``None`` (no
        bound), which merely keeps the entry in the always-returned bucket.
        """
        hook = self._hook(domain, function, "index_interval")
        if hook is None:
            return None
        try:
            return hook(tuple(args))
        except Exception:
            return None

    def _hook(self, domain: str, function: str, name: str) -> Optional[Callable]:
        source = self._sources.get(domain)
        if source is None or not source.domain.has_function(function):
            return None
        return getattr(source.domain.function(function), name)

    # -- cache management ----------------------------------------------------
    def source_changed(self, source: Optional[str] = None) -> None:
        """Act on a change notice: forget what *source* was remembered to say.

        Advances the named domain's epoch, which drops its call memo and
        invalidates everything gated on its version (see the class
        docstring).  A name that is not a registered domain -- a table
        name, an empty notice, ``None`` -- cannot be attributed, so every
        domain is treated as changed.
        """
        named = self._sources.get(source) if source else None
        for changed in (named,) if named is not None else self._sorted_sources:
            changed.forget(next(self._epochs))

    def invalidate_cache(self) -> None:
        """Drop all memoized call results (call after any source update)."""
        self.source_changed()
        self._mutation_counter += 1

    def call_counters(self) -> Dict[str, Dict[str, int]]:
        """Per-domain totals: calls made, served from the memo, executed."""
        return {
            source.domain.name: {
                "calls": source.calls,
                "memo_hits": source.memo_hits,
                "executed": source.calls - source.memo_hits,
            }
            for source in self._sorted_sources
        }

    def versions_of(self, domains: Iterable[str]) -> Tuple[object, ...]:
        """The current version of each named domain, in the order given.

        ``None`` stands for a name that is not registered (registering it
        later is a change like any other).  This is the gate of every
        per-domain memo: the call memo compares one of these per call, the
        solver's memos the tuple for the domains a constraint names.
        """
        sources = self._sources
        return tuple(
            sources[name].version() if name in sources else None for name in domains
        )

    @property
    def version(self) -> object:
        """A token that changes whenever any integrated source may have.

        Aggregates the registry's own mutation counter (registrations,
        explicit invalidations) with every domain's version (its
        :meth:`Domain.source_version` and its change-notice epoch).  The
        whole-registry reading of :meth:`versions_of`; memos gate on that
        method, per domain.
        """
        return (
            self._mutation_counter,
            tuple(source.version() for source in self._sorted_sources),
        )

    @property
    def registration_version(self) -> object:
        """A token that changes only when registered functions change.

        Aggregates the registry's own mutation counter with every domain's
        :meth:`Domain.registration_version` -- deliberately *excluding*
        live source state, so external data changes (clock advances,
        database updates) do not thrash caches of time-invariant hook
        results such as the view's interval range postings.
        """
        return (
            self._mutation_counter,
            tuple(
                source.domain.registration_version()
                for source in self._sorted_sources
            ),
        )
