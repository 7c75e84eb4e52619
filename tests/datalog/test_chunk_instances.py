"""A shard chunk's remembered instances are never stale.

A chunk of a shard's entry sequence (at most 64 slots) whose constraints
name no source remembers the value tuples of its entries' instances the
first time a read without a universe enumerates it; a write that reaches
the chunk in place forgets them, and a copied or compacted chunk starts
without them.  Random add / remove / replace / prune histories, with
``copy()`` clones standing for the published and the working view and reads
interleaved on both, hold every ``instances_for`` and ``instances()`` to a
fresh per-entry union.  Every source-free entry has instances of its own,
so a stale chunk cannot hide behind a neighbour's values.  A few entries
read a toy versioned source that the history toggles between reads: they
are never served stale, and a chunk holding one is never remembered.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.constraints import ConstraintSolver, Variable, compare, conjoin, equals, member
from repro.datalog import Atom, MaterializedView, Support, ViewEntry
from repro.datalog.atoms import ConstrainedAtom
from repro.domains import Domain, DomainRegistry

X = Variable("X")

PREDICATES = ("p", "q")

MEMBER = member(X, "toy", "vals")


def source_free(kind: int, serial: int):
    """A constraint whose instances only entry *serial* has: a pinned value,
    a range, or (unsolvable, pruned) a contradiction."""
    if kind == 0:
        return equals(X, serial)
    if kind == 1:
        return conjoin(compare(X, ">=", 10 * serial), compare(X, "<=", 10 * serial + 2))
    return conjoin(equals(X, serial), equals(X, serial + 1))


class ToySource(Domain):
    """``toy:vals()``: a set of values that versions its data."""

    def __init__(self) -> None:
        super().__init__("toy")
        self.data_version = 0
        self.values = frozenset({1, 2})
        self.register("vals", lambda: set(self.values))

    def toggle(self) -> None:
        self.values = frozenset({1, 2}) if 7 in self.values else frozenset({2, 7})
        self.data_version += 1

    def source_version(self) -> object:
        return (super().source_version(), self.data_version)


def fresh_union(items, registry: DomainRegistry, predicate=None):
    """The instances of *items* read one by one through fresh atoms and a
    fresh solver: nothing remembered from an earlier read."""
    solver = ConstraintSolver(registry)
    return frozenset(
        (entry.predicate, values)
        for entry in items
        if predicate in (None, entry.predicate)
        for _, values in ConstrainedAtom(entry.atom, entry.constraint).instances(solver)
    )


def remembered_chunks(view: MaterializedView):
    """``(chunk, remembered set)`` of every shard chunk of *view*."""
    for predicate in PREDICATES:
        shard = view.shard_for(predicate)
        for chunk in shard._chunks if shard is not None else ():
            yield chunk, chunk.instances


#: Each operation is followed, or not, by a read of both views.
operations = st.lists(
    st.tuples(st.one_of(
        # n source-free entries of one predicate, kinds cycled from start
        st.tuples(st.just("add"), st.integers(0, 1), st.integers(0, 2), st.integers(1, 70)),
        # one entry of one predicate that reads the toy source
        st.tuples(st.just("member"), st.integers(0, 1)),
        # n entries from a position on
        st.tuples(st.just("remove"), st.integers(0, 200), st.integers(1, 80)),
        st.tuples(st.just("replace"), st.integers(0, 200), st.integers(0, 3)),
        st.tuples(st.just("prune")),
        st.tuples(st.just("publish")),
        st.tuples(st.just("toggle")),
    ), st.booleans()),
    min_size=1,
    max_size=30,
)


@settings(max_examples=60, deadline=None)
@given(operations)
def test_every_read_equals_a_fresh_per_entry_union(ops):
    toy = ToySource()
    registry = DomainRegistry([toy])
    solver = ConstraintSolver(registry)
    views = {"working": MaterializedView(), "published": MaterializedView()}
    models = {"working": [], "published": []}
    serials = iter(range(1, 10**6))

    def check(name: str) -> None:
        view, items = views[name], models[name]
        assert view.entries == tuple(items)
        for predicate in PREDICATES:
            assert view.instances_for(predicate, solver) == {
                values for _, values in fresh_union(items, registry, predicate)
            }
        assert view.instances(solver) == fresh_union(items, registry)
        for chunk, remembered in remembered_chunks(view):
            live = [entry for entry in chunk if entry is not None]
            if any(entry.constraint._membership for entry in live):
                assert remembered is None
            elif remembered is not None:
                assert remembered == {values for _, values in fresh_union(live, registry)}

    for operation, read in ops:
        kind = operation[0]
        working, items = views["working"], models["working"]
        if kind in ("add", "member"):
            if kind == "add":
                _, predicate, start, count = operation
                kinds = [(start + offset) % 3 for offset in range(count)]
            else:
                _, predicate = operation
                kinds = [None]
            for chosen in kinds:
                serial = next(serials)
                constraint = MEMBER if chosen is None else source_free(chosen, serial)
                entry = ViewEntry(Atom(PREDICATES[predicate], (X,)), constraint, Support(serial))
                assert working.add(entry)
                items.append(entry)
        elif kind == "remove":
            _, position, count = operation
            for entry in items[position:position + count]:
                assert working.remove(entry)
            del items[position:position + count]
        elif kind == "replace":
            _, position, chosen = operation
            if position < len(items):
                constraint = MEMBER if chosen == 3 else source_free(chosen, next(serials))
                new = items[position].with_constraint(constraint)
                if working.replace(items[position], new):
                    items[position] = new
        elif kind == "prune":
            working.prune_unsolvable(solver)
            items[:] = [entry for entry in items if solver.is_satisfiable(entry.constraint)]
        elif kind == "publish":
            views["published"] = working.copy()
            models["published"] = list(items)
        else:
            toy.toggle()
        if read:
            check("working")
            check("published")
    check("working")
    check("published")


def test_a_write_forgets_only_the_chunk_it_reaches():
    view = MaterializedView(
        ViewEntry(Atom("p", (X,)), equals(X, value), Support(value + 1))
        for value in range(130)
    )
    assert view.instances_for("p") == {(value,) for value in range(130)}
    first, second, third = view.shard_for("p")._chunks
    assert first.instances == {(value,) for value in range(64)}
    published = view.copy()
    view.remove(next(iter(view)))
    clone = view.shard_for("p")._chunks
    assert clone[0] is not first and clone[0].instances is None  # copied
    assert clone[1] is second and second.instances is not None  # shared
    assert published.instances_for("p") == {(value,) for value in range(130)}
    assert view.instances_for("p") == {(value,) for value in range(1, 130)}
    owned = view.shard_for("p")._chunks[0]
    view.remove(view.entries_for("p")[0])  # owned now: written in place
    assert view.shard_for("p")._chunks[0] is owned and owned.instances is None
    assert view.instances_for("p") == {(value,) for value in range(2, 130)}
    # Compaction rewrites the sequence into new chunks, none remembered.
    assert view.instances_for("p") == {(value,) for value in range(2, 130)}
    for entry in view.entries_for("p")[:64]:  # the last leaves dead > live
        view.remove(entry)
    assert view.shard_for("p")._dead == 0
    assert all(chunk.instances is None for chunk in view.shard_for("p")._chunks)
    assert view.instances_for("p") == {(value,) for value in range(66, 130)}
