"""Property tests for the predicate-sharded view storage.

The monolithic ``MaterializedView`` became a copy-on-write façade over
per-predicate :class:`~repro.datalog.view.PredicateShard` objects; these
tests pin the refactor: after any random ``add`` / ``remove`` / ``replace``
/ ``prune_unsolvable`` sequence interleaved across several predicates, the
sharded store must match a naive monolithic reference entry-for-entry
(global insertion order included) and snapshot-for-snapshot, copies taken
mid-sequence must stay frozen while the original keeps mutating (the
copy-on-write contract), and probes must agree with a freshly rebuilt
monolithic view.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.constraints import ConstraintSolver, Variable, compare, conjoin, equals
from repro.constraints.terms import FreshVariableFactory
from repro.datalog import Atom, MaterializedView, Support, ViewEntry
from repro.datalog.view import IntervalQuery
from repro.errors import ProgramError, ShardSanitizerError

X = Variable("X")

PREDICATES = ("a", "b", "c")

LEAF = [Support(number) for number in range(1, 4)]
SUPPORTS = LEAF + [
    Support(5, (LEAF[0], LEAF[1])),
    Support(6, (LEAF[2],)),
    Support(6, (LEAF[0], LEAF[0])),
]

UNSOLVABLE = conjoin(equals(X, 1), equals(X, 2))
CONSTRAINTS = [
    equals(X, 0),
    equals(X, 1),
    equals(X, 3),
    compare(X, ">=", 3),
    conjoin(compare(X, ">=", 1), compare(X, "<=", 7)),
    conjoin(compare(X, ">", 4), compare(X, "<", 9)),
    UNSOLVABLE,
]


def owner(index: int) -> str:
    """The one predicate a drawn support derives: a support names one
    derivation, and the view refuses a second predicate under it.  Children
    are still shared across shards (``LEAF[0]`` is a premise under ``a``
    and ``c``)."""
    return PREDICATES[index % len(PREDICATES)]


entries = st.builds(
    lambda constraint_index, support_index: ViewEntry(
        Atom(owner(support_index), (X,)),
        CONSTRAINTS[constraint_index],
        SUPPORTS[support_index],
    ),
    constraint_index=st.integers(min_value=0, max_value=len(CONSTRAINTS) - 1),
    support_index=st.integers(min_value=0, max_value=len(SUPPORTS) - 1),
)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), entries),
        st.tuples(st.just("remove"), entries),
        st.tuples(
            st.just("replace"),
            entries,
            st.integers(min_value=0, max_value=len(CONSTRAINTS) - 1),
        ),
        st.tuples(st.just("prune"), st.none()),
        st.tuples(st.just("copy"), st.none()),
    ),
    min_size=1,
    max_size=40,
)


class MonolithicModel:
    """The pre-shard semantics, as a plain ordered list of entries."""

    def __init__(self) -> None:
        self.items: list = []

    def _find(self, key):
        for index, existing in enumerate(self.items):
            if existing.key() == key:
                return index
        return None

    def add(self, entry) -> None:
        if self._find(entry.key()) is None:
            self.items.append(entry)

    def remove(self, entry) -> None:
        index = self._find(entry.key())
        if index is not None:
            del self.items[index]

    def replace(self, old, new) -> None:
        index = self._find(old.key())
        if index is None:
            return
        new_key = new.key()
        if new_key != old.key() and self._find(new_key) is not None:
            del self.items[index]  # merge: identical entry already present
            return
        self.items[index] = new

    def prune(self, solver) -> None:
        self.items = [
            entry for entry in self.items if solver.is_satisfiable(entry.constraint)
        ]


def assert_matches_model(view: MaterializedView, model: MonolithicModel, solver):
    reference = MaterializedView(model.items)
    # Entry-for-entry, in global insertion order, across all shards.
    assert view.entries == tuple(model.items)
    assert len(view) == len(model.items)
    assert view.predicates() == reference.predicates()
    for predicate in PREDICATES:
        expected = tuple(e for e in model.items if e.predicate == predicate)
        assert view.entries_for(predicate) == expected
    for entry in model.items:
        assert entry in view
    # Snapshot-for-snapshot against the freshly-rebuilt monolithic view.
    assert view.argument_index_snapshot() == reference.argument_index_snapshot()
    assert view.child_support_snapshot() == reference.child_support_snapshot()
    # Support lookups merge shards back into global insertion order.
    for support in SUPPORTS:
        expected_all = tuple(e for e in model.items if e.support == support)
        assert view.find_all_by_support(support) == expected_all
        assert view.find_by_support(support) == (
            expected_all[0] if expected_all else None
        )
    # Probes agree with the rebuilt monolithic view (same entries, same
    # insertion order, same lazily-built indexes).
    for predicate in PREDICATES:
        for value in (0, 1, 3, 99):
            assert view.probe(predicate, 0, value) == reference.probe(
                predicate, 0, value
            )
            assert view.probe_range(predicate, 0, value) == reference.probe_range(
                predicate, 0, value
            )
        query = IntervalQuery(2.0, False, 6.0, False)
        assert view.probe_range(predicate, 0, query) == reference.probe_range(
            predicate, 0, query
        )
    assert view.range_posting_snapshot() == reference.range_posting_snapshot()


@settings(max_examples=60, deadline=None)
@given(operations)
def test_sharded_store_matches_monolithic_reference(ops):
    solver = ConstraintSolver()
    view = MaterializedView()
    model = MonolithicModel()
    frozen = []  # (copy-on-write copy, frozen model state) checkpoints
    for operation in ops:
        kind = operation[0]
        if kind == "add":
            view.add(operation[1])
            model.add(operation[1])
        elif kind == "remove":
            view.remove(operation[1])
            model.remove(operation[1])
        elif kind == "replace":
            entry = operation[1]
            if entry in view:
                live = next(e for e in view if e.key() == entry.key())
                replacement = live.with_constraint(CONSTRAINTS[operation[2]])
                view.replace(live, replacement)
                model.replace(live, replacement)
        elif kind == "prune":
            view.prune_unsolvable(solver)
            model.prune(solver)
        else:  # copy checkpoint: must stay frozen while the original mutates
            frozen.append((view.copy(), tuple(model.items)))
    assert_matches_model(view, model, solver)
    for copied, items in frozen:
        assert copied.entries == items
        # Reads on the copy (including lazy index builds) never leak into
        # the original, and vice versa.
        copied.child_support_snapshot()
        for predicate in PREDICATES:
            copied.probe_range(predicate, 0, IntervalQuery(0.0, False, 9.0, False))
        assert copied.entries == items
    assert_matches_model(view, model, solver)


def make_entry(predicate: str, constraint, number: int) -> ViewEntry:
    return ViewEntry(Atom(predicate, (X,)), constraint, Support(number))


def test_a_second_predicate_under_a_live_support_is_refused():
    # Lemma 1 as the store enforces it: a support names one derivation, so
    # it names one predicate.  Checked against the update alone, before the
    # shard is touched; a same-predicate twin (what a DRed pass can leave
    # beside a narrowed entry) is still two entries.
    view = MaterializedView([make_entry("a", equals(X, 1), 1)])
    unit = view.checkout(PREDICATES)
    for target in (view, unit):
        with pytest.raises(ProgramError, match="derives 'a', not 'b'"):
            target.add(make_entry("b", equals(X, 1), 1))
        assert target.predicates() == ("a",)
    assert view.add(make_entry("a", equals(X, 2), 1))
    assert len(view.find_all_by_support(Support(1))) == 2


class TestCopyOnWrite:
    def test_copy_shares_shards_until_either_side_writes(self):
        view = MaterializedView()
        view.add(make_entry("a", equals(X, 1), 1))
        view.add(make_entry("b", equals(X, 2), 2))
        snapshot = view.copy()
        assert snapshot.shard_for("a") is view.shard_for("a")
        before = view.shard_checkouts
        view.add(make_entry("a", equals(X, 3), 3))
        # The write cloned exactly one shard; the untouched one stays shared.
        assert view.shard_checkouts == before + 1
        assert snapshot.shard_for("a") is not view.shard_for("a")
        assert snapshot.shard_for("b") is view.shard_for("b")
        assert [str(e) for e in snapshot.entries_for("a")] == [
            str(make_entry("a", equals(X, 1), 1))
        ]

    def test_mutating_the_copy_leaves_the_original_alone(self):
        view = MaterializedView()
        entry = make_entry("a", equals(X, 1), 1)
        view.add(entry)
        copied = view.copy()
        copied.remove(entry)
        assert len(copied) == 0
        assert view.entries == (entry,)

    def test_checkout_fences_writes_to_the_scope(self):
        view = MaterializedView()
        view.add(make_entry("a", equals(X, 1), 1))
        scoped = view.checkout(["a"])
        scoped.add(make_entry("a", equals(X, 5), 5))  # inside: fine
        with pytest.raises(ProgramError):
            scoped.add(make_entry("b", equals(X, 2), 2))
        # Reads outside the scope stay allowed.
        assert scoped.entries_for("b") == ()
        # The fence survives the copies the maintenance algorithms take.
        inner = scoped.copy()
        with pytest.raises(ProgramError):
            inner.add(make_entry("c", equals(X, 3), 3))
        assert inner.without_write_scope().add(make_entry("c", equals(X, 3), 3))

    def test_lazy_index_build_on_shared_shard_is_invisible_to_the_sibling(self):
        view = MaterializedView()
        view.add(
            make_entry("a", conjoin(compare(X, ">=", 0), compare(X, "<=", 5)), 1)
        )
        copied = view.copy()
        # Build postings + child index through the copy (reads on a shared
        # shard)...
        copied.probe_range("a", 0, 3)
        copied.find_parents_of(Support(1))
        # ...the original's snapshots are unchanged (argument snapshot is
        # build-independent by construction; entries untouched).
        assert view.entries == copied.entries
        assert view.argument_index_snapshot() == copied.argument_index_snapshot()


# ----------------------------------------------------------------------
# Variable-name tables (what fresh-name reservation reads instead of a scan)
# ----------------------------------------------------------------------
NAME_POOL = [Variable(name) for name in ("X", "Y", "Z", "X_1", "V_2", "Y_3")]

named_entries = st.builds(
    lambda head, left, right, value, number: ViewEntry(
        Atom(owner(number), (NAME_POOL[head],)),
        conjoin(equals(NAME_POOL[left], value), compare(NAME_POOL[right], ">=", 0)),
        Support(number),
    ),
    head=st.integers(min_value=0, max_value=2),
    left=st.integers(min_value=0, max_value=len(NAME_POOL) - 1),
    right=st.integers(min_value=0, max_value=len(NAME_POOL) - 1),
    value=st.integers(min_value=0, max_value=3),
    number=st.integers(min_value=1, max_value=4),
)

name_operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), named_entries),
        st.tuples(st.just("remove"), st.integers(min_value=0, max_value=30)),
        st.tuples(
            st.just("replace"), st.integers(min_value=0, max_value=30), named_entries
        ),
        st.tuples(st.just("names"), st.sampled_from(PREDICATES)),
        st.tuples(st.just("copy"), st.none()),
        st.tuples(st.just("checkout"), st.none()),
        st.tuples(st.just("publish"), named_entries),
        st.tuples(st.just("import"), st.none()),
    ),
    min_size=1,
    max_size=40,
)


def scanned_names(view: MaterializedView, predicates=None):
    return frozenset(
        variable.name
        for entry in view
        if predicates is None or entry.predicate in predicates
        for variable in entry.constrained_atom.variables()
    )


def assert_names_match_scan(view: MaterializedView) -> None:
    assert view.all_variable_names() == scanned_names(view)
    for predicate in PREDICATES:
        assert view.all_variable_names([predicate]) == scanned_names(view, {predicate})
    assert view.all_variable_names(PREDICATES[:2]) == scanned_names(
        view, set(PREDICATES[:2])
    )
    # Reserved-name semantics: the tables, read in place, give the factory
    # exactly the names a copied scan would.
    from_tables = FreshVariableFactory((), view.variable_name_tables())
    from_scan = FreshVariableFactory(scanned_names(view))
    for base in ("X", "V", "Y", "X", "V", "Y", "Z"):
        assert from_tables.fresh(base) == from_scan.fresh(base)


@settings(max_examples=80, deadline=None)
@given(name_operations)
def test_name_tables_match_a_scan_after_any_mutation_sequence(ops):
    view = MaterializedView()
    frozen = []  # views left behind by copy / checkout / publish, with their names
    for operation in ops:
        kind = operation[0]
        live = view.entries
        if kind == "add":
            view.add(operation[1])
        elif kind == "remove" and live:
            view.remove(live[operation[1] % len(live)])
        elif kind == "replace" and live:
            old = live[operation[1] % len(live)]
            new = operation[2]
            view.replace(old, ViewEntry(old.atom, new.constraint, old.support))
        elif kind == "names":
            # Builds the predicate's table now, so that later mutations have
            # to keep it current (tables are lazy until first asked for).
            assert view.all_variable_names([operation[1]]) == scanned_names(
                view, {operation[1]}
            )
        elif kind == "copy":
            frozen.append((view, scanned_names(view)))
            view = view.copy()
        elif kind == "checkout":
            frozen.append((view, scanned_names(view)))
            view = view.checkout(PREDICATES)
        elif kind == "publish":
            # What a commit does: a unit writes its checkout, and the
            # checkout, unfenced, becomes the next view.
            entry = operation[1]
            unit = view.checkout([entry.predicate])
            unit.add(entry)
            frozen.append((view, scanned_names(view)))
            view = unit.without_write_scope()
        elif kind == "import":
            rebuilt = MaterializedView()
            for predicate in view.predicates():
                rebuilt.import_shard_rows(predicate, view.export_shard_rows(predicate))
            view = rebuilt
    assert_names_match_scan(view)
    for left_behind, names in frozen:
        assert left_behind.all_variable_names() == names
    assert_names_match_scan(view)


def test_a_write_to_a_shared_shards_name_table_trips_the_sanitizer(monkeypatch):
    monkeypatch.setenv("REPRO_SHARD_SANITIZER", "1")
    view = MaterializedView()
    old = make_entry("a", equals(X, 1), 1)
    view.add(old)
    assert view.all_variable_names() == {"X"}  # the table exists from here on
    published = view.copy()  # arms the shard both views now reference
    shard = view.shard_for("a")
    new = ViewEntry(Atom("a", (NAME_POOL[1],)), equals(NAME_POOL[1], 2), Support(2))
    with pytest.raises(ShardSanitizerError):
        shard.add(new.key(), new)
    with pytest.raises(ShardSanitizerError):
        shard.remove(old.key(), old)
    with pytest.raises(ShardSanitizerError):
        shard.replace(old.key(), new.key(), old, new)
    assert shard.variable_names() == {"X": 1}
    # Through the façade the write goes to a clone, table included.
    assert view.add(new)
    assert view.all_variable_names() == {"X", "Y"}
    assert published.all_variable_names() == {"X"}


# ----------------------------------------------------------------------
# Structural sharing: a clone shares its tables with the shard it was cloned
# from, part by part, and a write copies only the containers it reaches
# ----------------------------------------------------------------------
#: Several entries of one predicate under one support (a narrowed entry and
#: its rederived twins), and derivations built on it: groups with many members.
SHARED = Support(0)
SHARING_SUPPORTS = SUPPORTS + [SHARED, Support(7, (SHARED,)), Support(8, (SHARED, LEAF[0]))]
PROBE_WINDOW = IntervalQuery(2.0, False, 6.0, False)

sharing_entries = st.builds(
    lambda constraint_index, support_index: ViewEntry(
        Atom(owner(support_index), (X,)),
        CONSTRAINTS[constraint_index],
        SHARING_SUPPORTS[support_index],
    ),
    constraint_index=st.integers(min_value=0, max_value=len(CONSTRAINTS) - 1),
    support_index=st.integers(min_value=0, max_value=len(SHARING_SUPPORTS) - 1),
)

picks = st.integers(min_value=0, max_value=40)

sharing_writes = st.lists(
    st.one_of(
        st.tuples(st.just("add"), sharing_entries),
        st.tuples(st.just("remove"), picks),
        st.tuples(
            st.just("replace"),
            picks,
            st.integers(min_value=0, max_value=len(CONSTRAINTS) - 1),
        ),
        # Enough removals to outnumber what stays: the entry sequence
        # compacts, and every slot number changes.
        st.tuples(st.just("churn"), st.sampled_from(PREDICATES)),
        # A lazy index built on the view being written (a private shard once
        # it has been written, a shared one before) or on an ancestor.
        st.tuples(
            st.just("build"),
            st.sampled_from(("children", "postings", "window", "names")),
            st.sampled_from(PREDICATES),
            st.one_of(st.none(), picks),
        ),
    ),
    max_size=12,
)

generations = st.lists(
    st.tuples(st.sampled_from(("copy", "checkout", "publish", "import")), sharing_writes),
    min_size=3,
    max_size=5,
)


def build_lazily(view: MaterializedView, what: str, predicate: str) -> None:
    if what == "children":
        view.find_parents_of(SHARED)
        view.find_parents_of(LEAF[0])
    elif what == "postings":
        view.probe_range(predicate, 0, 3)
    elif what == "window":
        view.probe_range(predicate, 0, PROBE_WINDOW)
    else:
        view.all_variable_names([predicate])


def exported(view: MaterializedView):
    return {
        predicate: view.export_shard_rows(predicate) for predicate in view.predicates()
    }


def assert_indistinguishable_from_rebuild(view: MaterializedView, rows) -> None:
    """*view* answers every storage function like a view rebuilt from *rows*
    (what it exported, now or when a descendant branched off)."""
    from repro.persist.codec import encode_shard

    reference = MaterializedView()
    for predicate, shard_rows in rows.items():
        reference.import_shard_rows(predicate, shard_rows)
    assert view.predicates() == reference.predicates()
    assert view.entries == reference.entries
    for predicate in PREDICATES:
        shard_rows = rows.get(predicate, ())
        assert view.export_shard_rows(predicate) == shard_rows
        assert view.entries_for(predicate) == tuple(entry for entry, _ in shard_rows)
        assert encode_shard(predicate, view.export_shard_rows(predicate)) == (
            encode_shard(predicate, shard_rows)
        )
        # (A shard emptied by removals stays behind with an empty table.)
        assert [dict(table) for table in view.variable_name_tables([predicate]) if table] == [
            dict(table) for table in reference.variable_name_tables([predicate])
        ]
        for value in (0, 1, 3, 99):
            assert view.probe(predicate, 0, value) == reference.probe(predicate, 0, value)
            assert view.probe_range(predicate, 0, value) == reference.probe_range(
                predicate, 0, value
            )
        assert view.probe_range(predicate, 0, PROBE_WINDOW) == reference.probe_range(
            predicate, 0, PROBE_WINDOW
        )
    # Every slot's postings are built on both sides by now.
    assert view.range_posting_snapshot() == reference.range_posting_snapshot()
    assert view.argument_index_snapshot() == reference.argument_index_snapshot()
    assert view.child_support_snapshot() == reference.child_support_snapshot()
    for support in SHARING_SUPPORTS:
        assert view.find_all_by_support(support) == reference.find_all_by_support(support)
        assert view.find_by_support(support) == reference.find_by_support(support)
        assert view.find_parents_of(support) == reference.find_parents_of(support)


@settings(max_examples=80, deadline=None)
@given(st.lists(sharing_entries, max_size=12), generations)
def test_a_descendants_writes_never_reach_an_ancestor(initial, chain_of_clones):
    view = MaterializedView(initial)
    ancestors = []  # (view a descendant branched off, what it exported then)
    for how, writes in chain_of_clones:
        ancestors.append((view, exported(view)))
        if how == "copy":
            view = view.copy()
        elif how == "checkout":
            view = view.checkout(PREDICATES)
        elif how == "publish":
            unit = view.checkout(PREDICATES[:1])
            unit.add(make_entry(PREDICATES[0], equals(X, 50 + len(ancestors)), 0))
            unit.assert_publish_scope(view, PREDICATES[:1])
            published = unit.without_write_scope()
            ancestors.append((unit, exported(unit)))
            view = published
        else:
            rebuilt = MaterializedView()
            for predicate, shard_rows in exported(view).items():
                rebuilt.import_shard_rows(predicate, shard_rows)
            view = rebuilt
        for write in writes:
            kind = write[0]
            live = view.entries
            if kind == "add":
                view.add(write[1])
            elif kind == "remove" and live:
                view.remove(live[write[1] % len(live)])
            elif kind == "replace" and live:
                old = live[write[1] % len(live)]
                view.replace(old, old.with_constraint(CONSTRAINTS[write[2]]))
            elif kind == "churn":
                own = 100 * (1 + PREDICATES.index(write[1]))  # supports of its own
                passing = [
                    make_entry(write[1], equals(X, 100 + number), own + number)
                    for number in range(24)
                ]
                for entry in passing:
                    view.add(entry)
                for entry in passing:
                    view.remove(entry)
            elif kind == "build":
                target = view if write[3] is None else ancestors[write[3] % len(ancestors)][0]
                build_lazily(target, write[1], write[2])
    assert_indistinguishable_from_rebuild(view, exported(view))
    for ancestor, rows in ancestors:
        assert_indistinguishable_from_rebuild(ancestor, rows)


def test_groups_do_not_outlive_their_entries():
    # Regression: removing an entry left an empty group under its support
    # (and under each of its premises in the child-support index) forever.
    # A re-inserted base fact derives under new supports, so every delete /
    # re-insert pair leaked the groups of the derivations it replaced --
    # memory, and every copy of those tables, grew with the age of a stream.
    from repro.datalog.atoms import ConstrainedAtom
    from repro.maintenance import DeletionRequest, InsertionRequest
    from repro.stream import StreamOptions, StreamScheduler
    from repro.workloads import make_layered_program

    spec = make_layered_program(
        base_facts=40, layers=3, predicates_per_layer=2, fanin=2
    )
    scheduler = StreamScheduler(
        spec.program, ConstraintSolver(), options=StreamOptions(max_workers=1)
    )
    X1 = Variable("X1")
    fact = ConstrainedAtom(Atom("base1", (X1,)), equals(X1, 3))

    def groups_after_a_pair() -> int:
        for request in (DeletionRequest(fact), InsertionRequest(fact)):
            assert scheduler.apply_batch([request]).ok
        view = scheduler.view
        snapshot = view.child_support_snapshot()  # every child index is built
        counted = 0
        for predicate in view.predicates():
            shard = view.shard_for(predicate)
            counted += len(shard._by_support) + len(shard._child_index)
        return counted, len(view), snapshot

    first = groups_after_a_pair()
    for _ in range(4):
        later = groups_after_a_pair()
    assert later == first
    assert scheduler.verify()
