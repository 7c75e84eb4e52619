"""Property tests for the child-support → parent-entries index.

StDel step 3 probes ``find_parents_of`` instead of scanning the view, so
the index must track ``add`` / ``remove`` / ``replace`` /
``prune_unsolvable`` exactly.  The invariant is checked the same way the
argument-index snapshot tests work: after every random mutation sequence,
the index's canonical snapshot must equal a brute-force scan of
``entries``.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.constraints import ConstraintSolver, Variable, compare, conjoin, equals
from repro.datalog import Atom, MaterializedView, Support, ViewEntry

X = Variable("X")

#: A small closed universe of supports: leaves, pairs of leaves, and deeper
#: trees, so children overlap across entries (the interesting case).
LEAVES = [Support(number) for number in range(1, 5)]
COMPOSITES = [
    Support(5, (LEAVES[0], LEAVES[1])),
    Support(6, (LEAVES[1], LEAVES[2])),
    Support(6, (LEAVES[2],)),
    Support(7, (LEAVES[0], LEAVES[0])),  # repeated child (diamond shape)
]
DEEP = [
    Support(8, (COMPOSITES[0], LEAVES[3])),
    Support(9, (COMPOSITES[1], COMPOSITES[2])),
]
SUPPORTS = LEAVES + COMPOSITES + DEEP

UNSOLVABLE = conjoin(equals(X, 1), equals(X, 2))
CONSTRAINTS = [
    equals(X, 0),
    equals(X, 1),
    compare(X, ">=", 3),
    conjoin(compare(X, ">=", 1), compare(X, "<=", 7)),
    UNSOLVABLE,
]

# A support names one derivation, hence one predicate (the view refuses a
# second): even indexes derive ``a``, odd ones ``b``, so children are still
# shared across the two shards.
entries = st.builds(
    lambda constraint_index, support_index: ViewEntry(
        Atom("ab"[support_index % 2], (X,)),
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
        st.tuples(st.just("replace"), entries, st.integers(min_value=0, max_value=len(CONSTRAINTS) - 1)),
        st.tuples(st.just("prune"), st.none()),
    ),
    min_size=1,
    max_size=40,
)


def brute_force_snapshot(view: MaterializedView):
    """The child-support index recomputed from a full scan of ``entries``."""
    expected = {}
    for entry in view:
        for child in set(entry.support.children):
            expected.setdefault(str(child), set()).add(str(entry.key()))
    return tuple(
        sorted((child, tuple(sorted(keys))) for child, keys in expected.items())
    )


def brute_force_parents(view: MaterializedView, support: Support):
    return {
        str(entry.key())
        for entry in view
        if support in entry.support.children
    }


@settings(max_examples=80, deadline=None)
@given(operations)
def test_child_support_index_matches_brute_force_scan(ops):
    solver = ConstraintSolver()
    view = MaterializedView()
    for operation in ops:
        kind = operation[0]
        if kind == "add":
            view.add(operation[1])
        elif kind == "remove":
            view.remove(operation[1])
        elif kind == "replace":
            entry = operation[1]
            if entry in view:
                # Fetch the live object (replace requires a member entry).
                live = next(e for e in view if e.key() == entry.key())
                view.replace(live, live.with_constraint(CONSTRAINTS[operation[2]]))
        else:
            view.prune_unsolvable(solver)
        assert view.child_support_snapshot() == brute_force_snapshot(view)
    # Point probes agree with a brute-force scan for every known support.
    for support in SUPPORTS:
        probed = {str(entry.key()) for entry in view.find_parents_of(support)}
        assert probed == brute_force_parents(view, support)


def test_find_parents_of_returns_insertion_ordered_live_entries():
    view = MaterializedView()
    leaf = Support(1)
    first = ViewEntry(Atom("a", (X,)), equals(X, 0), Support(5, (leaf,)))
    second = ViewEntry(Atom("a", (X,)), equals(X, 1), Support(6, (leaf, Support(2))))
    view.add(first)
    view.add(second)
    assert view.find_parents_of(leaf) == (first, second)
    view.remove(first)
    assert view.find_parents_of(leaf) == (second,)
    narrowed = second.with_constraint(conjoin(equals(X, 1), compare(X, ">=", 0)))
    view.replace(second, narrowed)
    assert view.find_parents_of(leaf) == (narrowed,)
    assert view.find_parents_of(Support(99)) == ()


def test_repeated_child_support_registers_parent_once():
    view = MaterializedView()
    leaf = Support(1)
    diamond = ViewEntry(Atom("a", (X,)), equals(X, 0), Support(7, (leaf, leaf)))
    view.add(diamond)
    assert view.find_parents_of(leaf) == (diamond,)
    view.remove(diamond)
    assert view.find_parents_of(leaf) == ()
