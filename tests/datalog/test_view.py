"""Unit tests for materialized views (containers of supported entries)."""

from __future__ import annotations

import pytest

from repro.constraints import ConstraintSolver, Variable, compare, conjoin, equals
from repro.datalog import Atom, MaterializedView, Support, ViewEntry, leaf
from repro.errors import ProgramError

X, Y = Variable("X"), Variable("Y")


def entry(predicate: str, constraint, clause_number: int, *children) -> ViewEntry:
    support = Support(clause_number, tuple(children))
    return ViewEntry(Atom(predicate, (X,)), constraint, support)


@pytest.fixture
def solver():
    return ConstraintSolver()


@pytest.fixture
def view():
    view = MaterializedView()
    view.add(entry("a", compare(X, ">=", 3), 1))
    view.add(entry("b", compare(X, ">=", 5), 3))
    view.add(entry("a", compare(X, ">=", 5), 2, leaf(3)))
    return view


class TestContainer:
    def test_add_and_len(self, view):
        assert len(view) == 3
        assert view.predicates() == ("a", "b")

    def test_duplicate_entries_not_added(self, view):
        duplicate = entry("a", compare(X, ">=", 3), 1)
        assert not view.add(duplicate)
        assert len(view) == 3

    def test_same_atom_different_support_kept(self, view):
        # Duplicate semantics: one entry per derivation.
        other_support = entry("a", compare(X, ">=", 3), 7)
        assert view.add(other_support)
        assert len(view.entries_for("a")) == 3

    def test_contains(self, view):
        assert entry("a", compare(X, ">=", 3), 1) in view
        assert entry("a", compare(X, ">=", 99), 1) not in view

    def test_remove(self, view):
        assert view.remove(entry("b", compare(X, ">=", 5), 3))
        assert len(view) == 2
        assert not view.remove(entry("b", compare(X, ">=", 5), 3))

    def test_replace_preserves_order(self, view):
        old = entry("b", compare(X, ">=", 5), 3)
        new = old.with_constraint(conjoin(compare(X, ">=", 5), compare(X, "<=", 9)))
        view.replace(old, new)
        assert [e.predicate for e in view] == ["a", "b", "a"]
        assert view.find_by_support(Support(3)).constraint == new.constraint

    def test_replace_missing_raises(self, view):
        with pytest.raises(ProgramError):
            view.replace(entry("z", equals(X, 1), 9), entry("z", equals(X, 2), 9))

    def test_replace_key_collision_merges(self, view):
        # Regression: replacing an entry with one whose key already belongs
        # to ANOTHER entry used to leave the key index holding one key for
        # two list slots; a later remove then silently dropped both.  The
        # two entries are identical by the dedup criterion, so the replace
        # merges them: the old entry goes, the existing one stays.
        old = entry("a", compare(X, ">=", 3), 1)
        collides = entry("b", compare(X, ">=", 5), 3)  # already in the view
        assert view.replace(old, collides) is False
        assert len(view) == 2
        assert old not in view and collides in view
        # The key index stays consistent: one remove drops exactly one entry.
        assert view.remove(collides)
        assert len(view) == 1
        assert not view.remove(collides)

    def test_replace_with_identical_key_is_allowed(self, view):
        old = entry("b", compare(X, ">=", 5), 3)
        assert view.replace(old, entry("b", compare(X, ">=", 5), 3)) is True
        assert len(view) == 3

    def test_remove_then_iterate_preserves_order(self, view):
        view.remove(entry("b", compare(X, ">=", 5), 3))
        assert [e.predicate for e in view] == ["a", "a"]
        view.add(entry("b", compare(X, ">=", 7), 8))
        assert [e.predicate for e in view] == ["a", "a", "b"]

    def test_add_rejects_non_entries(self, view):
        with pytest.raises(ProgramError):
            view.add("entry")  # type: ignore[arg-type]

    def test_copy_is_independent(self, view):
        clone = view.copy()
        clone.remove(entry("a", compare(X, ">=", 3), 1))
        assert len(view) == 3
        assert len(clone) == 2

    def test_find_by_support(self, view):
        found = view.find_by_support(Support(2, (Support(3),)))
        assert found is not None and found.predicate == "a"
        assert view.find_by_support(Support(99)) is None

    def test_entry_helpers(self):
        item = entry("a", compare(X, ">=", 3), 1)
        assert item.predicate == "a"
        assert str(item.constrained_atom) == "a(X) <- X >= 3"
        assert "<1>" in str(item)


class TestSemantics:
    def test_instances_union(self, view, solver):
        universe = range(0, 8)
        instances = view.instances(solver, universe)
        assert ("a", (3,)) in instances
        assert ("b", (5,)) in instances
        assert ("b", (3,)) not in instances

    def test_instances_for(self, view, solver):
        values = view.instances_for("a", solver, range(0, 8))
        assert values == {(3,), (4,), (5,), (6,), (7,)}

    def test_same_instances(self, view, solver):
        other = view.copy()
        assert view.same_instances(other, solver, range(0, 8))
        other.remove(entry("b", compare(X, ">=", 5), 3))
        assert not view.same_instances(other, solver, range(0, 8))

    def test_prune_unsolvable(self, solver):
        view = MaterializedView()
        view.add(entry("a", equals(X, 1), 1))
        view.add(entry("a", conjoin(equals(X, 1), equals(X, 2)), 2))
        removed = view.prune_unsolvable(solver)
        assert removed == 1
        assert len(view) == 1

    def test_prune_unsolvable_preserves_insertion_order(self, solver):
        view = MaterializedView()
        unsolvable = conjoin(equals(X, 1), equals(X, 2))
        for index in range(10):
            view.add(entry("a", equals(X, index), index + 1))
            view.add(entry("a", unsolvable, index + 100))
        assert view.prune_unsolvable(solver) == 10
        survivors = [e.support.clause_number for e in view]
        assert survivors == list(range(1, 11))
        bucket = [e.support.clause_number for e in view.entries_for("a")]
        assert bucket == survivors

    def test_prune_unsolvable_scales_linearly(self, solver):
        # 10k entries: quadratic pruning (full list rebuild per removal)
        # would take minutes; the indexed removal finishes in well under a
        # second.  Time-bound generously to keep the test robust on slow CI.
        import time

        view = MaterializedView()
        unsolvable = conjoin(equals(X, 1), equals(X, 2))
        for index in range(10_000):
            constraint = equals(X, index) if index % 2 else unsolvable
            view.add(entry("a", constraint, index + 1))
        start = time.perf_counter()
        removed = view.prune_unsolvable(solver)
        elapsed = time.perf_counter() - start
        assert removed == 5_000 and len(view) == 5_000
        assert elapsed < 5.0
        assert [e.support.clause_number for e in view] == list(range(2, 10_001, 2))

    def test_duplicate_free_check(self, solver):
        disjoint = MaterializedView()
        disjoint.add(entry("a", conjoin(compare(X, ">=", 0), compare(X, "<=", 4)), 1))
        disjoint.add(entry("a", compare(X, ">=", 5), 2))
        assert disjoint.is_duplicate_free(solver)

        overlapping = MaterializedView()
        overlapping.add(entry("a", compare(X, ">=", 3), 1))
        overlapping.add(entry("a", compare(X, ">=", 5), 2))
        assert not overlapping.is_duplicate_free(solver)

    def test_variable_name_collection(self, view):
        assert "X" in view.all_variable_names()


class TestArgumentIndex:
    """The hash-join index: (predicate, position, value) -> entries."""

    def ground(self, predicate: str, value, clause_number: int) -> ViewEntry:
        return ViewEntry(
            Atom(predicate, (X,)), equals(X, value), Support(clause_number)
        )

    def test_probe_returns_bound_matches_plus_unbound_bucket(self):
        view = MaterializedView()
        pinned3 = self.ground("p", 3, 1)
        pinned4 = self.ground("p", 4, 2)
        open_entry = entry("p", compare(X, ">=", 0), 5)
        view.add(pinned3)
        view.add(pinned4)
        view.add(open_entry)
        assert view.probe("p", 0, 3) == (pinned3, open_entry)
        assert view.probe("p", 0, 4) == (pinned4, open_entry)
        # No bound match: only the unbound bucket can join.
        assert view.probe("p", 0, 99) == (open_entry,)
        assert view.probe("q", 0, 3) == ()

    def test_probe_results_preserve_insertion_order(self):
        view = MaterializedView()
        open_entry = entry("p", compare(X, ">=", 0), 5)
        view.add(open_entry)
        pinned = self.ground("p", 3, 1)
        view.add(pinned)
        assert view.probe("p", 0, 3) == (open_entry, pinned)

    def test_remove_and_replace_maintain_the_index(self):
        view = MaterializedView()
        pinned = self.ground("p", 3, 1)
        view.add(pinned)
        assert view.probe("p", 0, 3) == (pinned,)
        view.remove(pinned)
        assert view.probe("p", 0, 3) == ()

        original = self.ground("p", 7, 2)
        view.add(original)
        narrowed = original.with_constraint(
            conjoin(equals(X, 7), compare(X, ">=", 0))
        )
        view.replace(original, narrowed)
        assert view.probe("p", 0, 7) == (narrowed,)
        assert original not in view

    def test_replace_can_move_entry_between_buckets(self):
        view = MaterializedView()
        pinned = self.ground("p", 3, 1)
        view.add(pinned)
        unpinned = pinned.with_constraint(compare(X, ">=", 0))
        view.replace(pinned, unpinned)
        # The entry now joins with any probe value via the unbound bucket.
        assert view.probe("p", 0, 3) == (unpinned,)
        assert view.probe("p", 0, 42) == (unpinned,)

    def test_numeric_probe_values_match_across_int_and_float(self):
        # Python dict lookup equates 3 and 3.0 (same hash and equality),
        # matching the solver's numeric value equality.
        view = MaterializedView()
        pinned = self.ground("p", 3, 1)
        view.add(pinned)
        assert view.probe("p", 0, 3.0) == (pinned,)

    def test_snapshot_is_stable_and_comparable(self):
        view = MaterializedView()
        view.add(self.ground("p", 3, 1))
        view.add(entry("p", compare(X, ">=", 0), 5))
        first = view.argument_index_snapshot()
        second = view.argument_index_snapshot()
        assert first == second
        assert any(row[2] == "3" for row in first)
        assert any(row[2] == "<unbound>" for row in first)
