"""Unit tests for derivation supports."""

from __future__ import annotations

import pytest

from repro.datalog import Support, derived, leaf
from repro.errors import ProgramError


class TestSupportStructure:
    def test_leaf(self):
        support = leaf(3)
        assert support.is_leaf
        assert str(support) == "<3>"

    def test_derived(self):
        support = derived(4, (leaf(2), leaf(3)))
        assert not support.is_leaf
        assert str(support) == "<4, <2>, <3>>"

    def test_paper_example5_supports(self):
        # spt(C(X) <- X >= 5) = <4, <2, <3>>>
        support = derived(4, (derived(2, (leaf(3),)),))
        assert str(support) == "<4, <2, <3>>>"

    def test_equality_and_hash(self):
        assert derived(1, (leaf(2),)) == derived(1, (leaf(2),))
        assert derived(1, (leaf(2),)) != derived(1, (leaf(3),))
        assert len({leaf(1), leaf(1), leaf(2)}) == 2

    def test_invalid_clause_number(self):
        with pytest.raises(ProgramError):
            Support(-1)
        with pytest.raises(ProgramError):
            Support("3")  # type: ignore[arg-type]

    def test_invalid_children(self):
        with pytest.raises(ProgramError):
            Support(1, (3,))  # type: ignore[arg-type]

    def test_inserted_leaf_shows_its_origin(self):
        support = Support(0, origin="b(X) <- X = 1")
        assert support.is_leaf
        assert str(support) == "<0: b(X) <- X = 1>"

    def test_origin_distinguishes_otherwise_equal_leaves(self):
        one = Support(0, origin="b(X) <- X = 1")
        other = Support(0, origin="b(X) <- X = 2")
        assert one != other and one != leaf(0)
        assert len({one, other, leaf(0), Support(0, origin="b(X) <- X = 1")}) == 3

    @pytest.mark.parametrize(
        "children, origin",
        [((), 7), ((Support(1),), "b(X) <- X = 1")],
        ids=["non-string-origin", "origin-on-a-derived-support"],
    )
    def test_only_a_leaf_has_a_string_origin(self, children, origin):
        with pytest.raises(ProgramError, match="only a leaf has an origin"):
            Support(0, children, origin=origin)


class TestSupportQueries:
    def test_uniqueness_of_supports_for_distinct_derivations(self):
        # Lemma 1: distinct derivations yield distinct supports.
        one = derived(4, (leaf(1),))
        other = derived(4, (leaf(2),))
        assert one != other

    def test_hash_is_computed_once_per_support(self, monkeypatch):
        # Supports key the view's per-support and child-support tables, and
        # every table operation hashes its key: the hash is worked out when
        # the support is built, not by walking the derivation per lookup.
        deep = derived(5, (derived(4, (leaf(3), leaf(2))), leaf(2)))
        twin = derived(5, (derived(4, (leaf(3), leaf(2))), leaf(2)))
        assert deep is not twin and deep == twin
        assert hash(deep) == hash(twin)
        assert {deep: "filed"}[twin] == "filed"
        assert hash(deep) != hash(derived(5, (derived(4, (leaf(3), leaf(1))), leaf(2))))
        hashed = []
        original = Support.__hash__
        monkeypatch.setattr(
            Support, "__hash__", lambda self: hashed.append(self) or original(self)
        )
        assert hash(deep) == hash(twin)
        # One call each: no recursion into the children.
        assert len(hashed) == 2 and hashed[0] is deep and hashed[1] is twin
