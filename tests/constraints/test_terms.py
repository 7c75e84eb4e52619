"""Unit tests for variables, constants and substitutions."""

from __future__ import annotations

import pytest

from repro.constraints import (
    Constant,
    FreshVariableFactory,
    Substitution,
    Variable,
    make_term,
)
from repro.errors import TermError


class TestVariable:
    def test_equality_by_name(self):
        assert Variable("X") == Variable("X")
        assert Variable("X") != Variable("Y")

    def test_hashable(self):
        assert len({Variable("X"), Variable("X"), Variable("Y")}) == 2

    def test_str(self):
        assert str(Variable("Count")) == "Count"

    def test_primed_names_allowed(self):
        assert Variable("X'").name == "X'"

    @pytest.mark.parametrize("bad", ["", "1X", "X Y", "X-Y", None])
    def test_invalid_names_rejected(self, bad):
        with pytest.raises(TermError):
            Variable(bad)  # type: ignore[arg-type]

    def test_ordering_by_name(self):
        assert sorted([Variable("Z"), Variable("A")]) == [Variable("A"), Variable("Z")]


class TestConstant:
    def test_equality_by_value(self):
        assert Constant(3) == Constant(3)
        assert Constant(3) != Constant("3")

    def test_str_quotes_strings(self):
        assert str(Constant("john")) == "'john'"
        assert str(Constant(42)) == "42"

    def test_unhashable_value_rejected(self):
        with pytest.raises(TermError):
            Constant([1, 2])  # type: ignore[arg-type]


class TestTermHelpers:
    def test_make_term_passthrough_and_wrapping(self):
        variable = Variable("X")
        assert make_term(variable) is variable
        assert make_term(5) == Constant(5)
        assert make_term("abc") == Constant("abc")


class TestSubstitution:
    def test_apply_to_variable_and_constant(self):
        subst = Substitution({Variable("X"): Constant(1)})
        assert subst.apply(Variable("X")) == Constant(1)
        assert subst.apply(Variable("Y")) == Variable("Y")
        assert subst.apply(Constant("c")) == Constant("c")

    def test_apply_all(self):
        subst = Substitution({Variable("X"): Constant(1)})
        assert subst.apply_all((Variable("X"), Constant(2))) == (Constant(1), Constant(2))

    def test_mapping_protocol(self):
        subst = Substitution({Variable("X"): Constant(1)})
        assert len(subst) == 1
        assert Variable("X") in subst
        assert dict(subst) == {Variable("X"): Constant(1)}

    def test_not_recursive(self):
        subst = Substitution({Variable("X"): Variable("Y"), Variable("Y"): Constant(1)})
        assert subst.apply(Variable("X")) == Variable("Y")

    def test_invalid_keys_and_values_rejected(self):
        with pytest.raises(TermError):
            Substitution({"X": Constant(1)})  # type: ignore[dict-item]
        with pytest.raises(TermError):
            Substitution({Variable("X"): "raw"})  # type: ignore[dict-item]


class TestFreshVariableFactory:
    def test_fresh_avoids_reserved(self):
        factory = FreshVariableFactory(["X_1", "X_2"])
        fresh = factory.fresh("X")
        assert fresh.name not in {"X_1", "X_2"}

    def test_fresh_never_repeats(self):
        factory = FreshVariableFactory()
        names = {factory.fresh("V").name for _ in range(50)}
        assert len(names) == 50

    def test_renaming_for_covers_all_variables(self):
        factory = FreshVariableFactory(["X", "Y"])
        renaming = factory.renaming_for([Variable("X"), Variable("Y")])
        assert set(renaming.keys()) == {Variable("X"), Variable("Y")}
        assert all(isinstance(term, Variable) for term in renaming.values())
        renamed_names = {term.name for term in renaming.values()}
        assert renamed_names.isdisjoint({"X", "Y"})

    def test_tables_are_read_in_place_not_copied(self):
        table = {"X_1": 3}
        factory = FreshVariableFactory(["X_2"], (table, frozenset({"X_4"})))
        assert factory.fresh("X").name == "X_3"
        table["X_5"] = 1  # the owner's later writes count too
        assert factory.fresh("X").name == "X_6"
        # Same sequence as reserving the union up front.
        copied = FreshVariableFactory(["X_1", "X_2", "X_4", "X_5"])
        assert [copied.fresh("X").name for _ in range(2)] == ["X_3", "X_6"]
