"""A read after a source change, split into stable and moving conjuncts,
against the full solution search.

``ConstrainedAtom.instances`` remembers the instance set of a constraint
that names domains.  When some of those domains changed since, the read
splits the conjunction: the conjuncts over unchanged domains (the stable
part) are read as an atom of their own and remembered under their own
domains' versions, and the search runs over the rest, seeded with the
stable part's rows.  Whatever the split, the answer must be the one a
fresh solver's full search gives.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.constraints import ConstraintSolver, Variable, conjoin, equals, member, not_equals
from repro.constraints.ast import NegatedConjunction
from repro.datalog.atoms import Atom, ConstrainedAtom
from repro.domains import Domain, DomainRegistry
from repro.errors import SolverError

X, Y, Z, W = (Variable(name) for name in "XYZW")
VALUES = range(4)


class ToySource(Domain):
    """A source of values and pairs over :data:`VALUES`.  A tracked source
    versions its data; an untracked one changes behind the registry's back
    and is only re-read after a change notice."""

    def __init__(self, name: str, tracked: bool = True) -> None:
        super().__init__(name)
        self.tracked = tracked
        self.data_version = 0
        self.values: frozenset = frozenset()
        self.pairs: frozenset = frozenset()
        self.register("vals", lambda: set(self.values))
        self.register("rel", lambda x: {b for a, b in self.pairs if a == x})

    def load(self, values, pairs) -> None:
        self.values, self.pairs = frozenset(values), frozenset(pairs)
        self.data_version += 1

    def source_version(self) -> object:
        return (super().source_version(), self.data_version if self.tracked else 0)


def sources():
    return {"a": ToySource("a"), "b": ToySource("b"), "u": ToySource("u", tracked=False)}


def full_search(atom: ConstrainedAtom, registry: DomainRegistry):
    """The instances a fresh solver reads: the unsplit search (or its error)."""
    try:
        return ConstrainedAtom(atom.atom, atom.constraint).instances(ConstraintSolver(registry))
    except SolverError:
        return SolverError


def clipped(atom: ConstrainedAtom, registry: DomainRegistry):
    return atom.instances(ConstraintSolver(registry), universe=VALUES)


def read(atom: ConstrainedAtom, solver: ConstraintSolver):
    try:
        return atom.instances(solver)
    except SolverError:
        return SolverError


def check_reads(atom, changes, initial):
    """Read *atom* through one solver before and after each change and
    hold every read to the full search.  Returns the solver and, per read,
    how the stable part was read: ``"new"`` (searched and remembered),
    ``"kept"`` (remembered), ``"refused"`` (the split was tried and fell
    back) or ``""`` (no split: the whole search ran)."""
    domains = sources()
    for name, (values, pairs) in initial.items():
        domains[name].load(values, pairs)
    registry = DomainRegistry(list(domains.values()))
    solver = ConstraintSolver(registry)
    kinds = []
    for step in range(len(changes) + 1):
        if step:
            for name, (values, pairs) in changes[step - 1].items():
                domains[name].load(values, pairs)
                if not domains[name].tracked:
                    solver.invalidate_external_functions(name)  # the notice
        hits, misses = solver.instance_memo_hits, solver.instance_memo_misses
        fallbacks = len(refused(solver, atom))
        found, expected = read(atom, solver), full_search(atom, registry)
        if expected is SolverError and found is not SolverError:
            # The split answered where the full search could not enumerate
            # a variable: it must agree with the search clipped to VALUES.
            assert found == clipped(atom, registry), step
        else:
            assert found == expected, step
        if solver.instance_memo_hits > hits:
            kinds.append("kept")
        elif len(refused(solver, atom)) > fallbacks:
            kinds.append("refused")
        else:  # the atom's own lookup, then the stable part's
            kinds.append("new" if solver.instance_memo_misses - misses > 1 else "")
    return solver, kinds


def refused(solver: ConstraintSolver, atom: ConstrainedAtom):
    return [changed for key, changed in solver._refused_splits if key == atom]


H = Atom("h", (X, Y))
A_AND_B = {"a": ({0, 1, 2}, {(0, 1), (1, 2), (2, 3)}), "b": ({1, 2, 3}, {(1, 0), (2, 2)})}


class TestNamedCases:
    def test_a_negated_membership_on_the_changed_domain_is_a_moving_conjunct(self):
        atom = ConstrainedAtom(
            Atom("h", (X,)),
            conjoin(member(X, "a", "vals"), NegatedConjunction([member(X, "b", "vals")])),
        )
        solver, kinds = check_reads(
            atom, [{"b": ({3}, ())}, {"b": ({0, 1}, ())}], A_AND_B
        )
        assert kinds == ["", "new", "kept"]
        assert refused(solver, atom) == []

    def test_a_disequality_links_the_two_parts(self):
        atom = ConstrainedAtom(
            H,
            conjoin(
                member(X, "a", "vals"),
                member(Y, "a", "rel", X),
                not_equals(X, Y),
                member(Y, "b", "vals"),
            ),
        )
        _, kinds = check_reads(atom, [{"b": ({2}, ())}, {"b": ({1, 3}, ())}], A_AND_B)
        assert kinds == ["", "new", "kept"]

    def test_a_variable_only_the_moving_part_bounds_falls_back_once(self):
        # X is bounded by a:vals() alone: the stable part names it only
        # inside not(...), so it cannot enumerate X by itself.
        atom = ConstrainedAtom(
            Atom("h", (X,)),
            conjoin(member(X, "a", "vals"), NegatedConjunction([member(X, "b", "vals")])),
        )
        solver, kinds = check_reads(
            atom, [{"a": ({1, 3}, ())}, {"a": ({0, 2}, ())}], A_AND_B
        )
        assert kinds == ["", "refused", ""]  # not tried again
        assert refused(solver, atom) == [frozenset({"a"})]

    def test_alternating_changed_sources_split_each_way(self):
        atom = ConstrainedAtom(
            H,
            conjoin(
                member(X, "a", "vals"),
                member(Y, "a", "rel", X),
                member(X, "b", "vals"),
                member(Y, "b", "rel", X),
            ),
        )
        changes = [
            {"b": ({0, 1}, {(0, 1), (1, 2)})},
            {"a": ({0, 1, 2, 3}, {(0, 1), (1, 1)})},
            {"b": ({1, 2}, {(1, 1), (2, 3)})},
            {"a": ({1, 2, 3}, {(1, 1), (2, 3)})},
        ]
        solver, kinds = check_reads(atom, changes, A_AND_B)
        # Each change moves the other source's stable part: it is searched again.
        assert kinds == ["", "new", "new", "new", "new"]
        assert refused(solver, atom) == []

    def test_an_untracked_source_changed_by_a_notice(self):
        atom = ConstrainedAtom(H, conjoin(member(X, "a", "vals"), member(Y, "u", "rel", X)))
        initial = {**A_AND_B, "u": ((), {(0, 0), (1, 3)})}
        _, kinds = check_reads(
            atom, [{"u": ((), {(2, 2)})}, {"u": ((), {(0, 1), (2, 3)})}], initial
        )
        assert kinds == ["", "new", "kept"]


# ---------------------------------------------------------------------------
# Random conjunctions, random changes
# ---------------------------------------------------------------------------
NAMES = ("a", "b", "u")
VARIABLES = (X, Y, Z, W)
subsets = st.frozensets(st.sampled_from(VALUES))
states = st.tuples(subsets, st.frozensets(st.tuples(st.sampled_from(VALUES), st.sampled_from(VALUES))))


@st.composite
def conjuncts(draw):
    kind = draw(st.sampled_from(("in", "in", "rel", "rel", "not_in", "not_rel", "neq", "eq")))
    name = draw(st.sampled_from(NAMES))
    v, w = draw(st.sampled_from(VARIABLES)), draw(st.sampled_from(VARIABLES))
    if kind == "in":
        return member(v, name, "vals")
    if kind == "rel":
        return member(w, name, "rel", v)
    if kind == "not_in":
        return NegatedConjunction([member(v, name, "vals")])
    if kind == "not_rel":
        return NegatedConjunction([member(w, name, "rel", v)])
    if kind == "neq":
        return not_equals(v, w) if v != w else not_equals(v, draw(st.sampled_from(VALUES)))
    return equals(v, draw(st.sampled_from(VALUES)))


@settings(max_examples=200, deadline=None)
@given(
    parts=st.lists(conjuncts(), min_size=2, max_size=5),
    head=st.sampled_from(((X,), (X, Y), (Y, X), ())),
    initial=st.fixed_dictionaries({name: states for name in NAMES}),
    changes=st.lists(
        st.dictionaries(st.sampled_from(NAMES), states, min_size=1, max_size=2),
        min_size=1,
        max_size=4,
    ),
)
def test_a_split_read_equals_the_full_search(parts, head, initial, changes):
    constraint = conjoin(*parts)
    if not constraint.domains():
        return
    check_reads(ConstrainedAtom(Atom("h", head), constraint), changes, initial)


@pytest.mark.parametrize("changed", ["a", "b"])
def test_the_split_is_exact_with_no_shared_variable(changed):
    # The two parts share no variable: the stable part's rows are one empty
    # row (satisfiable) or none.
    atom = ConstrainedAtom(Atom("h", (X,)), conjoin(member(X, "a", "vals"), member(Z, "b", "vals")))
    check_reads(atom, [{changed: ((), ())}, {changed: ({1}, ())}], A_AND_B)
