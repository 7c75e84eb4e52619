"""Delete / re-insert histories as a Hypothesis state machine.

Theorems 1-3 are stated per request; a stream applies many, and the history
decides what the supports look like: a fact deleted and inserted again is
filed under an inserted leaf, a parent derived from two such facts under a
support built from two of them.  The machine draws histories of that kind --
delete a present value, re-insert an absent one, delete it again, an interval
request over several values, the same request twice -- feeds them to a StDel
and a DRed scheduler as one coalesced batch or one request at a time, and
after every flush checks what the paper promises:

* ``verify()``: each published view has the instances of ``T_P ↑ ω`` of its
  effective program;
* the StDel and the DRed view have the same entry keys (the same instances
  where DRed's contract is a syntactic superset, see ``KEY_IDENTICAL``);
* Lemma 1 on the StDel track: no two entries of one predicate share a
  support.

A failure shrinks to a history of the five-request shape pinned in
``tests/maintenance/test_sequential_deletions.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.constraints import ConstraintSolver, Variable, compare, conjoin
from repro.datalog.atoms import Atom, ConstrainedAtom
from repro.maintenance import DeletionRequest, InsertionRequest
from repro.stream import StreamOptions, StreamScheduler
from repro.workloads import (
    ground_request_atom,
    make_interval_join_program,
    make_layered_program,
    make_transitive_closure_program,
)

#: family -> (spec, the base predicates a history updates with point
#: requests, those it also updates with interval requests, the universe).
#: The interval-join family carves intervals out of its interval facts as
#: well as its ground ones: StDel and DRed write a carve in one form, so
#: their keys are compared there too.
FAMILIES = {
    "layered": lambda: (
        make_layered_program(base_facts=12),
        ("base0", "base1"),
        ("base0", "base1"),
        range(12),
    ),
    "interval-join": lambda: (
        make_interval_join_program(ground_facts=5, intervals_per_predicate=2, pairs=1, width=12),
        ("g0", "g1", "iv0", "iv1"),
        ("g0", "g1", "iv0", "iv1"),
        range(18),
    ),
    # Acyclic, with two paths from 0 to 2 and from 1 to 3: duplicates.
    "recursive": lambda: (
        make_transitive_closure_program([(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)]),
        ("edge",),
        ("edge",),
        range(4),
    ),
}

#: Where the DRed view is key-identical to StDel's.  Over the recursive
#: family's duplicate derivations DRed's documented contract is a syntactic
#: superset with the same instances (``tests/integration/test_differential.py``).
KEY_IDENTICAL = {"layered", "interval-join"}

indexes = st.integers(min_value=0, max_value=10**6)


class HistoryMachine(RuleBasedStateMachine):
    family = "layered"
    workers = 1

    def __init__(self) -> None:
        super().__init__()
        spec, self.predicates, self.ranged, universe = FAMILIES[self.family]()
        self.tracks = {
            algorithm: StreamScheduler(
                spec.program,
                ConstraintSolver(),
                options=StreamOptions(
                    max_workers=self.workers, deletion_algorithm=algorithm
                ),
            )
            for algorithm in ("stdel", "dred")
        }
        self.universe = list(universe)
        self.pending = []
        self.deleted = []  # (predicate, values) a history removed, latest last
        self.checked = True

    def teardown(self) -> None:
        self.flush(True)
        self.theorems_hold()

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def present(self, predicate):
        """Points of *predicate* in the view once the pending requests ran."""
        held = self.tracks["stdel"].view.instances_for(
            predicate, self.tracks["stdel"].solver, self.universe
        )
        for request in self.pending:
            if request.atom.predicate != predicate:
                continue
            touched = request.atom.instances(universe=self.universe)
            points = {values for _, values in touched}
            held = held - points if isinstance(request, DeletionRequest) else held | points
        return sorted(held)

    @rule(which=indexes, pick=indexes)
    def delete_a_present_value(self, which, pick):
        predicate = self.predicates[which % len(self.predicates)]
        present = self.present(predicate)
        if not present:
            return
        values = present[pick % len(present)]
        self.deleted.append((predicate, values))
        self.pending.append(DeletionRequest(ground_request_atom(predicate, values)))

    @precondition(lambda self: self.deleted)
    @rule(pick=indexes)
    def reinsert_an_absent_value(self, pick):
        predicate, values = self.deleted[-1 - pick % len(self.deleted)]
        if values not in self.present(predicate):
            self.pending.append(InsertionRequest(ground_request_atom(predicate, values)))

    @precondition(lambda self: self.deleted)
    @rule(pick=indexes)
    def delete_it_again(self, pick):
        predicate, values = self.deleted[-1 - pick % len(self.deleted)]
        self.pending.append(DeletionRequest(ground_request_atom(predicate, values)))

    @rule(which=indexes, low=indexes, width=st.integers(1, 3), insert=st.booleans())
    def an_interval_over_several_values(self, which, low, width, insert):
        predicate = self.ranged[which % len(self.ranged)]
        variables = (Variable("X"), Variable("Y"))[: 2 if predicate == "edge" else 1]
        if insert and len(variables) > 1:
            return  # an edge to every node there is: not a base fact
        low = self.universe[low % len(self.universe)]
        atom = ConstrainedAtom(
            Atom(predicate, variables),
            conjoin(
                compare(variables[0], ">=", low), compare(variables[0], "<=", low + width)
            ),
        )
        self.pending.append(InsertionRequest(atom) if insert else DeletionRequest(atom))

    @precondition(lambda self: self.pending)
    @rule()
    def the_same_request_twice(self):
        self.pending.append(self.pending[-1])

    @precondition(lambda self: self.pending)
    @rule(coalesce=st.booleans())
    def flush(self, coalesce):
        batches = [tuple(self.pending)] if coalesce else [(one,) for one in self.pending]
        self.pending = []
        for scheduler in self.tracks.values():
            for batch in batches:
                assert scheduler.apply_batch(batch).ok
        self.checked = False

    # ------------------------------------------------------------------
    # Theorems 1-3, Lemma 1
    # ------------------------------------------------------------------
    @invariant()
    def theorems_hold(self):
        if self.checked:
            return  # views only move in flush
        self.checked = True
        stdel, dred = self.tracks["stdel"], self.tracks["dred"]
        assert stdel.verify(self.universe)
        assert dred.verify(self.universe)
        if self.family in KEY_IDENTICAL:
            assert sorted(str(entry.key()) for entry in stdel.view) == sorted(
                str(entry.key()) for entry in dred.view
            )
        else:
            assert {entry.key() for entry in stdel.view} <= {entry.key() for entry in dred.view}
            assert stdel.view.instances(stdel.solver, self.universe) == dred.view.instances(
                dred.solver, self.universe
            )
        filed = [(entry.predicate, entry.support) for entry in stdel.view]
        assert len(filed) == len(set(filed)), "two entries of one predicate share a support"


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_histories_keep_the_theorems(family, workers):
    machine = type(
        "HistoryMachineCase", (HistoryMachine,), {"family": family, "workers": workers}
    )
    # Derandomized: a gate that flakes teaches people to ignore gates.  The
    # budget keeps the six cases inside ten seconds of tier-1.
    run_state_machine_as_test(
        machine,
        settings=settings(
            max_examples=12,
            stateful_step_count=14,
            deadline=None,
            derandomize=True,
            database=None,
        ),
    )
