"""Differential properties of the analyzer's precomputed closure tables.

Two executable soundness statements over the same 60-seed workload harness
the maintenance differential tests use:

* **Closure superset.**  For every update applied one-at-a-time, the set of
  predicates whose entry keys actually changed must be contained in the
  analyzer's write closure of the request's predicate -- the static table
  over-approximates every runtime propagation cone.
* **Precomputed == runtime.**  The report's write closures must equal a dependency-graph walk done here, from the program's clause
  -> body-predicate edges: the scheduler checks each batch out to the union
  of its requests' closures and never walks the graph itself, so this is
  the audit that the tables it trusts are right.
"""

from __future__ import annotations

import pytest

from repro.analysis import analyze_program
from repro.constraints import ConstraintSolver
from repro.datalog import compute_tp_fixpoint
from repro.maintenance import StraightDelete, insert_atom
from repro.stream import StreamScheduler
from repro.workloads import (
    deletion_stream,
    insertion_stream,
    make_chain_program,
    make_interval_join_program,
    make_interval_program,
    make_layered_program,
    make_random_graph_edges,
    make_transitive_closure_program,
)

SEEDS = range(60)


def build_spec(seed: int):
    """Same family cycle as tests/integration/test_differential.py."""
    family = seed % 5
    if family == 0:
        return make_layered_program(
            base_facts=3 + seed % 3,
            layers=1 + seed % 3,
            predicates_per_layer=1 + seed % 2,
            fanin=1 + seed % 2,
            seed=seed,
        )
    if family == 1:
        return make_chain_program(base_facts=3 + seed % 3, depth=1 + seed % 4)
    if family == 2:
        return make_interval_program(
            predicates=2 + seed % 2, intervals_per_predicate=2, width=30, seed=seed
        )
    if family == 4:
        return make_interval_join_program(
            ground_facts=2 + seed % 3,
            intervals_per_predicate=2,
            pairs=1 + seed % 2,
            width=24,
            seed=seed,
        )
    edges = make_random_graph_edges(4 + seed % 3, 4 + seed % 4, seed=seed, acyclic=True)
    if not edges:
        edges = (("n0", "n1"),)
    return make_transitive_closure_program(edges)


def build_stream(spec, seed: int):
    total_base_facts = sum(len(facts) for facts in spec.base_facts.values())
    deletions = list(deletion_stream(spec, min(3, total_base_facts), seed=seed))
    insertions = list(insertion_stream(spec, 1 + seed % 2, seed=seed))
    stream = []
    while deletions or insertions:
        if deletions:
            stream.append(("delete", deletions.pop(0)))
        if insertions:
            stream.append(("insert", insertions.pop(0)))
    return stream


def keys_by_predicate(view):
    result = {}
    for entry in view:
        result.setdefault(entry.predicate, set()).add(str(entry.key()))
    return result


@pytest.mark.parametrize("seed", SEEDS)
def test_analyzer_closures_cover_observed_runtime_writes(seed):
    spec = build_spec(seed)
    report = analyze_program(spec.program)
    solver = ConstraintSolver()
    view = compute_tp_fixpoint(spec.program, solver)

    for step, (kind, request) in enumerate(build_stream(spec, seed)):
        before = keys_by_predicate(view)
        if kind == "insert":
            view = insert_atom(spec.program, view, request.atom, solver).view
        else:
            view = StraightDelete(spec.program, solver).delete(view, request).view
        after = keys_by_predicate(view)
        changed = {
            predicate
            for predicate in set(before) | set(after)
            if before.get(predicate, set()) != after.get(predicate, set())
        }
        closure = report.write_closures[request.atom.predicate]
        assert changed <= closure, (
            f"step {step} ({kind} {request.atom.predicate}): predicates "
            f"{sorted(changed - closure)} changed outside the static write "
            f"closure {sorted(closure)}"
        )


def walked_closure(edges, predicate):
    """*predicate* plus everything reachable along body -> head edges."""
    seen, frontier = {predicate}, [predicate]
    while frontier:
        for successor in edges.get(frontier.pop(), ()):
            if successor not in seen:
                seen.add(successor)
                frontier.append(successor)
    return frozenset(seen)


@pytest.mark.parametrize("seed", SEEDS)
def test_analyzer_closures_equal_the_dependency_walk(seed):
    spec = build_spec(seed)
    report = analyze_program(spec.program)
    edges = spec.program.predicate_dependency_edges()
    assert set(report.write_closures) == set(edges)
    for predicate in edges:
        assert report.write_closures[predicate] == walked_closure(edges, predicate)

    # The scheduler's write scope for the whole stream as one batch is the
    # union of the walked closures of its requests' predicates.
    stream = build_stream(spec, seed)
    scheduler = StreamScheduler(spec.program, ConstraintSolver())
    prepared = scheduler.prepare_batch([request for _, request in stream])
    requests = prepared.coalesced.deletions + prepared.coalesced.insertions
    assert prepared.write_scope == frozenset().union(
        *(walked_closure(edges, request.atom.predicate) for request in requests)
    )
