"""Scenario builders for ``benchmarks/smoke.py``.

Each builder materializes one synthetic workload family with one pending
base deletion, so the smoke run and the tests that re-run it measure the
same pre-built scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.constraints import ConstraintSolver
from repro.datalog import MaterializedView, compute_tp_fixpoint
from repro.maintenance import DeletionRequest
from repro.workloads import (
    WorkloadSpec,
    deletion_stream,
    make_layered_program,
    make_chain_program,
    make_interval_join_program,
    make_interval_program,
    make_path_graph_edges,
    make_transitive_closure_program,
)

#: Named sizes of the layered workload.
SIZE_PARAMETERS: Dict[str, Dict[str, int]] = {
    "small": {"base_facts": 8, "layers": 2},
    "medium": {"base_facts": 16, "layers": 3},
    "large": {"base_facts": 28, "layers": 3},
}


@dataclass
class DeletionScenario:
    """Everything one deletion benchmark needs, pre-built once."""

    spec: WorkloadSpec
    solver: ConstraintSolver
    view: MaterializedView
    request: DeletionRequest

    @property
    def program(self):
        return self.spec.program


def build_layered_deletion_scenario(size: str, seed: int = 1) -> DeletionScenario:
    """A layered (duplicate-free) workload with one pending base deletion."""
    parameters = SIZE_PARAMETERS[size]
    spec = make_layered_program(
        base_facts=parameters["base_facts"],
        layers=parameters["layers"],
        predicates_per_layer=2,
        fanin=2,
        seed=seed,
    )
    solver = ConstraintSolver()
    view = compute_tp_fixpoint(spec.program, solver)
    request = deletion_stream(spec, 1, seed=seed)[0]
    return DeletionScenario(spec, solver, view, request)


def build_chain_deletion_scenario(depth: int, base_facts: int = 12) -> DeletionScenario:
    """A deep chain workload (propagation-depth stress)."""
    spec = make_chain_program(base_facts=base_facts, depth=depth)
    solver = ConstraintSolver()
    view = compute_tp_fixpoint(spec.program, solver)
    request = deletion_stream(spec, 1, seed=3)[0]
    return DeletionScenario(spec, solver, view, request)


def build_interval_deletion_scenario(predicates: int = 4) -> DeletionScenario:
    """A numeric-interval workload with overlapping (duplicate) entries."""
    spec = make_interval_program(
        predicates=predicates, intervals_per_predicate=3, width=40, seed=2
    )
    solver = ConstraintSolver()
    view = compute_tp_fixpoint(spec.program, solver)
    request = deletion_stream(spec, 1, seed=2)[0]
    return DeletionScenario(spec, solver, view, request)


def build_interval_join_deletion_scenario(
    ground_facts: int = 6, pairs: int = 2, seed: int = 2
) -> DeletionScenario:
    """Ground × interval joins (range-posting + child-support index regime).

    Deletes a point inside the interval base facts, so the propagation
    touches many overlapping entries while the view stays far larger than
    the affected derivation set -- the shape where the child-support index
    and the interval range postings pay off.
    """
    spec = make_interval_join_program(
        ground_facts=ground_facts,
        intervals_per_predicate=3,
        pairs=pairs,
        width=40,
        seed=seed,
    )
    solver = ConstraintSolver()
    view = compute_tp_fixpoint(spec.program, solver)
    request = deletion_stream(spec, 1, seed=seed, predicate="iv0")[0]
    return DeletionScenario(spec, solver, view, request)


def build_tc_deletion_scenario(length: int = 10) -> DeletionScenario:
    """A recursive transitive-closure workload over a path graph."""
    spec = make_transitive_closure_program(make_path_graph_edges(length))
    solver = ConstraintSolver()
    view = compute_tp_fixpoint(spec.program, solver)
    request = deletion_stream(spec, 1, seed=4)[0]
    return DeletionScenario(spec, solver, view, request)
