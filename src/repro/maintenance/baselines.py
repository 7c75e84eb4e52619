"""Non-incremental baselines.

The paper's efficiency claims are relative: StDel against Extended DRed,
both against recomputing the materialized view from scratch, and the
``W_P`` approach against re-materialization under ``T_P``.  The baselines
here give the benchmarks their "from scratch" comparison points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.constraints.simplify import simplify
from repro.constraints.solver import ConstraintSolver
from repro.datalog.atoms import ConstrainedAtom
from repro.datalog.fixpoint import FixpointEngine
from repro.datalog.join import EngineOptions, make_fresh_factory
from repro.datalog.program import ConstrainedDatabase
from repro.datalog.view import MaterializedView
from repro.maintenance.common import narrow_overlapping, narrowed_external_entries
from repro.maintenance.declarative import (
    build_add_set,
    deletion_rewrite,
    insertion_rewrite,
)
from repro.maintenance.requests import MaintenanceStats


@dataclass
class RecomputationResult:
    """Outcome of a from-scratch recomputation baseline."""

    view: MaterializedView
    program: ConstrainedDatabase
    stats: MaintenanceStats = field(default_factory=MaintenanceStats)


def full_recompute(
    program: ConstrainedDatabase,
    solver: Optional[ConstraintSolver] = None,
    options: Optional[EngineOptions] = None,
) -> RecomputationResult:
    """Materialize the view from scratch with ``T_P ↑ ω(∅)``."""
    engine = FixpointEngine(program, solver, options or EngineOptions())
    view = engine.compute()
    stats = MaintenanceStats()
    stats.rederived_entries = len(view)
    return RecomputationResult(view, program, stats)


def recompute_after_deletion(
    program: ConstrainedDatabase,
    view: MaterializedView,
    atom: ConstrainedAtom,
    solver: Optional[ConstraintSolver] = None,
    options: Optional[EngineOptions] = None,
) -> RecomputationResult:
    """Deletion baseline: rewrite the program and recompute from scratch.

    This computes the *declarative semantics* of the deletion directly
    (``T_{P'} ↑ ω(∅)``); it is both the correctness yardstick used by the
    tests and the non-incremental cost the incremental algorithms are
    measured against.

    Entries the view acquired through external insertions (Algorithm 3,
    a leaf with the reserved clause number 0) are not program clauses; they
    are treated as extra EDB -- narrowed by the deletion like any rewritten clause and seeded
    into the recomputation -- so interleaved insert/delete streams stay
    comparable against the incremental algorithms.
    """
    solver = solver or ConstraintSolver()
    # Restrict to instances present in the view, like the incremental
    # algorithms do: deleting something absent must be a no-op.
    effective = options or EngineOptions()
    factory = make_fresh_factory(program, view, (atom,))
    del_atoms = tuple(
        ConstrainedAtom(narrowing.entry.atom, simplify(overlap, solver))
        for narrowing in narrow_overlapping(
            view, (atom,), solver, factory, effective, overlaps=True
        )
        for overlap in narrowing.overlaps
    )
    rewritten = deletion_rewrite(program, del_atoms or (atom,), factory)
    engine = FixpointEngine(rewritten, solver, effective)
    external = narrowed_external_entries(
        view, del_atoms or (atom,), solver, factory, effective
    )
    initial = MaterializedView(external) if external else None
    new_view = engine.compute(initial=initial)
    stats = MaintenanceStats()
    stats.seed_atoms = len(del_atoms)
    stats.rederived_entries = len(new_view)
    return RecomputationResult(new_view, rewritten, stats)


def recompute_after_insertion(
    program: ConstrainedDatabase,
    view: MaterializedView,
    atom: ConstrainedAtom,
    solver: Optional[ConstraintSolver] = None,
    options: Optional[EngineOptions] = None,
) -> RecomputationResult:
    """Insertion baseline: extend the program and recompute from scratch."""
    solver = solver or ConstraintSolver()
    effective = options or EngineOptions()
    add_atoms = build_add_set(view, atom, solver, options=effective)
    rewritten = insertion_rewrite(program, add_atoms)
    engine = FixpointEngine(rewritten, solver, effective)
    new_view = engine.compute()
    stats = MaintenanceStats()
    stats.seed_atoms = len(add_atoms)
    stats.rederived_entries = len(new_view)
    return RecomputationResult(new_view, rewritten, stats)
