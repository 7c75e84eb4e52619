"""Per-request application of update streams: batches of one.

The stream scheduler applying one request per batch is the per-request
reference the batched path is compared against (these tests drove it
through the ``ViewMaintainer`` façade before that class was folded into the
scheduler).
"""

from __future__ import annotations

import pytest

from repro.constraints import ConstraintSolver
from repro.datalog import parse_constrained_atom
from repro.errors import MaintenanceError
from repro.maintenance import DeletionRequest, InsertionRequest
from repro.stream import StreamOptions, StreamScheduler
from repro.workloads import make_layered_program, mixed_stream

UNIVERSE = tuple(range(0, 15))


def per_request_scheduler(program, solver, view=None, deletion_algorithm="stdel"):
    return StreamScheduler(
        program,
        solver,
        view=view,
        options=StreamOptions(
            deletion_algorithm=deletion_algorithm, max_workers=1
        ),
    )


def apply_each(scheduler, requests):
    """Apply *requests* one batch each; returns the per-request results."""
    results = [scheduler.apply_batch((request,)) for request in requests]
    assert all(result.ok for result in results)
    return results


class TestViewMaintainerBasics:
    def test_initial_view_materialized_when_not_given(self, example45_program, solver):
        scheduler = per_request_scheduler(example45_program, solver)
        assert len(scheduler.view) == 5
        assert scheduler.effective_program == example45_program

    def test_existing_view_reused(self, example45_program, example45_view, solver):
        scheduler = per_request_scheduler(
            example45_program, solver, view=example45_view.copy()
        )
        assert len(scheduler.view) == len(example45_view)

    def test_invalid_algorithm_rejected(self, example45_program, solver):
        with pytest.raises(MaintenanceError):
            per_request_scheduler(example45_program, solver, deletion_algorithm="magic")

    def test_invalid_request_rejected(self, example45_program, solver):
        scheduler = per_request_scheduler(example45_program, solver)
        with pytest.raises(MaintenanceError):
            scheduler.apply_batch(("not a request",))  # type: ignore[arg-type]


class TestApplyingUpdates:
    def test_delete_then_insert_sequence(self, example45_program, solver):
        scheduler = per_request_scheduler(example45_program, solver)
        apply_each(
            scheduler,
            [
                DeletionRequest(parse_constrained_atom("b(X) <- X = 6")),
                InsertionRequest(parse_constrained_atom("b(X) <- X = 1")),
            ],
        )
        b_values = {v for (v,) in scheduler.query("b", UNIVERSE)}
        assert 6 not in b_values and 1 in b_values
        assert scheduler.verify(UNIVERSE)

    def test_effective_program_grows_with_updates(self, example45_program, solver):
        scheduler = per_request_scheduler(example45_program, solver)
        apply_each(
            scheduler,
            [
                DeletionRequest(parse_constrained_atom("b(X) <- X = 6")),
                InsertionRequest(parse_constrained_atom("d(X) <- X = 2")),
            ],
        )
        assert scheduler.effective_program != example45_program
        assert len(scheduler.effective_program) == len(example45_program) + 1

    def test_report_counts(self, example45_program, solver):
        scheduler = per_request_scheduler(example45_program, solver)
        results = apply_each(
            scheduler,
            [
                DeletionRequest(parse_constrained_atom("b(X) <- X = 6")),
                DeletionRequest(parse_constrained_atom("b(X) <- X = 7")),
                InsertionRequest(parse_constrained_atom("b(X) <- X = 1")),
            ],
        )
        batches = scheduler.batches
        assert len(batches) == 3
        assert sum(len(result.coalesced.deletions) for result in results) == 2
        assert sum(len(result.coalesced.insertions) for result in results) == 1
        assert sum(stats.solver_calls for stats in batches) > 0
        assert sum(stats.totals().replaced_entries for stats in batches) > 0

    def test_sequential_deletions_with_dred_thread_the_program(
        self, example45_program, solver
    ):
        scheduler = per_request_scheduler(
            example45_program, solver, deletion_algorithm="dred"
        )
        apply_each(
            scheduler,
            [
                DeletionRequest(parse_constrained_atom("b(X) <- X = 6")),
                DeletionRequest(parse_constrained_atom("b(X) <- X = 7")),
            ],
        )
        b_values = {v for (v,) in scheduler.query("b", UNIVERSE)}
        assert 6 not in b_values and 7 not in b_values
        assert scheduler.verify(UNIVERSE)

    def test_stream_on_layered_program_verifies(self):
        solver = ConstraintSolver()
        spec = make_layered_program(base_facts=5, layers=2, seed=8)
        stream = mixed_stream(spec, deletions=2, insertions=2, seed=3)
        scheduler = per_request_scheduler(spec.program, solver)
        apply_each(scheduler, stream.requests)
        assert scheduler.verify()

    def test_stdel_and_dred_streams_agree(self):
        solver = ConstraintSolver()
        spec = make_layered_program(base_facts=5, layers=2, seed=12)
        stream = mixed_stream(spec, deletions=2, insertions=1, seed=4)
        stdel = per_request_scheduler(spec.program, solver, deletion_algorithm="stdel")
        dred = per_request_scheduler(spec.program, solver, deletion_algorithm="dred")
        apply_each(stdel, stream.requests)
        apply_each(dred, stream.requests)
        assert stdel.view.instances(solver) == dred.view.instances(solver)
