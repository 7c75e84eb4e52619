"""Maintaining a view across a whole stream of updates.

The paper's algorithms handle one update at a time; this example shows the
bookkeeping a real deployment needs on top of them, provided by
:class:`repro.stream.StreamScheduler`:

* a synthetic layered view is materialized once,
* a mixed stream of deletions and insertions is applied incrementally
  (Straight Delete for deletions, Algorithm 3 for insertions),
* the *effective program* -- original rules plus the rewrites accumulated by
  the stream -- is tracked so the result can be verified against its least
  model (the declarative semantics of the whole stream), and
* the per-update statistics show where the work went.

Run with::

    python examples/update_streams.py
"""

from __future__ import annotations

from repro.constraints import ConstraintSolver
from repro.maintenance import MaintenanceStats
from repro.stream import StreamOptions, StreamScheduler
from repro.workloads import make_layered_program, mixed_stream


def main() -> None:
    solver = ConstraintSolver()
    spec = make_layered_program(
        base_facts=12, layers=3, predicates_per_layer=2, fanin=2, seed=42
    )
    print(f"Workload: {spec.description}")

    one_at_a_time = StreamScheduler(
        spec.program, solver, options=StreamOptions(deletion_algorithm="stdel")
    )
    print(f"Materialized view: {len(one_at_a_time.view)} entries")
    top = spec.top_predicates[0]
    print(f"|{top}| = {len(one_at_a_time.query(top))} instances\n")

    stream = mixed_stream(spec, deletions=4, insertions=4, seed=7)
    print(f"Applying {len(stream.requests)} updates "
          f"({len(stream.deletions())} deletions, {len(stream.insertions())} insertions)...")
    sequential = MaintenanceStats()
    for request in stream.requests:
        # A batch of one: the per-request path.
        result = one_at_a_time.apply_batch((request,))
        assert result.ok, result.failed_units
        stats = result.stats.totals()
        sequential.merge(stats)
        print(f"  {request}  ->  view has {len(result.view)} entries "
              f"({stats.solver_calls} solver calls)")

    print()
    print(f"Totals: {len(stream.deletions())} deletions, "
          f"{len(stream.insertions())} insertions, "
          f"{sequential.solver_calls} solver calls, "
          f"{sequential.replaced_entries} in-place constraint replacements")
    print(f"|{top}| = {len(one_at_a_time.query(top))} instances")

    print("\nVerifying against the declarative semantics of the whole stream ...")
    assert one_at_a_time.verify(), "incremental view diverged from the declarative semantics"
    print("OK: the incrementally maintained view equals the least model of the "
          "effective (rewritten) program.")

    # The same stream as ONE coalesced batch through the update-stream
    # subsystem: one StDel pass seeded with every deletion, one P_ADD
    # fixpoint seeded with every insertion, per independent stratum.
    print("\nReplaying the same stream as one coalesced batch ...")
    scheduler = StreamScheduler(spec.program, ConstraintSolver())
    result = scheduler.apply_batch(stream.requests)
    totals = result.stats.totals()
    print(f"  {result.stats.submitted} requests -> {result.stats.applied} after "
          f"coalescing, {len(result.stats.units)} stratum unit(s)")
    print(f"  batched counters: {totals.solver_calls} solver calls vs "
          f"{sequential.solver_calls} one-at-a-time")
    batched = scheduler.query(top)
    assert batched == one_at_a_time.query(top), (
        "batched application diverged from sequential"
    )
    print(f"OK: batched |{top}| matches the one-at-a-time result "
          f"({len(batched)} instances).")


if __name__ == "__main__":
    main()
