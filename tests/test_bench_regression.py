"""Tier-1 wiring of the benchmark counter-regression gate.

Re-runs the deterministic smoke families (everything except the slow,
counterless external-maintenance family) and diffs their operation counters
against the committed ``BENCH_smoke.json`` via
:func:`benchmarks.check_regression.compare_snapshots`.  Counters are
machine-independent, so this runs as an ordinary test: a PR that regresses
``derivation_attempts`` or ``solver_calls`` by more than 20% fails ``pytest``
outright and must either fix the regression or consciously re-baseline the
snapshot.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from benchmarks.check_regression import (  # noqa: E402
    check_interning_family,
    check_obs_snapshot,
    check_persist_snapshot,
    check_serve_snapshot,
    compare_snapshots,
    iter_counters,
)
from benchmarks.obs import (  # noqa: E402
    run_exporter_benchmark,
    run_overhead_benchmark,
)
from benchmarks.persist import run_persist_benchmark  # noqa: E402
from benchmarks.serve import run_serve_benchmark  # noqa: E402
from benchmarks.smoke import run_smoke  # noqa: E402

BASELINE_PATH = REPO_ROOT / "BENCH_smoke.json"
SERVE_BASELINE_PATH = REPO_ROOT / "BENCH_serve.json"
PERSIST_BASELINE_PATH = REPO_ROOT / "BENCH_persist.json"
OBS_BASELINE_PATH = REPO_ROOT / "BENCH_obs.json"


@pytest.fixture(scope="module")
def baseline():
    return json.loads(BASELINE_PATH.read_text())


@pytest.fixture(scope="module")
def current():
    return {"results": run_smoke(include_external=False)}


def test_baseline_snapshot_has_gated_counters(baseline):
    counters = dict(iter_counters(baseline["results"]))
    assert counters, "committed BENCH_smoke.json carries no gated counters"
    assert any(key.endswith("derivation_attempts") for key in counters)
    assert any(key.endswith("solver_calls") for key in counters)


def test_counters_within_budget_of_committed_baseline(baseline, current):
    regressions = compare_snapshots(baseline, current, threshold=0.2)
    assert not regressions, (
        "operation counters regressed >20% vs committed BENCH_smoke.json "
        "(fix the regression or consciously re-baseline with "
        "`PYTHONPATH=src python benchmarks/smoke.py`): "
        + ", ".join(f"{key}: {base} -> {now}" for key, base, now in regressions)
    )


def test_interval_join_counters_hit_the_acceptance_ratios(baseline, current):
    """The committed (and freshly re-run) interval-join counters show the
    delta-proportional shape: StDel step-3 support probes at most 25% of the
    per-pair view scans they replaced, and range-posting enumeration
    strictly below the unbound-bucket fallback."""
    for snapshot in (baseline["results"], current["results"]):
        stdel = snapshot["deletion_interval_join"]["stdel"]["stats"]
        assert stdel["support_probes"] * 4 <= stdel["stdel_scan_equivalent"]
        fixpoint = snapshot["fixpoint_interval_join"]
        assert (
            fixpoint["derivation_attempts"]
            < fixpoint["derivation_attempts_unranged"]
        )


def test_compare_snapshots_flags_synthetic_regression(baseline):
    inflated = json.loads(json.dumps(baseline))  # deep copy
    stats = inflated["results"]["deletion_recursive_tc6"]["dred"]["stats"]
    stats["solver_calls"] = stats["solver_calls"] * 2 + 100
    regressions = compare_snapshots(baseline, inflated, threshold=0.2)
    assert any(key == "deletion_recursive_tc6.dred.solver_calls" for key, _, _ in regressions)


def test_compare_snapshots_flags_missing_counter_clearly(baseline):
    """A counter present in the baseline but gone from the fresh run must be
    reported (current value ``None``), not silently skipped or KeyError'd."""
    gutted = json.loads(json.dumps(baseline))  # deep copy
    del gutted["results"]["deletion_recursive_tc6"]["dred"]["stats"]["solver_calls"]
    regressions = compare_snapshots(baseline, gutted, threshold=0.2)
    assert ("deletion_recursive_tc6.dred.solver_calls" in {k for k, _, _ in regressions})
    missing = next(r for r in regressions if r[0].endswith("dred.solver_calls"))
    assert missing[2] is None


def test_compare_snapshots_ignores_families_absent_from_current(baseline):
    """The tier-1 gate runs without the slow external family; whole families
    missing from the current snapshot are not regressions."""
    gutted = json.loads(json.dumps(baseline))  # deep copy
    gutted["results"].pop("deletion_recursive_tc6")
    regressions = compare_snapshots(baseline, gutted, threshold=0.2)
    assert not any(key.startswith("deletion_recursive_tc6.") for key, _, _ in regressions)


def test_interning_family_passes_the_gate(baseline, current):
    """Hash-consing's acceptance bar, on the committed and the fresh
    snapshot: the pointer-identity fast paths fired (subsumption and
    subtraction answered without counted solver calls), the per-node
    canonical/satisfiability memos were hit, construction shared structure,
    and the coalescer cancelled the identity pair for free."""
    assert check_interning_family(baseline) == []
    assert check_interning_family(current) == []


def test_interning_gate_flags_dead_identity_paths(baseline):
    stalled = json.loads(json.dumps(baseline))  # deep copy
    stalled["results"]["constraint_interning"]["intern"]["identity_hits"] = 0
    problems = check_interning_family(stalled)
    assert any("identity_hits" in problem for problem in problems)


def test_interning_gate_flags_paid_coalescer_cancellation(baseline):
    paying = json.loads(json.dumps(baseline))  # deep copy
    paying["results"]["constraint_interning"]["coalesce"]["solver_calls"] = 2
    problems = check_interning_family(paying)
    assert any("identity short-circuit" in problem for problem in problems)


def test_interning_gate_flags_unshared_construction(baseline):
    cold = json.loads(json.dumps(baseline))  # deep copy
    cold["results"]["constraint_interning"]["intern"]["hit_ratio"] = 0.05
    problems = check_interning_family(cold)
    assert any("hit ratio" in problem for problem in problems)


def test_batched_deletion_never_costs_more_than_sequential(baseline, current):
    """The stream subsystem's amortization bar, enforced on the committed and
    the freshly-run snapshot: for each algorithm the batched tc14 deletion
    pass performs at most the sequential attempts+calls, and strictly fewer
    in total; the coalesced mixed batch likewise beats one-at-a-time."""
    for snapshot in (baseline["results"], current["results"]):
        family = snapshot["deletion_batch_tc14"]
        for algorithm in ("stdel", "dred"):
            sequential = family[f"{algorithm}_sequential"]["stats"]
            batched = family[f"{algorithm}_batched"]["stats"]
            cost_sequential = (
                sequential["derivation_attempts"] + sequential["solver_calls"]
            )
            cost_batched = batched["derivation_attempts"] + batched["solver_calls"]
            assert cost_batched < cost_sequential, algorithm
        mixed = snapshot["stream_mixed_batch"]
        sequential = mixed["sequential"]["stats"]
        batched = mixed["batched"]["stats"]
        assert (
            batched["derivation_attempts"] + batched["solver_calls"]
            < sequential["derivation_attempts"] + sequential["solver_calls"]
        )
        # The batch genuinely coalesced: the injected duplicate and the
        # insert-then-delete pair never reached a maintenance pass.
        assert mixed["coalesce"]["deduplicated"] >= 1
        assert mixed["coalesce"]["cancelled"] >= 1


@pytest.fixture(scope="module")
def serve_baseline():
    return json.loads(SERVE_BASELINE_PATH.read_text())


@pytest.fixture(scope="module")
def serve_current():
    # A reduced stream (3 churn rounds) keeps the tier-1 run short; the
    # gated relationships (pipelined beats serialized, commits genuinely
    # overlap, final views match) are scale-independent.
    return {"results": {"serve_mixed_load": run_serve_benchmark(rounds=3)}}


def test_committed_serve_snapshot_passes_the_gate(serve_baseline):
    assert check_serve_snapshot(serve_baseline) == []


def test_fresh_serve_run_passes_the_gate(serve_current):
    """The deterministic half of the serve gate, re-proven on every pytest
    run: commits actually overlapped, the serialized run reports none, and
    both runs converge to the identical final view.  "Pipelined beats
    serialized" races two wall clocks, so it is left to the ``serve`` CI
    job, which re-runs the full gate on a fresh snapshot."""
    problems = [
        problem
        for problem in check_serve_snapshot(serve_current)
        if "beat the serialized baseline" not in problem
    ]
    assert problems == []


def test_serve_gate_flags_a_regressed_pipeline(serve_baseline):
    slowed = json.loads(json.dumps(serve_baseline))  # deep copy
    family = slowed["results"]["serve_mixed_load"]
    family["pipelined"]["updates_per_second"] = (
        family["serialized"]["updates_per_second"] / 2
    )
    problems = check_serve_snapshot(slowed)
    assert any("beat the serialized baseline" in problem for problem in problems)


def test_serve_gate_flags_a_serialized_pipeline(serve_baseline):
    stuck = json.loads(json.dumps(serve_baseline))  # deep copy
    stuck["results"]["serve_mixed_load"]["pipelined"]["concurrent_commits"] = 0
    problems = check_serve_snapshot(stuck)
    assert any("concurrent_commits" in problem for problem in problems)


def test_serve_gate_flags_divergent_final_views(serve_baseline):
    diverged = json.loads(json.dumps(serve_baseline))  # deep copy
    diverged["results"]["serve_mixed_load"]["final_state_match"] = False
    problems = check_serve_snapshot(diverged)
    assert any("maintenance-equivalent" in problem for problem in problems)


@pytest.fixture(scope="module")
def persist_baseline():
    return json.loads(PERSIST_BASELINE_PATH.read_text())


@pytest.fixture(scope="module")
def persist_current():
    # A reduced churn keeps the tier-1 run short; the gated relationships
    # (cold start beats recompute, dirty-only shard rewrite, WAL tail
    # actually replayed, state identical) are scale-independent.
    return {"results": {"persist_cold_start": run_persist_benchmark(rounds=10)}}


def test_committed_persist_snapshot_passes_the_gate(persist_baseline):
    assert check_persist_snapshot(persist_baseline) == []


def test_fresh_persist_run_passes_the_gate(persist_current):
    """The deterministic half of the persist gate, re-proven on every
    pytest run: checkpoints wrote bytes, the second one reused unchanged
    shards, the WAL tail was replayed, and recovery lands key-identical to
    the recompute.  "Cold start beats recompute" races two wall clocks, so
    it is left to the ``durability`` CI job, which re-runs the full gate on
    a fresh snapshot."""
    problems = [
        problem
        for problem in check_persist_snapshot(persist_current)
        if "must beat full recompute" not in problem
    ]
    assert problems == []


def test_persist_gate_flags_a_slow_cold_start(persist_baseline):
    slowed = json.loads(json.dumps(persist_baseline))  # deep copy
    family = slowed["results"]["persist_cold_start"]
    family["cold_start_seconds"] = family["recompute_seconds"] * 2
    problems = check_persist_snapshot(slowed)
    assert any("beat full recompute" in problem for problem in problems)


def test_persist_gate_flags_divergent_recovery(persist_baseline):
    diverged = json.loads(json.dumps(persist_baseline))  # deep copy
    diverged["results"]["persist_cold_start"]["state_match"] = False
    problems = check_persist_snapshot(diverged)
    assert any("maintenance-equivalent" in problem for problem in problems)


def test_persist_gate_flags_full_shard_rewrites(persist_baseline):
    rewriting = json.loads(json.dumps(persist_baseline))  # deep copy
    rewriting["results"]["persist_cold_start"]["shards_reused"] = 0
    problems = check_persist_snapshot(rewriting)
    assert any("dirty-only rewrite" in problem for problem in problems)


def test_persist_gate_flags_an_unexercised_replay_path(persist_baseline):
    no_tail = json.loads(json.dumps(persist_baseline))  # deep copy
    no_tail["results"]["persist_cold_start"]["replayed_batches"] = 0
    problems = check_persist_snapshot(no_tail)
    assert any("unexercised" in problem for problem in problems)


@pytest.fixture(scope="module")
def obs_baseline():
    return json.loads(OBS_BASELINE_PATH.read_text())


def test_committed_obs_snapshot_passes_the_gate(obs_baseline):
    assert check_obs_snapshot(obs_baseline) == []


def test_fresh_obs_run_traces_verify_and_exporters_drain():
    """The deterministic half of the obs gate, re-proven on every pytest
    run: a reduced instrumented workload still yields a complete, clean
    drain -> commit span tree for every applied batch, and the exporters
    drain events.  The throughput comparison itself stays in the dedicated
    CI job at full scale -- at this reduced scale it would be noise, and
    asserting on noise makes tier-1 flaky."""
    overhead = run_overhead_benchmark(rounds=2, repeat=1)
    enabled = overhead["enabled"]
    assert enabled["trace_problems"] == 0
    assert enabled["traces_complete"] >= 1
    assert enabled["updates_per_second"] > 0
    assert overhead["disabled"]["updates_per_second"] > 0
    exporters = run_exporter_benchmark(events_target=2000)
    assert exporters["file_events_per_second"] > 0
    assert exporters["ring_events_per_second"] > 0


def test_obs_gate_flags_overhead_beyond_budget(obs_baseline):
    slowed = json.loads(json.dumps(obs_baseline))  # deep copy
    family = slowed["results"]["obs_overhead"]
    family["enabled"]["updates_per_second"] = (
        family["disabled"]["updates_per_second"] / 2
    )
    problems = check_obs_snapshot(slowed)
    assert any("near-zero-overhead" in problem for problem in problems)


def test_obs_gate_flags_unverified_traces(obs_baseline):
    dropped = json.loads(json.dumps(obs_baseline))  # deep copy
    dropped["results"]["obs_overhead"]["enabled"]["trace_problems"] = 3
    problems = check_obs_snapshot(dropped)
    assert any("verify clean" in problem for problem in problems)


def test_obs_gate_flags_an_unexercised_tracing_path(obs_baseline):
    untraced = json.loads(json.dumps(obs_baseline))  # deep copy
    untraced["results"]["obs_overhead"]["enabled"]["traces_complete"] = 0
    problems = check_obs_snapshot(untraced)
    assert any("unexercised" in problem for problem in problems)


def test_obs_gate_flags_dead_exporters(obs_baseline):
    stalled = json.loads(json.dumps(obs_baseline))  # deep copy
    stalled["results"]["obs_exporters"]["file_events_per_second"] = 0
    problems = check_obs_snapshot(stalled)
    assert any("file_events_per_second" in problem for problem in problems)


def test_stream_batch_checks_out_only_its_write_closure(baseline, current):
    """Predicate-sharded storage: copy-on-write checkouts stay inside the
    units' write closures (at most one clone per shard per maintenance pass
    -- one deletion pass, one insertion pass), and on the two-tower
    sub-measurement the closure is strictly smaller than the view's
    predicate set, so the untouched tower's shards are provably never
    copied."""
    for snapshot in (baseline["results"], current["results"]):
        mixed = snapshot["stream_mixed_batch"]
        assert 0 < mixed["shard_checkouts"] <= 2 * mixed["closure_predicates"]
        tower = mixed["tower"]
        assert 0 < tower["shard_checkouts"] <= 2 * tower["closure_predicates"]
        assert tower["closure_predicates"] < tower["view_predicates"]
