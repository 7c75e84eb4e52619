"""The in-process workloads: set-up, the measured loop, the correctness checks.

Each ``run_*`` function builds its inputs with :mod:`gen`, drives the
program through its public API only, and returns an :class:`Outcome`.  The
checks never run inside a timed call: cheap ones (an answer against its
model) run between timed calls, the rest (``verify()``, whole-view instance
comparisons) in ``Outcome.run_checks`` after the loop.

**Timing.**  The sandbox this runs in changes speed by up to 2x for seconds
at a time, so a raw latency says more about the neighbours than about the
program.  Every timed call is therefore bracketed by a fixed *yardstick*
(:func:`yardstick`, ~2 ms of dict/tuple/str work that no commit can change)
and its duration is divided by the slowdown the latest yardstick readings
show relative to :data:`YARDSTICK_REF_S`.  Reported times are "seconds at
reference speed"; the raw total and the mean slowdown are printed too.

**Episodes.**  Every deletion leaves a rewrite in the scheduler's effective
program, so update cost drifts upward with the age of a scheduler.  A run
that is time-boxed would otherwise report a median that depends on how many
updates fitted in the box.  The workloads here therefore run in *episodes*:
a fresh scheduler over the same initial view, a fixed number of updates,
repeat until the time is used.  Every episode has the same age profile, so
the median does not depend on how many were run.

**Fixed work.**  With ``Budget(None)`` (traced and ``--quick`` runs) every
loop runs a fixed number of rounds, so the program's own counts repeat
exactly from run to run.
"""

from __future__ import annotations

import functools
import gc
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import gen
from tracing import Tracer, self_times

from repro.constraints import ConstraintSolver
from repro.constraints.ast import conjoin, equals
from repro.constraints.intern import intern_stats
from repro.constraints.terms import Variable
from repro.datalog.atoms import Atom, ConstrainedAtom
from repro.datalog.clauses import Clause
from repro.datalog.program import ConstrainedDatabase
from repro.maintenance.requests import DeletionRequest, InsertionRequest
from repro.stream import StreamOptions, StreamScheduler, attach_changelog
from repro.workloads import (
    make_interval_join_program,
    make_law_enforcement_scenario,
    make_layered_program,
    make_random_graph_edges,
    make_transitive_closure_program,
)

_perf = time.perf_counter

#: What one :func:`yardstick` call takes on this sandbox when it is quiet.
#: Only fixes the scale of the reported times (any constant would do).
YARDSTICK_REF_S = 0.0017
#: A timed call is scaled by the median of this many latest yardstick
#: readings: one 2 ms reading is itself noisy (+-10 %), while the machine's
#: speed changes over seconds.
YARDSTICK_WINDOW = 9


def yardstick() -> float:
    """Seconds a fixed piece of interpreter work takes right now."""
    # No collection inside: the reading must not depend on the heap's size.
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = _perf()
        table = {}
        for index in range(5000):
            table[(index, str(index))] = index * index
        total = 0
        for key, value in table.items():
            total += hash(key) & value
        return _perf() - start
    finally:
        if enabled:
            gc.enable()


def _call(fn, *args):
    return fn(*args)


class Meter:
    """Times calls, scaled to reference speed (see the module docstring)."""

    def __init__(self, tracer: Optional[Tracer] = None, readings: int = 1) -> None:
        self._tracer = tracer
        self._wrapped: Dict[str, Callable] = {}
        #: Yardstick readings taken on each side of a timed call.
        self._readings = readings
        self._yardsticks: List[float] = []
        self.raw_s = 0.0
        self.scaled_s = 0.0
        #: The slowdown the latest timed call was scaled by.
        self.last_slowdown = 1.0
        #: ``name -> [count, self_s, total_s]`` of the wrapped entry points,
        #: counted inside timed calls only (traced runs).
        self.op_calls: Dict[str, List[float]] = {}

    def time(self, label: str, fn: Callable, *args, collect: bool = False):
        """Call ``fn(*args)``; returns ``(result, seconds at reference speed)``.

        *collect* runs a full garbage collection first (outside the timed
        part), so that a generation-2 pass -- tens of milliseconds on these
        heaps, landing in every third update or so -- is not charged to
        whichever call happens to cross the threshold.  The collector stays
        enabled during the call.

        When tracing, the call runs inside a ``harness.<label>`` span: the
        part of it no entry point covers is that span's self time.
        """
        tracer = self._tracer
        if collect:
            gc.collect()
        del self._yardsticks[:-YARDSTICK_WINDOW]
        for _ in range(self._readings):
            self.read()
        mark = len(self._yardsticks) - self._readings
        if tracer is None:
            start = _perf()
            result = fn(*args)
            raw = _perf() - start
        else:
            wrapped = self._wrapped.get(label)
            if wrapped is None:
                wrapped = self._wrapped[label] = tracer.wrap(
                    f"harness.{label}", _call, coarse=True
                )
            calls_before = tracer.thread_calls()
            start = _perf()
            result = wrapped(fn, *args)
            raw = _perf() - start
            for name, after in tracer.thread_calls().items():
                earlier = calls_before.get(name, (0, 0.0, 0.0))
                acc = self.op_calls.setdefault(name, [0, 0.0, 0.0])
                for slot in range(3):
                    acc[slot] += after[slot] - earlier[slot]
        for _ in range(self._readings):
            self.read()
        # The latest readings -- or, for a long call during which the
        # yardstick was read many times, all of those.
        window = self._yardsticks[min(mark, len(self._yardsticks) - YARDSTICK_WINDOW):]
        slowdown = self.last_slowdown = statistics.median(window) / YARDSTICK_REF_S
        self.raw_s += raw
        self.scaled_s += raw / slowdown
        return result, raw / slowdown

    def read(self) -> None:
        """Take one yardstick reading (callers waiting inside a long timed
        call use this to sample the machine's speed meanwhile)."""
        self._yardsticks.append(yardstick())

    @property
    def slowdown(self) -> float:
        """Time-weighted mean slowdown over everything timed so far."""
        return self.raw_s / self.scaled_s if self.scaled_s else 1.0


class Budget:
    """How long a loop may run: a time box, or a fixed count when *seconds*
    is ``None`` (traced and ``--quick`` runs do fixed work so that their
    counts repeat exactly)."""

    def __init__(self, seconds: Optional[float]) -> None:
        self.seconds = seconds

    def rounds(self, share: float, fixed: int, limit: Optional[int] = None):
        """Yield round numbers: *fixed* of them, or until *share* of the
        time box is used (at least one, at most *limit*)."""
        if self.seconds is None:
            yield from range(fixed)
            return
        deadline = _perf() + self.seconds * share
        number = 0
        while number == 0 or (_perf() < deadline and number != limit):
            yield number
            number += 1


@dataclass
class Outcome:
    """Everything one workload run produced."""

    #: Set-up times (seconds at reference speed), one per repetition.
    setup_s: List[float] = field(default_factory=list)
    #: Latency samples in milliseconds at reference speed.  Every workload
    #: alternates deletions and insertions, so ``delete_ms[i]`` and
    #: ``insert_ms[i]`` are the two halves of pair *i*.
    delete_ms: List[float] = field(default_factory=list)
    insert_ms: List[float] = field(default_factory=list)
    query_ms: List[float] = field(default_factory=list)
    #: Update requests applied and the (scaled) seconds they took.
    throughput_requests: int = 0
    throughput_s: float = 0.0
    peak_rss_mb: float = 0.0
    #: Operations attempted / failed (failed checks are added by ``run.py``).
    attempted: int = 0
    failed: int = 0
    #: ``check name -> passed``.
    checks: Dict[str, bool] = field(default_factory=dict)
    #: Workload-specific numbers (see README: "detail metrics").
    detail: Dict[str, float] = field(default_factory=dict)
    #: One :func:`batch_row` per applied batch, and (``serve-durable``) the
    #: rest of the server's dump; read by ``metrics.per_layer``.
    batches: List[Dict[str, object]] = field(default_factory=list)
    server: Dict[str, object] = field(default_factory=dict)
    view_entries: int = 0
    #: Mean machine slowdown over the timed calls, and their summed
    #: duration raw and at reference speed.
    slowdown: float = 1.0
    measured_raw_s: float = 0.0
    measured_s: float = 0.0
    #: Traced passes: wrapper totals at the end of the measured loop (whole
    #: pass / timed operations only) and ``intern_stats()`` at that moment.
    calls: Dict[str, Tuple[int, float, float]] = field(default_factory=dict)
    op_calls: Dict[str, Tuple[int, float, float]] = field(default_factory=dict)
    intern: Dict[str, object] = field(default_factory=dict)
    #: The correctness checks, run by the caller once timing is over; each
    #: fills :attr:`checks`.
    run_checks: Callable[[], None] = lambda: None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def batch_row(stats) -> Dict[str, object]:
    """One batch's ``StreamStats`` as a plain row (also what the server
    subprocess dumps), plus the retries its units needed."""
    row = stats.as_dict()
    row["unit_retries"] = sum(unit.attempts - 1 for unit in stats.units)
    return row


def to_request(op: gen.Op):
    """A generated op as the program's request object.

    Same non-ground style as ``repro.workloads.ground_request_atom``:
    variables in the atom, bindings in the constraint.
    """
    kind, predicate, values = op
    variables = tuple(Variable(f"X{index + 1}") for index in range(len(values)))
    constraint = conjoin(*(equals(var, value) for var, value in zip(variables, values)))
    atom = ConstrainedAtom(Atom(predicate, variables), constraint)
    return DeletionRequest(atom) if kind == "delete" else InsertionRequest(atom)


def to_wire(op: gen.Op) -> dict:
    """A generated op as a JSON-lines request of the TCP front end."""
    kind, predicate, values = op
    names = [f"X{index + 1}" for index in range(len(values))]
    bindings = " & ".join(f"{name} = {value!r}" for name, value in zip(names, values))
    return {"op": kind, "atom": f"{predicate}({', '.join(names)}) <- {bindings}"}


def _apply(scheduler: StreamScheduler, requests: Sequence[object]) -> bool:
    for request in requests:
        scheduler.submit(request)
    return scheduler.flush().ok


def _fresh_scheduler(program, view, algorithm: str = "stdel") -> StreamScheduler:
    # The published view is never mutated in place (copy-on-write), so every
    # episode can start from the same initial view object.
    return StreamScheduler(
        program,
        ConstraintSolver(),
        view=view,
        options=StreamOptions(max_workers=1, deletion_algorithm=algorithm),
    )


def _record(outcome: Outcome, kind: str, seconds: float, requests: int) -> None:
    (outcome.delete_ms if kind == "delete" else outcome.insert_ms).append(seconds * 1000.0)
    outcome.throughput_requests += requests
    outcome.throughput_s += seconds


def pair_ms(delete_ms: Sequence[float], insert_ms: Sequence[float]) -> List[float]:
    """Update latency per (deletion, insertion) pair: the mean of the two.

    Deletions and insertions cost different amounts, so their pooled samples
    are bimodal and a pooled median jumps between the modes; the median over
    pairs does not.
    """
    return [(deleted + inserted) / 2 for deleted, inserted in zip(delete_ms, insert_ms)]


def _finish(outcome: Outcome, meter: Meter, tracer: Optional[Tracer]) -> None:
    """Freeze everything the timed loop produced, before any check runs."""
    outcome.slowdown = meter.slowdown
    outcome.measured_raw_s = meter.raw_s
    outcome.measured_s = meter.scaled_s
    outcome.peak_rss_mb = peak_rss_mb()
    outcome.intern = intern_stats()
    if tracer is not None:
        outcome.calls = tracer.calls()
        outcome.op_calls = {name: tuple(acc) for name, acc in meter.op_calls.items()}


def _time_setup(outcome: Outcome, steps: Sequence[Callable[[], object]], repeats: int):
    """Run the set-up *repeats* times, timing each; returns the last results.

    A set-up made of several *steps* is timed step by step, so that the
    yardstick is read between them and not only seconds apart.
    """
    meter = Meter(readings=4)
    built: List[object] = []
    for _ in range(repeats):
        built, total = [], 0.0
        for step in steps:
            result, seconds = meter.time("setup", step)
            built.append(result)
            total += seconds
        outcome.setup_s.append(total)
    return built


# ----------------------------------------------------------------------
# ladder-layered
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LadderConfig:
    rungs: Tuple[int, ...] = (100, 200, 400, 800)
    #: Share of the time box each rung gets (the top rung is the headline).
    shares: Tuple[float, ...] = (0.08, 0.12, 0.25, 0.55)
    #: Delete / re-insert pairs per episode.
    pairs: int = 4
    #: Episodes per rung when the work is fixed (traced and quick runs).
    fixed_episodes: Tuple[int, ...] = (2, 2, 1, 1)
    setup_repeats: int = 3


LADDER_QUICK = LadderConfig(
    rungs=(6, 12, 24, 48), pairs=2, fixed_episodes=(1, 1, 1, 1), setup_repeats=1
)


def layered_spec(base_facts: int):
    return make_layered_program(
        base_facts=base_facts, layers=3, predicates_per_layer=2, fanin=2
    )


def run_ladder(
    config: LadderConfig, seed: int, budget: Budget, tracer: Optional[Tracer]
) -> Outcome:
    outcome = Outcome()

    def build(base_facts: int):
        spec = layered_spec(base_facts)
        # Constructing a scheduler is the start -> ready path: analysis plus
        # the initial materialization.
        scheduler = StreamScheduler(
            spec.program, ConstraintSolver(), options=StreamOptions(max_workers=1)
        )
        return base_facts, spec, scheduler.view

    rungs = _time_setup(
        outcome,
        [functools.partial(build, base_facts) for base_facts in config.rungs],
        config.setup_repeats,
    )
    meter = Meter(tracer)
    per_rung: List[Dict[str, List[float]]] = []
    rows_per_rung: List[List[Dict[str, object]]] = []
    wrong_answers = 0
    last_schedulers: List[StreamScheduler] = []
    for index, (base_facts, spec, view) in enumerate(rungs):
        top = index == len(rungs) - 1
        top_predicate = spec.top_predicates[0]
        everything = frozenset((value,) for value in range(base_facts))
        samples = {"delete": [], "insert": []}
        rows: List[Dict[str, object]] = []
        scheduler = None
        for episode in budget.rounds(config.shares[index], config.fixed_episodes[index]):
            scheduler = _fresh_scheduler(spec.program, view)
            ops = gen.layered_pairs(base_facts, config.pairs, seed, f"r{index}/e{episode}")
            for position, op in enumerate(ops):
                if tracer is not None:
                    tracer.set_tag(f"r{index}/e{episode}/b{position}")
                ok, seconds = meter.time(
                    "update", _apply, scheduler, [to_request(op)], collect=True
                )
                outcome.attempted += 1
                outcome.failed += not ok
                samples[op[0]].append(seconds * 1000.0)
                if top:
                    _record(outcome, op[0], seconds, 1)
                answer, seconds = meter.time("query", scheduler.query, top_predicate)
                outcome.attempted += 1
                if top:
                    outcome.query_ms.append(seconds * 1000.0)
                # Checked between the timed calls, against the model: every
                # base value, minus the one just deleted (the top predicates
                # need both bases).  Only the verdict is kept, so that what
                # the harness holds does not grow with the episode count.
                expected = everything - {op[2]} if op[0] == "delete" else everything
                wrong_answers += answer != expected
            rows.extend(batch_row(stats) for stats in scheduler.batches)
        per_rung.append(samples)
        rows_per_rung.append(rows)
        outcome.batches.extend(rows)
        last_schedulers.append(scheduler)
        outcome.view_entries = len(view)
    _finish(outcome, meter, tracer)

    # -- derived: how cost grows with the view -------------------------
    sizes = [len(view) for _, _, view in rungs]
    costs = [
        statistics.median(s["delete"]) + statistics.median(s["insert"]) for s in per_rung
    ]
    outcome.detail["scale_exponent"] = log_log_slope(sizes, costs)
    outcome.detail["top_to_bottom_ratio"] = costs[-1] / costs[0]
    for index, cost in enumerate(costs):
        outcome.detail[f"rung{index}_pair_ms"] = cost
    outcome.detail["top_rung_entries"] = float(sizes[-1])
    # The paper's claim in counters: join attempts per changed entry must
    # not grow with the view (1.0 = flat from the bottom to the top rung).
    waste = [
        row_totals["derivation_attempts"] / changed
        for row_totals, changed in (maintenance_totals(rows) for rows in rows_per_rung)
    ]
    outcome.detail["attempts_ratio_top_to_bottom"] = waste[-1] / waste[0]
    if tracer is not None:
        top_tag = f"r{len(rungs) - 1}/"
        spans = [s for s in tracer.spans if s.tag and s.tag.startswith(top_tag)]
        selves = self_times(spans)
        updates = [s for s in spans if s.name == "harness.update"]
        wall = sum(s.end - s.start for s in updates)
        outcome.detail["top_rung_attributed_frac"] = 1.0 - sum(
            selves[s.id] for s in updates
        ) / wall

    def run_checks() -> None:
        outcome.checks["answers_match_model"] = wrong_answers == 0
        # An episode ends where it began: the initial view's instances.
        solver = ConstraintSolver()
        outcome.checks["episodes_restore_view"] = all(
            scheduler.view.instances(solver) == view.instances(solver)
            for scheduler, (_, _, view) in zip(last_schedulers, rungs)
        )
        outcome.checks["verify_every_rung"] = all(s.verify() for s in last_schedulers)

    outcome.run_checks = run_checks
    return outcome


#: ``MaintenanceStats`` counters summed into the per-layer metrics.
MAINTENANCE_COUNTS = (
    "derivation_attempts", "solver_calls", "index_probes", "support_probes",
    "quick_rejects",
)


def maintenance_totals(rows: Sequence[Dict[str, object]]) -> Tuple[Dict[str, int], int]:
    """Summed ``MaintenanceStats`` counters of batch rows, and how many
    entries the batches changed (replaced + removed + rederived/added)."""
    totals = {name: 0 for name in MAINTENANCE_COUNTS}
    changed = 0
    for row in rows:
        stats = row["stats"]
        for name in totals:
            totals[name] += stats.get(name, 0)
        changed += sum(
            stats.get(name, 0)
            for name in ("replaced_entries", "removed_entries", "rederived_entries")
        )
    return totals, changed


def log_log_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of ln(y) against ln(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum(
        (a - mx) ** 2 for a in lx
    )


# ----------------------------------------------------------------------
# recursive-interval
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RecursiveConfig:
    nodes: int = 100
    edges: int = 150
    ground_facts: int = 40
    intervals: int = 10
    width: int = 60
    #: (deletion batch, insertion batch) rounds per episode.
    rounds: int = 4
    fixed_episodes: int = 2
    setup_repeats: int = 3


RECURSIVE_QUICK = RecursiveConfig(
    nodes=16, edges=20, ground_facts=8, intervals=3, width=24, rounds=2,
    fixed_episodes=1, setup_repeats=1,
)


def recursive_inputs(config: RecursiveConfig, seed: int):
    """The program (closure of a renamed random graph + interval joins) and
    the pools the episode generator draws from."""
    names = gen.node_names(config.nodes, seed)
    canonical = make_random_graph_edges(config.nodes, config.edges, acyclic=True)
    present = set(canonical)
    non_edges = [
        (f"n{a}", f"n{b}")
        for a in range(config.nodes)
        for b in range(a + 1, config.nodes)
        if (f"n{a}", f"n{b}") not in present
    ]
    closure = make_transitive_closure_program(
        [(names[a], names[b]) for a, b in canonical]
    )
    joins = make_interval_join_program(
        ground_facts=config.ground_facts,
        intervals_per_predicate=config.intervals,
        pairs=2,
        width=config.width,
    )
    program = ConstrainedDatabase(
        [clause.with_number(None) for clause in list(closure.program) + list(joins.program)]
    )
    points = [
        (predicate, fact[0])
        for predicate, facts in sorted(joins.base_facts.items())
        if predicate.startswith("iv")
        for fact in facts
    ]
    taken = {
        predicate: {fact[0] for fact in facts}
        for predicate, facts in joins.base_facts.items()
        if predicate.startswith("g")
    }
    grounds = [
        (predicate, value)
        for predicate in sorted(taken)
        for value in range(config.width)
        if value not in taken[predicate]
    ]
    return program, names, canonical, non_edges, points, grounds


def run_recursive(
    config: RecursiveConfig, seed: int, budget: Budget, tracer: Optional[Tracer]
) -> Outcome:
    outcome = Outcome()
    program, names, canonical, non_edges, points, grounds = recursive_inputs(config, seed)

    def build():
        return StreamScheduler(
            program, ConstraintSolver(), options=StreamOptions(max_workers=1)
        ).view

    (view,) = _time_setup(outcome, [build], config.setup_repeats)
    outcome.view_entries = len(view)
    meter = Meter(tracer)
    dred_ms: Dict[str, List[float]] = {"delete": [], "insert": []}
    finals: List[Tuple[object, object]] = []
    last: Dict[str, StreamScheduler] = {}
    for episode in budget.rounds(1.0, config.fixed_episodes):
        batches = [
            [(kind, predicate, tuple(names.get(v, v) for v in values))
             for kind, predicate, values in batch]
            for batch in gen.recursive_episode(
                canonical, non_edges, points, grounds, config.rounds, seed, episode
            )
        ]
        ends = {}
        for algorithm in ("stdel", "dred"):
            scheduler = _fresh_scheduler(program, view, algorithm)
            for position, batch in enumerate(batches):
                if tracer is not None:
                    tracer.set_tag(f"{algorithm}/e{episode}/b{position}")
                requests = [to_request(op) for op in batch]
                ok, seconds = meter.time(algorithm, _apply, scheduler, requests, collect=True)
                outcome.attempted += 1
                outcome.failed += not ok
                kind = "delete" if position % 2 == 0 else "insert"
                if algorithm == "stdel":
                    _record(outcome, kind, seconds, len(batch))
                    _, seconds = meter.time("query", scheduler.query, "path")
                    outcome.attempted += 1
                    outcome.query_ms.append(seconds * 1000.0)
                else:
                    dred_ms[kind].append(seconds * 1000.0)
            outcome.batches.extend(batch_row(stats) for stats in scheduler.batches)
            ends[algorithm] = scheduler.view
            last[algorithm] = scheduler
        finals.append((ends["stdel"], ends["dred"]))
    _finish(outcome, meter, tracer)
    dred = statistics.median(pair_ms(dred_ms["delete"], dred_ms["insert"]))
    outcome.detail["dred_update_ms_p50"] = dred
    outcome.detail["dred_to_stdel_ratio"] = dred / statistics.median(
        pair_ms(outcome.delete_ms, outcome.insert_ms)
    )

    def run_checks() -> None:
        solver = ConstraintSolver()
        outcome.checks["stdel_equals_dred"] = all(
            stdel.instances(solver) == dred.instances(solver) for stdel, dred in finals
        )
        outcome.checks["verify_stdel"] = last["stdel"].verify()
        outcome.checks["verify_dred"] = last["dred"].verify()

    outcome.run_checks = run_checks
    return outcome


# ----------------------------------------------------------------------
# mediated-query
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MediatedConfig:
    people: int = 10
    photos: int = 6
    fixed_cycles: int = 6
    setup_repeats: int = 7


MEDIATED_QUICK = MediatedConfig(people=5, photos=2, fixed_cycles=2, setup_repeats=1)


def expected_suspects(scenario, employees) -> frozenset:
    """``suspect`` from the scenario's ground truth and the *current*
    employee rows (``LawEnforcementScenario.expected_suspects`` reads the
    employee list frozen at generation time)."""
    near = set(scenario.near_dc)
    pairs = set()
    for photos in scenario.face_scenario.appearances.values():
        for visible in photos:
            for witness in visible:
                for person in visible:
                    if person != witness and person in near and person in employees:
                        pairs.add((witness, person))
    return frozenset(pairs)


def run_mediated(
    config: MediatedConfig, seed: int, budget: Budget, tracer: Optional[Tracer]
) -> Outcome:
    outcome = Outcome()

    def build():
        scenario = make_law_enforcement_scenario(
            num_people=config.people, photo_count=config.photos
        )
        return scenario, scenario.mediator.streaming(StreamOptions(max_workers=1))

    ((scenario, scheduler),) = _time_setup(outcome, [build], config.setup_repeats)
    outcome.view_entries = len(scheduler.view)
    table = scenario.dbase.database.table("empl_abc")
    detach = attach_changelog(
        scheduler.log, scenario.dbase.database.change_log, source="dbase"
    )
    people = [person for person in scenario.people if person != scenario.kingpin]
    toggles = gen.employee_toggles(people, 10_000, seed)
    employees = set(scenario.abc_employees)

    def change(person: str) -> bool:
        # The source changes behind the mediator's back; the change log
        # forwards it to the update log as an ExternalChangeNotice.
        if person in employees:
            table.delete_eq("name", person)
            employees.discard(person)
        else:
            table.insert((person, "analyst"))
            employees.add(person)
        return scheduler.flush().ok

    meter = Meter(tracer)
    wrong_answers = 0
    rematerialized_ok = False
    for cycle in budget.rounds(1.0, config.fixed_cycles):
        person = toggles[cycle]
        if tracer is not None:
            tracer.set_tag(f"c{cycle}")
        # Toggle the person's row, read the first fresh answer, toggle it
        # back, read again: every cycle holds one deletion and one insertion
        # and leaves the source as it found it.
        for step in range(2):
            kind = "delete" if person in employees else "insert"
            ok, changed_s = meter.time("update", change, person, collect=True)
            fresh, fresh_s = meter.time("query", scheduler.query, "suspect")
            outcome.attempted += 2
            outcome.failed += not ok
            # Source row changed -> first fresh answer.
            _record(outcome, kind, changed_s + fresh_s, 1)
            outcome.query_ms.append(fresh_s * 1000.0)
            wrong_answers += fresh != expected_suspects(scenario, employees)
            if cycle == 0 and step == 0:
                # Once, on mutated sources: the engine's own from-scratch
                # answer (between the timed calls).
                rematerialized_ok = scenario.mediator.materialize().query("suspect") == fresh
        # The same question again, nothing changed in between.
        again, again_s = meter.time("query", scheduler.query, "suspect")
        outcome.attempted += 1
        outcome.query_ms.append(again_s * 1000.0)
        wrong_answers += again != fresh
    detach()
    outcome.batches.extend(batch_row(stats) for stats in scheduler.batches)
    _finish(outcome, meter, tracer)

    def run_checks() -> None:
        outcome.checks["answers_match_model"] = wrong_answers == 0
        outcome.checks["matches_rematerialization"] = rematerialized_ok

    outcome.run_checks = run_checks
    return outcome


# ----------------------------------------------------------------------
# serve-durable: the layered tenants (shared with server_main.py)
# ----------------------------------------------------------------------
def tenant_program(tenants: int, base_facts: int) -> ConstrainedDatabase:
    """*tenants* copies of the layered family under tenant-prefixed names."""
    spec = layered_spec(base_facts)
    clauses = []
    for tenant in range(tenants):
        prefix = gen.tenant_prefix(tenant)
        for clause in spec.program:
            clauses.append(
                Clause(
                    Atom(prefix + clause.head.predicate, clause.head.args),
                    clause.constraint,
                    tuple(Atom(prefix + atom.predicate, atom.args) for atom in clause.body),
                )
            )
    return ConstrainedDatabase(clauses)


def layered_model(base_facts: int, prefix: str, ops: Sequence[gen.Op]) -> Dict[str, frozenset]:
    """Instances of one tenant's predicates after *ops*, by set arithmetic.

    Independent of the engine: a rule of the layered family joins its body
    predicates on their single argument, so its head is their intersection.
    """
    spec = layered_spec(base_facts)
    sets: Dict[str, set] = {
        predicate: {fact[0] for fact in facts} for predicate, facts in spec.base_facts.items()
    }
    for kind, predicate, values in ops:
        if not predicate.startswith(prefix):
            continue
        target = sets.setdefault(predicate[len(prefix):], set())
        if kind == "delete":
            target.discard(values[0])
        else:
            target.add(values[0])
    for clause in spec.program:
        if clause.body:
            body = [sets[atom.predicate] for atom in clause.body]
            sets.setdefault(clause.head.predicate, set()).update(set.intersection(*body))
    return {
        prefix + predicate: frozenset((value,) for value in values)
        for predicate, values in sets.items()
    }
