"""The engine's instance sets against the ground oracle (``ground_oracle``).

Each track -- a fixpoint, the stream scheduler with StDel, with DRed --
is read with ``query`` over a finite universe that holds every constant
the program and its updates name, and must equal what naive ground
evaluation of the same program and updates gives:

* ``NEGATION_SCOPE_RULES``: deleting one point of an unconstrained fact;
* the ``q(Y) <- not(Y = 5).`` family: the negation in a fact, in a
  deletion request and in a rule body;
* a negation over body variables the join projects away (strict xfail:
  the solution search reads them as local to the negation);
* deleting what a body variable the head does not name was drawn from
  (strict xfail: StDel's rebuild loses the variable's link);
* the differential harness's small seeds, after every step.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from integration.ground_oracle import GroundOracle, constants_of  # noqa: E402
from integration.test_differential import build_spec, build_stream  # noqa: E402
from maintenance.test_deletion_algorithms import NEGATION_SCOPE_RULES  # noqa: E402
from repro.constraints import ConstraintSolver  # noqa: E402
from repro.datalog import compute_tp_fixpoint, parse_constrained_atom, parse_program  # noqa: E402
from repro.maintenance import DeletionRequest  # noqa: E402
from repro.stream import StreamOptions, StreamScheduler  # noqa: E402

ALGORITHMS = ("stdel", "dred")

#: Every seed of the differential harness (each a small program).
SEEDS = range(60)


def universe_for(program, updates=()) -> tuple:
    """Every constant named, and every integer from -1 to one past the
    largest small one (a bounded interval is read as all its integers)."""
    values = constants_of([*program, *updates])
    small = [v for v in values if type(v) is int and abs(v) < 1000]
    values.update(range(-1, max(small, default=10) + 2))
    return tuple(sorted(values, key=lambda value: (type(value).__name__, value)))


def track_instances(read, predicates, universe) -> dict:
    """What a track reads, over the universe: the oracle sees no further."""
    inside = set(universe)
    return {
        predicate: {row for row in read(predicate, universe) if inside.issuperset(row)}
        for predicate in predicates
    }


def oracle_instances(oracle, predicates) -> dict:
    facts = oracle.instances()
    return {predicate: set(facts.get(predicate, ())) for predicate in predicates}


def run_tracks(program, requests, predicates):
    """The oracle against every scheduler track, before and after each
    request; the oracle's instances at the end."""
    universe = universe_for(program, [request.atom for request in requests])
    oracle = GroundOracle(program, universe)
    schedulers = {
        algorithm: StreamScheduler(
            program,
            ConstraintSolver(),
            options=StreamOptions(max_workers=1, deletion_algorithm=algorithm),
        )
        for algorithm in ALGORITHMS
    }
    for step in range(len(requests) + 1):
        if step:
            request = requests[step - 1]
            if isinstance(request, DeletionRequest):
                oracle.delete(request.atom)
            else:
                oracle.insert(request.atom)
            for scheduler in schedulers.values():
                assert scheduler.apply_batch((request,)).ok
        expected = oracle_instances(oracle, predicates)
        for algorithm, scheduler in schedulers.items():
            found = track_instances(scheduler.query, predicates, universe)
            assert found == expected, (algorithm, step)
    return expected


def test_deleting_one_point_of_an_unconstrained_fact():
    program = parse_program(NEGATION_SCOPE_RULES)
    request = DeletionRequest(parse_constrained_atom("p(X) <- X = 5"))
    expected = run_tracks(program, [request], ("p", "r", "h"))
    assert (5,) not in expected["p"] and (4,) in expected["h"]


@pytest.mark.parametrize(
    "rules",
    [
        "q(Y) <- not(Y = 5).",
        "p(X) <- true. q(Y) <- p(Y) & not(Y = 5).",
        "p(X) <- true. q(Y) <- p(Y) & not(Z = 5 & Z = Y).",
    ],
)
def test_a_negation_in_a_fact_or_a_rule_body(rules):
    program = parse_program(rules)
    universe = universe_for(program)
    solver = ConstraintSolver()
    view = compute_tp_fixpoint(program, solver)
    expected = oracle_instances(GroundOracle(program, universe), ("q",))
    assert expected["q"] == {(value,) for value in universe if value != 5}
    assert track_instances(
        lambda predicate, values: view.instances_for(predicate, solver, values), ("q",), universe
    ) == expected
    run_tracks(program, [], ("q",))


def test_a_negation_in_a_deletion_request():
    program = parse_program("p(X) <- true. q(X) <- p(X).")
    request = DeletionRequest(parse_constrained_atom("p(X) <- not(X = 5)"))
    expected = run_tracks(program, [request], ("p", "q"))
    assert expected == {"p": {(5,)}, "q": {(5,)}}


@pytest.mark.xfail(
    strict=True,
    reason="a body variable only a negation keeps after the join's projection "
    "reads as outer to the solver and as local to the solution search",
)
@pytest.mark.parametrize(
    "rules",
    [
        "p(X) <- true. r(W, V) <- not(W = 5 & V = 6). h(Y) <- p(Y), r(Z, U).",
        "r(A, B) <- true. h(X) <- r(Y, Z) & not(Y = 5 & Z = 6).",
    ],
)
def test_a_negation_over_projected_body_variables(rules):
    """``h(Y) <- not(Z = 5 & U = 6)``: ``Z`` and ``U`` were named by a body
    atom, so the negation does not bind them; every ``Y`` is an instance."""
    program = parse_program(rules)
    universe = universe_for(program)
    expected = oracle_instances(GroundOracle(program, universe), ("h",))
    assert expected["h"] == {(value,) for value in universe}
    run_tracks(program, [], ("h",))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="StDel's parent rebuild does not tie the body variable the entry still "
    "names to the rebuilt clause's body atom, so every h(X) survives",
)
def test_deleting_what_a_body_only_variable_was_drawn_from():
    """``h(X) <- Y >= 2`` after deleting ``r(X) <- X >= 0``: no ``r`` is left,
    so no ``h`` either; StDel keeps ``h(X) <- Y >= 2 & Y_3 < 2``."""
    program = parse_program("r(A) <- A >= 2. p(X) <- true. h(X) <- p(X), r(Y).")
    request = DeletionRequest(parse_constrained_atom("r(X) <- X >= 0"))
    run_tracks(program, [request], ("p", "r", "h"))


@pytest.mark.parametrize("seed", SEEDS)
def test_the_differential_seeds_agree_with_the_oracle(seed):
    spec = build_spec(seed)
    requests = [request for _, request in build_stream(spec, seed)]
    predicates = sorted({clause.head.predicate for clause in spec.program})
    run_tracks(spec.program, requests, predicates)
