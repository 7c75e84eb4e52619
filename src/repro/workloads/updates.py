"""Update-stream generators.

Benchmarks replay streams of deletions / insertions / source changes against
a materialized view; the generators here pick the update targets
deterministically (seeded) from a :class:`~repro.workloads.synthetic.
WorkloadSpec` so every algorithm is measured on exactly the same stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.constraints.ast import conjoin, equals
from repro.constraints.terms import Variable
from repro.datalog.atoms import Atom, ConstrainedAtom
from repro.errors import WorkloadError
from repro.maintenance.requests import DeletionRequest, InsertionRequest
from repro.workloads.synthetic import WorkloadSpec

UpdateRequest = Union[DeletionRequest, InsertionRequest]


def ground_request_atom(predicate: str, values: Sequence[object]) -> ConstrainedAtom:
    """Build ``p(X1, ..., Xn) <- X1 = v1 & ... & Xn = vn``.

    Update requests are expressed in the paper's non-ground style (variables
    in the atom, bindings in the constraint) so the algorithms exercise their
    general code path even for ground updates.
    """
    variables = tuple(Variable(f"X{index + 1}") for index in range(len(values)))
    constraint = conjoin(*(equals(var, value) for var, value in zip(variables, values)))
    return ConstrainedAtom(Atom(predicate, variables), constraint)


def deletion_stream(
    spec: WorkloadSpec,
    count: int,
    seed: int = 0,
    predicate: Optional[str] = None,
) -> Tuple[DeletionRequest, ...]:
    """Pick *count* distinct base facts of *spec* to delete."""
    rng = random.Random(seed)
    candidates: List[Tuple[str, Tuple[object, ...]]] = []
    for base_predicate, facts in spec.base_facts.items():
        if predicate is not None and base_predicate != predicate:
            continue
        candidates.extend((base_predicate, fact) for fact in facts)
    if count > len(candidates):
        raise WorkloadError(
            f"cannot delete {count} facts, only {len(candidates)} base facts exist"
        )
    chosen = rng.sample(candidates, count)
    return tuple(
        DeletionRequest(ground_request_atom(base_predicate, fact))
        for base_predicate, fact in chosen
    )


def insertion_stream(
    spec: WorkloadSpec,
    count: int,
    seed: int = 0,
    predicate: Optional[str] = None,
    value_offset: int = 1_000_000,
) -> Tuple[InsertionRequest, ...]:
    """Generate *count* fresh base facts to insert (values outside the base range)."""
    rng = random.Random(seed)
    predicates = [
        name
        for name in spec.base_predicates
        if predicate is None or name == predicate
    ]
    if not predicates:
        raise WorkloadError(f"no base predicate matches {predicate!r}")
    requests: List[InsertionRequest] = []
    for index in range(count):
        target = predicates[rng.randrange(len(predicates))]
        arity = len(spec.base_facts[target][0]) if spec.base_facts.get(target) else 1
        values = tuple(value_offset + index * arity + position for position in range(arity))
        requests.append(InsertionRequest(ground_request_atom(target, values)))
    return tuple(requests)


@dataclass(frozen=True)
class MixedStream:
    """A deterministic interleaving of deletions and insertions."""

    requests: Tuple[UpdateRequest, ...]

    def deletions(self) -> Tuple[DeletionRequest, ...]:
        """The deletion requests in stream order."""
        return tuple(r for r in self.requests if isinstance(r, DeletionRequest))

    def insertions(self) -> Tuple[InsertionRequest, ...]:
        """The insertion requests in stream order."""
        return tuple(r for r in self.requests if isinstance(r, InsertionRequest))


def mixed_stream(
    spec: WorkloadSpec,
    deletions: int,
    insertions: int,
    seed: int = 0,
) -> MixedStream:
    """Interleave deletions and insertions deterministically."""
    delete_requests = list(deletion_stream(spec, deletions, seed=seed))
    insert_requests = list(insertion_stream(spec, insertions, seed=seed + 1))
    rng = random.Random(seed + 2)
    combined: List[UpdateRequest] = delete_requests + insert_requests
    rng.shuffle(combined)
    return MixedStream(tuple(combined))


def stream_batches(
    spec: WorkloadSpec,
    batches: int,
    deletions: int = 2,
    insertions: int = 2,
    seed: int = 0,
    duplicates: int = 0,
    cancellations: int = 0,
) -> Tuple[MixedStream, ...]:
    """A deterministic sequence of update batches for the stream scheduler.

    Each batch interleaves *deletions* of distinct base facts (sampled
    without replacement across the whole sequence, so every deletion is
    effective) with *insertions* of fresh facts (value ranges disjoint per
    batch).  On top of that, per batch:

    * *duplicates* requests are repeated verbatim later in the batch --
      coalescing fodder (the repeat is a sequential no-op);
    * *cancellations* insert a fresh atom and delete exactly that atom later
      in the same batch -- the insert-then-delete pair the coalescer
      cancels outright via ``subsumes_instances``.

    The same seed always produces the same batches, so every scheduler
    configuration (sequential/parallel strata, either deletion algorithm)
    is measured on an identical stream.
    """
    rng = random.Random(seed)
    candidates: List[Tuple[str, Tuple[object, ...]]] = []
    for base_predicate, facts in sorted(spec.base_facts.items()):
        candidates.extend((base_predicate, fact) for fact in facts)
    rng.shuffle(candidates)
    predicates = sorted(spec.base_facts)
    if not predicates:
        raise WorkloadError("workload has no base facts to build a stream from")

    result: List[MixedStream] = []
    for batch_index in range(batches):
        requests: List[UpdateRequest] = []
        for _ in range(deletions):
            if not candidates:
                break
            base_predicate, fact = candidates.pop()
            requests.append(DeletionRequest(ground_request_atom(base_predicate, fact)))
        requests.extend(
            insertion_stream(
                spec,
                insertions,
                seed=seed + 31 * batch_index + 1,
                value_offset=1_000_000 + 10_000 * batch_index,
            )
        )
        rng.shuffle(requests)
        for _ in range(duplicates):
            if not requests:
                break
            position = rng.randrange(len(requests))
            requests.insert(
                rng.randrange(position, len(requests)) + 1, requests[position]
            )
        for cancel_index in range(cancellations):
            target = predicates[rng.randrange(len(predicates))]
            arity = (
                len(spec.base_facts[target][0]) if spec.base_facts.get(target) else 1
            )
            values = tuple(
                5_000_000 + 10_000 * batch_index + cancel_index * arity + position
                for position in range(arity)
            )
            atom = ground_request_atom(target, values)
            insert_at = rng.randrange(len(requests) + 1)
            requests.insert(insert_at, InsertionRequest(atom))
            requests.insert(
                rng.randrange(insert_at + 1, len(requests) + 1),
                DeletionRequest(atom),
            )
        result.append(MixedStream(tuple(requests)))
    return tuple(result)
