"""Seeded input generators: the only source of the workloads' inputs.

Everything here is a pure function of its arguments and returns plain lists
and tuples of strings and numbers, so ``json.dumps`` of a result is
byte-identical for equal seeds (``test_harness.py`` checks that) and the
program under test never sees anything but generated inputs.

**What a seed may change.**  The driver compares runs made with *different*
seeds, so a seed must change the input without changing how much work the
input is: it picks *which* of a set of structurally equivalent values is
touched (a base fact of the layered family, a fresh value, the order of the
requests in a batch, the names of the graph's nodes), never how many rules
fire.  Choices that do change the work -- which edge of the random graph is
deleted, which employee row is toggled -- follow a fixed schedule indexed by
episode, identical for every seed.

An *op* is ``(kind, predicate, values)`` with ``kind`` in ``"delete"`` /
``"insert"``; a *batch* is a list of ops submitted before one ``flush``.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

Op = Tuple[str, str, Tuple[object, ...]]


def _rng(*parts: object) -> random.Random:
    # Seeding with a string hashes it with SHA-512: stable across processes
    # and Python builds, unlike hash().
    return random.Random("/".join(str(part) for part in parts))


# ----------------------------------------------------------------------
# ladder-layered and serve-durable: the layered family
# ----------------------------------------------------------------------
#: The base predicate the single-fact workloads update: in the layered
#: family (generator seed 0) ``base1`` feeds every derived predicate, so one
#: fact touches all seven affected shards.  ``base0`` feeds one rule fewer;
#: mixing the two would make the latency samples bimodal.
UPDATED_BASE = "base1"


def layered_pairs(base_facts: int, pairs: int, seed: int, stream: object) -> List[Op]:
    """*pairs* x (delete one base fact, insert it back), as single-op batches.

    The seed picks the values, which are all equivalent.  Re-inserting the
    deleted fact makes the insertion propagate through every layer and
    returns the view to its initial instance set, which the correctness
    check relies on.
    """
    rng = _rng("layered", seed, stream, base_facts)
    ops: List[Op] = []
    for value in rng.sample(range(base_facts), pairs):
        ops.append(("delete", UPDATED_BASE, (value,)))
        ops.append(("insert", UPDATED_BASE, (value,)))
    return ops


def tenant_prefix(tenant: int) -> str:
    return f"t{tenant}_"


def tenant_values(base_facts: int, tenant: int, seed: int) -> List[int]:
    """One seeded order of a tenant's base values for the whole run.

    Phase A draws from the front half and phase B from the back half, so no
    value is ever touched twice in one server life (see the README: on the
    seed commit StDel keeps a derived entry alive when a value is deleted
    from one base predicate after it was re-inserted into the other).
    """
    return _rng("tenant", seed, base_facts, tenant).sample(range(base_facts), base_facts)


#: Front-half values per tenant that phase A leaves alone, for the WAL tail.
TAIL_SLOTS = 2


def trickle_capacity(base_facts: int, tenants: int) -> int:
    """How many phase-A pairs exist before the values run out."""
    return tenants * (base_facts // 2 - TAIL_SLOTS)


def tail_deletions(base_facts: int, tenants: int, seed: int, count: int) -> List[Op]:
    """*count* single deletions of values no phase has touched: the batches
    journaled after the last checkpoint, which recovery replays."""
    if count > TAIL_SLOTS * tenants:
        raise ValueError(f"only {TAIL_SLOTS * tenants} tail values are reserved")
    ops: List[Op] = []
    for index in range(count):
        tenant, slot = index % tenants, base_facts // 2 - 1 - index // tenants
        value = tenant_values(base_facts, tenant, seed)[slot]
        ops.append(("delete", tenant_prefix(tenant) + UPDATED_BASE, (value,)))
    return ops


def burst_capacity(base_facts: int, tenants: int) -> int:
    """How many phase-B bursts exist (after burst 0, the primer)."""
    return (base_facts - base_facts // 2) // (12 // tenants) - 1


def serve_trickle(base_facts: int, tenants: int, seed: int) -> List[Op]:
    """Phase A: delete / re-insert pairs, round-robin over the tenants."""
    values = [tenant_values(base_facts, tenant, seed) for tenant in range(tenants)]
    ops: List[Op] = []
    for index in range(trickle_capacity(base_facts, tenants)):
        tenant, slot = index % tenants, index // tenants
        predicate = tenant_prefix(tenant) + UPDATED_BASE
        ops.append(("delete", predicate, (values[tenant][slot],)))
        ops.append(("insert", predicate, (values[tenant][slot],)))
    return ops


def burst_deletions(base_facts: int, tenants: int, seed: int, burst: int) -> List[Op]:
    """The 12 base facts burst number *burst* deletes (distinct values)."""
    per_tenant = 12 // tenants
    ops: List[Op] = []
    for tenant in range(tenants):
        values = tenant_values(base_facts, tenant, seed)[base_facts // 2 :]
        for slot in range(per_tenant):
            predicate = f"{tenant_prefix(tenant)}base{(tenant + slot) % 2}"
            ops.append(("delete", predicate, (values[per_tenant * burst + slot],)))
    return ops


def serve_burst(base_facts: int, tenants: int, seed: int, burst: int) -> List[Op]:
    """Phase B: one 32-request burst (*burst* >= 1) -- 12 deletions of
    distinct base facts, 12 insertions of the facts the previous burst
    deleted, 4 verbatim duplicates and 2 insert-then-delete pairs.
    ``burst_deletions(..., 0)`` is submitted untimed before the first burst.
    """
    order = _rng("burst-order", seed, burst)
    ops = burst_deletions(base_facts, tenants, seed, burst) + [
        ("insert", predicate, values)
        for _, predicate, values in burst_deletions(base_facts, tenants, seed, burst - 1)
    ]
    order.shuffle(ops)
    for _ in range(4):
        position = order.randrange(len(ops))
        ops.insert(order.randrange(position, len(ops)) + 1, ops[position])
    for pair in range(2):
        predicate = f"{tenant_prefix(pair % tenants)}base0"
        value = (10 * base_facts + 2 * burst + pair,)
        at = order.randrange(len(ops) + 1)
        ops.insert(at, ("insert", predicate, value))
        ops.insert(order.randrange(at + 1, len(ops) + 1), ("delete", predicate, value))
    return ops


# ----------------------------------------------------------------------
# recursive-interval
# ----------------------------------------------------------------------
def node_names(nodes: int, seed: int) -> Dict[str, str]:
    """A seeded renaming of the graph's nodes (same shape, other input)."""
    shuffled = list(range(nodes))
    _rng("nodes", seed).shuffle(shuffled)
    return {f"n{index}": f"n{shuffled[index]}" for index in range(nodes)}


def recursive_episode(
    edges: Sequence[Tuple[str, str]],
    non_edges: Sequence[Tuple[str, str]],
    points: Sequence[Tuple[str, object]],
    grounds: Sequence[Tuple[str, object]],
    rounds: int,
    seed: int,
    episode: int,
) -> List[List[Op]]:
    """One episode: *rounds* x (a deletion batch, an insertion batch).

    Deletion batch: one edge, one point inside an interval fact, and a
    verbatim duplicate.  Insertion batch: one new forward edge between
    existing nodes, one ground fact that joins the intervals, and an
    insert-then-delete pair of a fresh atom (the coalescer cancels it).
    *Which* edge, point and fact is the fixed schedule (episode, round);
    the seed orders the requests and picks the fresh values.
    """
    schedule = _rng("recursive-schedule", episode)
    order = _rng("recursive-order", seed, episode)
    chosen_edges = schedule.sample(list(edges), rounds)
    chosen_new = schedule.sample(list(non_edges), rounds)
    chosen_points = schedule.sample(list(points), rounds)
    chosen_grounds = schedule.sample(list(grounds), rounds)
    batches: List[List[Op]] = []
    for index in range(rounds):
        deletion = [
            ("delete", "edge", tuple(chosen_edges[index])),
            ("delete", chosen_points[index][0], (chosen_points[index][1],)),
        ]
        order.shuffle(deletion)
        deletion.append(deletion[order.randrange(2)])
        fresh = (f"x{order.randrange(10**6)}", f"y{order.randrange(10**6)}")
        insertion = [
            ("insert", "edge", tuple(chosen_new[index])),
            ("insert", chosen_grounds[index][0], (chosen_grounds[index][1],)),
        ]
        order.shuffle(insertion)
        at = order.randrange(len(insertion) + 1)
        insertion.insert(at, ("insert", "edge", fresh))
        insertion.insert(order.randrange(at + 1, len(insertion) + 1), ("delete", "edge", fresh))
        batches.extend([deletion, insertion])
    return batches


# ----------------------------------------------------------------------
# mediated-query
# ----------------------------------------------------------------------
def employee_toggles(people: Sequence[str], cycles: int, seed: int) -> List[str]:
    """Whose ``empl_abc`` row is toggled in each cycle.

    Whole passes over the population, each in a seeded order: every run
    toggles the same people about equally often, in a different sequence.
    """
    result: List[str] = []
    passes = 0
    while len(result) < cycles:
        order = list(people)
        _rng("toggles", seed, passes).shuffle(order)
        result.extend(order)
        passes += 1
    return result[:cycles]
