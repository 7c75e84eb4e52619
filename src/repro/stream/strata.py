"""Predicate stratification for batch scheduling.

An update to predicate ``p`` can only disturb entries of predicates
*reachable* from ``p`` in the dependency graph the program's clause ->
body-predicate index induces (``q -> head`` for every clause using ``q`` in
its body).  Recursion is confined to the graph's strongly connected
components, so the condensation is a DAG and every predicate gets a stratum
index (bottom-up component order, via
:meth:`~repro.datalog.program.ConstrainedDatabase.predicate_sccs`).

The scheduler partitions a coalesced batch by the *upward closure* of each
request's predicate: requests whose closures intersect must be maintained
together (their propagation cones share entries); requests whose closures
are disjoint form independent :class:`StratumUnit` objects.  Independent
units write disjoint predicate sets and read nothing another unit writes --
a clause joining predicates from two closures would put its head in both,
merging them -- so the scheduler applies them one after another in any
order with the same result, checks each one out to its own write closure,
and retries and reports each one individually.  Units split one batch;
batches themselves apply one at a time, in prepare order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.datalog.program import ConstrainedDatabase
from repro.errors import MaintenanceError
from repro.maintenance.requests import DeletionRequest, InsertionRequest
from repro.sanitizer import sanitizer_enabled


@dataclass(frozen=True)
class StratumUnit:
    """One independently-maintainable slice of a coalesced batch."""

    #: Predicates the unit's requests target directly.
    predicates: FrozenSet[str]
    #: Every predicate the unit's maintenance may rewrite (upward closure).
    write_closure: FrozenSet[str]
    #: Stratum indexes the closure spans (sorted; reporting only).
    strata: Tuple[int, ...]
    #: The unit's deletions / insertions, each in stream order.
    deletions: Tuple[DeletionRequest, ...]
    insertions: Tuple[InsertionRequest, ...]
    #: Position of the unit's earliest request in the batch (ordering key).
    order: int

    def __len__(self) -> int:
        return len(self.deletions) + len(self.insertions)

    def describe(self) -> str:
        names = ",".join(sorted(self.predicates))
        return (
            f"unit[{names}] strata={list(self.strata)} "
            f"({len(self.deletions)} del, {len(self.insertions)} ins)"
        )


class PredicateStrata:
    """Stratum indexes and upward closures of a program's predicates.

    With the static analyzer's precomputed tables (*closures* and
    *components* -- see :func:`repro.analysis.analyze_program`) the runtime
    never walks the dependency graph: closures are table lookups.
    Without them the class recomputes everything from the program, exactly
    as before.  Under ``REPRO_SHARD_SANITIZER=1`` every precomputed closure
    is re-derived by the runtime walk on first use and asserted equal --
    the analyzer is the source of truth, the walk its auditor.
    """

    def __init__(
        self,
        program: ConstrainedDatabase,
        closures: Optional[Mapping[str, FrozenSet[str]]] = None,
        components: Optional[Sequence[Tuple[str, ...]]] = None,
    ) -> None:
        self._edges = program.predicate_dependency_edges()
        self._components = (
            tuple(tuple(component) for component in components)
            if components is not None
            else program.predicate_sccs()
        )
        self._stratum: Dict[str, int] = {}
        for index, component in enumerate(self._components):
            for predicate in component:
                self._stratum[predicate] = index
        self._closures: Dict[str, FrozenSet[str]] = (
            dict(closures) if closures is not None else {}
        )
        self._precomputed = frozenset(self._closures)
        self._audited: set = set()

    @classmethod
    def from_report(
        cls, program: ConstrainedDatabase, report: "object"
    ) -> "PredicateStrata":
        """Build from an analyzer :class:`~repro.analysis.ProgramReport`."""
        return cls(
            program,
            closures=report.write_closures,
            components=report.components,
        )

    @property
    def components(self) -> Tuple[Tuple[str, ...], ...]:
        """The SCCs in bottom-up order (stratum index = position)."""
        return self._components

    def stratum_of(self, predicate: str) -> int:
        """Stratum index of *predicate* (unknown predicates get a fresh top)."""
        stratum = self._stratum.get(predicate)
        if stratum is None:
            return len(self._components)
        return stratum

    def _walk_closure(self, predicate: str) -> FrozenSet[str]:
        seen = {predicate}
        frontier = [predicate]
        while frontier:
            node = frontier.pop()
            for successor in self._edges.get(node, ()):
                if successor not in seen:
                    seen.add(successor)
                    frontier.append(successor)
        return frozenset(seen)

    def upward_closure(self, predicate: str) -> FrozenSet[str]:
        """*predicate* plus every predicate an update to it can disturb."""
        cached = self._closures.get(predicate)
        if cached is not None:
            if (
                predicate in self._precomputed
                and predicate not in self._audited
                and sanitizer_enabled()
            ):
                self._audited.add(predicate)
                walked = self._walk_closure(predicate)
                if walked != cached:
                    raise MaintenanceError(
                        f"analyzer write closure of {predicate!r} "
                        f"({sorted(cached)}) disagrees with the runtime "
                        f"dependency walk ({sorted(walked)})"
                    )
            return cached
        closure = self._walk_closure(predicate)
        self._closures[predicate] = closure
        return closure

    def partition(
        self,
        deletions: Sequence[DeletionRequest],
        insertions: Sequence[InsertionRequest],
    ) -> Tuple[StratumUnit, ...]:
        """Group the requests into independent units (closure overlap merge).

        Deletion positions precede insertion positions -- the scheduler
        applies a batch deletions-first, and within a unit each kind keeps
        its stream order -- and units come back sorted by their earliest
        request so scheduling is deterministic.
        """
        requests: List[Tuple[int, object]] = list(enumerate(deletions))
        offset = len(requests)
        requests.extend(
            (offset + index, request) for index, request in enumerate(insertions)
        )
        # Union-find keyed by predicate-closure membership.
        owner: Dict[str, int] = {}
        parent: Dict[int, int] = {}

        def find(node: int) -> int:
            while parent[node] != node:
                parent[node] = parent[parent[node]]
                node = parent[node]
            return node

        def union(left: int, right: int) -> int:
            root_left, root_right = find(left), find(right)
            if root_left == root_right:
                return root_left
            if root_right < root_left:
                root_left, root_right = root_right, root_left
            parent[root_right] = root_left
            return root_left

        closures: Dict[int, FrozenSet[str]] = {}
        for position, request in requests:
            parent[position] = position
            closures[position] = self.upward_closure(request.atom.predicate)
            root = position
            for predicate in closures[position]:
                claimed = owner.get(predicate)
                if claimed is not None:
                    root = union(root, claimed)
            for predicate in closures[position]:
                owner[predicate] = root

        groups: Dict[int, List[Tuple[int, object]]] = {}
        for position, request in requests:
            groups.setdefault(find(position), []).append((position, request))
        # Re-point stale owners at their final roots (unions may have
        # re-rooted a predicate's claimed group after it was recorded).
        units: List[StratumUnit] = []
        for root in sorted(groups):
            members = groups[root]
            unit_deletions = tuple(
                request
                for position, request in members
                if isinstance(request, DeletionRequest)
            )
            unit_insertions = tuple(
                request
                for position, request in members
                if isinstance(request, InsertionRequest)
            )
            predicates = frozenset(
                request.atom.predicate for _, request in members
            )
            write_closure = frozenset().union(
                *(closures[position] for position, _ in members)
            )
            strata = tuple(
                sorted({self.stratum_of(predicate) for predicate in write_closure})
            )
            units.append(
                StratumUnit(
                    predicates=predicates,
                    write_closure=write_closure,
                    strata=strata,
                    deletions=unit_deletions,
                    insertions=unit_insertions,
                    order=min(position for position, _ in members),
                )
            )
        units.sort(key=lambda unit: unit.order)
        return tuple(units)
