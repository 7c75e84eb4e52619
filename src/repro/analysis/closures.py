"""Static write/read-closure inference (analyzer pass 4).

An update to predicate ``p`` -- insertion or deletion alike, both
Algorithm 2 (StDel) and Algorithm 3 (insertion) rewrite along the same
body->head edges -- can only *write* predicates in ``p``'s upward closure
of the dependency graph.  Rebuilding a parent entry additionally *reads*
the body predicates of clauses whose head lies in the closure (StDel's
premise re-fetch), so the read closure is the write closure plus that body
frontier.  Both tables are total over the program's predicates and
computed once; the stream scheduler checks each batch out to the union of
its requests' write closures.

External-notice closures cover the third update kind: a source change in
domain ``d`` can disturb exactly the clauses whose constraints call ``d``,
i.e. the union of their heads' write closures.  (Under ``W_P``
materialization the cone is empty by Theorem 4 -- the table describes
``T_P``-mode maintenance.)
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Set, Tuple

from repro.constraints.ast import Constraint, Membership, NegatedConjunction
from repro.datalog.program import ConstrainedDatabase


def _upward_closure(
    predicate: str, edges: Dict[str, Tuple[str, ...]]
) -> FrozenSet[str]:
    seen = {predicate}
    frontier = [predicate]
    while frontier:
        node = frontier.pop()
        for successor in edges.get(node, ()):
            if successor not in seen:
                seen.add(successor)
                frontier.append(successor)
    return frozenset(seen)


def _domains_called(constraint: Constraint) -> Set[str]:
    found: Set[str] = set()
    for conjunct in constraint.conjuncts():
        if isinstance(conjunct, Membership):
            found.add(conjunct.call.domain)
        elif isinstance(conjunct, NegatedConjunction):
            for part in conjunct.parts:
                found.update(_domains_called(part))
    return found


def compute_closures(
    program: ConstrainedDatabase,
) -> Tuple[
    Dict[str, FrozenSet[str]], Dict[str, FrozenSet[str]], Dict[str, FrozenSet[str]]
]:
    """Return ``(write_closures, read_closures, external_closures)``, each
    total over the program's predicates."""
    edges = program.predicate_dependency_edges()
    write_closures = {
        predicate: _upward_closure(predicate, edges) for predicate in edges
    }

    read_closures: Dict[str, FrozenSet[str]] = {}
    for predicate, closure in write_closures.items():
        frontier: Set[str] = set(closure)
        for head in closure:
            for clause in program.clauses_for(head):
                frontier.update(clause.body_predicates())
        read_closures[predicate] = frozenset(frontier)

    external_closures: Dict[str, FrozenSet[str]] = {}
    touched: Dict[str, Set[str]] = {}
    for clause in program:
        for domain in _domains_called(clause.constraint):
            touched.setdefault(domain, set()).add(clause.predicate)
    for domain, heads in touched.items():
        cone: Set[str] = set()
        for head in heads:
            cone.update(write_closures[head])
        external_closures[domain] = frozenset(cone)

    return write_closures, read_closures, external_closures
