"""Constrained databases (programs).

A :class:`ConstrainedDatabase` is the ordered, numbered collection of
constrained clauses that defines a mediated view.  Clause numbers matter: the
supports of Section 3.1.2 are built from them, and the maintenance
algorithms rewrite individual clauses by number.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.constraints.ast import Constraint
from repro.datalog.atoms import ConstrainedAtom
from repro.datalog.clauses import Clause
from repro.datalog.view import UNBOUND, bound_argument_values
from repro.errors import ProgramError

#: Head-argument index of one predicate: ``(position, pinned value)`` --
#: or ``(position, UNBOUND)`` for heads the constraint does not pin there --
#: to the numbers of the clauses filed under it, ascending.
_HeadIndex = Dict[Tuple[int, object], Tuple[int, ...]]


class ConstrainedDatabase:
    """An immutable, numbered set of constrained clauses.

    Clauses keep the numbers they were given; clauses without a number are
    assigned the next free one in order.  All rewriting operations return new
    databases, leaving the original untouched (the maintenance algorithms
    need to compare the before/after programs).
    """

    def __init__(self, clauses: Iterable[Clause] = ()) -> None:
        numbered: Dict[int, Clause] = {}
        pending: List[Clause] = []
        for clause in clauses:
            if not isinstance(clause, Clause):
                raise ProgramError(f"not a clause: {clause!r}")
            if clause.number is None:
                pending.append(clause)
            else:
                if clause.number in numbered:
                    raise ProgramError(f"duplicate clause number: {clause.number}")
                numbered[clause.number] = clause
        next_number = 1
        for clause in pending:
            while next_number in numbered:
                next_number += 1
            numbered[next_number] = clause.with_number(next_number)
            next_number += 1
        self._clauses: Dict[int, Clause] = dict(sorted(numbered.items()))
        by_predicate: Dict[str, List[Clause]] = {}
        by_body_predicate: Dict[str, List[Clause]] = {}
        rule_clauses: List[Clause] = []
        for clause in self._clauses.values():
            by_predicate.setdefault(clause.predicate, []).append(clause)
            if clause.body:
                rule_clauses.append(clause)
                for body_predicate in dict.fromkeys(clause.body_predicates()):
                    by_body_predicate.setdefault(body_predicate, []).append(clause)
        self._by_predicate: Dict[str, Tuple[Clause, ...]] = {
            predicate: tuple(found) for predicate, found in by_predicate.items()
        }
        self._by_body_predicate: Dict[str, Tuple[Clause, ...]] = {
            predicate: tuple(found) for predicate, found in by_body_predicate.items()
        }
        self._rule_clauses: Tuple[Clause, ...] = tuple(rule_clauses)
        # Lazily built, each published with one assignment of the finished
        # object, and handed on to derived databases (see ``_derive``).
        self._head_index: Dict[str, _HeadIndex] = {}
        self._variable_names: Optional[FrozenSet[str]] = None
        self._dependency_edges: Optional[Dict[str, Tuple[str, ...]]] = None
        self._derivable: Optional[FrozenSet[str]] = None

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Clause]:
        return iter(self._clauses.values())

    def __len__(self) -> int:
        return len(self._clauses)

    def __contains__(self, clause: Clause) -> bool:
        return clause in self._clauses.values()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConstrainedDatabase):
            return NotImplemented
        return self._clauses == other._clauses

    def __repr__(self) -> str:
        return f"ConstrainedDatabase({len(self._clauses)} clauses)"

    def __str__(self) -> str:
        return "\n".join(str(clause) for clause in self)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    @property
    def clauses(self) -> Tuple[Clause, ...]:
        """All clauses in clause-number order."""
        return tuple(self._clauses.values())

    def clause(self, number: int) -> Clause:
        """Return the clause with the given number."""
        try:
            return self._clauses[number]
        except KeyError as exc:
            raise ProgramError(f"no clause numbered {number}") from exc

    def has_clause(self, number: int) -> bool:
        """True if a clause with this number exists."""
        return number in self._clauses

    def clauses_for(self, predicate: str) -> Tuple[Clause, ...]:
        """Clauses whose head predicate is *predicate* (may be empty)."""
        return self._by_predicate.get(predicate, ())

    def clauses_with_body_predicate(self, predicate: str) -> Tuple[Clause, ...]:
        """Clauses referencing *predicate* in their body, in number order.

        This is the dependency index the semi-naive fixpoint and the
        maintenance unfoldings use to skip clauses whose body predicates
        gained no new entries in a round.
        """
        return self._by_body_predicate.get(predicate, ())

    @property
    def rule_clauses(self) -> Tuple[Clause, ...]:
        """All clauses that have at least one body atom, in number order."""
        return self._rule_clauses

    def predicates(self) -> Tuple[str, ...]:
        """All predicates defined by some clause head, sorted."""
        return tuple(sorted(self._by_predicate))

    def max_clause_number(self) -> int:
        """Largest clause number in use (0 when empty)."""
        # ``_clauses`` is kept in ascending number order.
        return next(reversed(self._clauses), 0)

    def head_candidates(self, atom: ConstrainedAtom) -> Tuple[Clause, ...]:
        """Clauses whose head may unify with *atom*, in number order.

        A superset of the clauses of *atom*'s signature that share an
        instance with it: when *atom*'s constraint pins an argument to a
        value, only the clauses whose head is pinned to that value at the
        same position, or not pinned there at all, are returned (the first
        pinned position decides, like :meth:`MaterializedView.probe`);
        otherwise every clause of the signature is.  Callers follow up with
        the exact check they need.
        """
        predicate, arity = atom.signature
        found: Sequence[Clause] = self.clauses_for(predicate)
        for position, value in enumerate(
            bound_argument_values(atom.atom.args, atom.constraint)
        ):
            if value is UNBOUND:
                continue
            index = self._head_index_for(predicate)
            try:
                numbers = index.get((position, value), ()) + index.get(
                    (position, UNBOUND), ()
                )
            except TypeError:  # unhashable value: the whole table it is
                break
            found = [self._clauses[number] for number in sorted(numbers)]
            break
        return tuple(clause for clause in found if len(clause.head.args) == arity)

    def _head_index_for(self, predicate: str) -> _HeadIndex:
        """The head-argument index of *predicate*, built on first use."""
        index = self._head_index.get(predicate)
        if index is None:
            index = _extend_head_index({}, self.clauses_for(predicate))
            self._head_index[predicate] = index
        return index

    def variable_names(self) -> FrozenSet[str]:
        """Names of every variable occurring in some clause (memoised)."""
        names = self._variable_names
        if names is None:
            names = self._variable_names = _clause_variable_names(self)
        return names

    def derivable_predicates(self) -> FrozenSet[str]:
        """Predicates that are the head of some rule clause (memoised)."""
        derivable = self._derivable
        if derivable is None:
            derivable = self._derivable = frozenset(
                clause.predicate for clause in self._rule_clauses
            )
        return derivable

    def is_recursive(self) -> bool:
        """True when the predicate dependency graph has a cycle."""
        graph: Dict[str, set] = {}
        for clause in self:
            graph.setdefault(clause.predicate, set()).update(clause.body_predicates())

        visited: Dict[str, int] = {}  # 0 = in progress, 1 = done

        def dfs(node: str) -> bool:
            state = visited.get(node)
            if state == 0:
                return True
            if state == 1:
                return False
            visited[node] = 0
            for successor in graph.get(node, ()):
                if dfs(successor):
                    return True
            visited[node] = 1
            return False

        return any(dfs(predicate) for predicate in graph)

    def predicate_dependency_edges(self) -> Dict[str, Tuple[str, ...]]:
        """Edges ``body predicate -> head predicates`` of the dependency graph.

        Derived from the clause -> body-predicate index the semi-naive
        fixpoint already maintains: an edge ``q -> p`` means some clause
        derives ``p`` using ``q`` in its body, i.e. an update to ``q`` can
        disturb ``p``'s entries.  Every predicate mentioned anywhere (head or
        body) appears as a key, so reachability walks need no special cases.
        Memoised: the returned mapping is shared and must not be modified.
        """
        memo = self._dependency_edges
        if memo is None:
            edges: Dict[str, set] = {}
            for clause in self:
                edges.setdefault(clause.predicate, set())
                for body_predicate in clause.body_predicates():
                    edges.setdefault(body_predicate, set()).add(clause.predicate)
            memo = self._dependency_edges = {
                predicate: tuple(sorted(heads)) for predicate, heads in edges.items()
            }
        return memo

    def predicate_sccs(self) -> Tuple[Tuple[str, ...], ...]:
        """Strongly connected components of the predicate dependency graph.

        Components come back in bottom-up topological order (a component
        only depends on earlier ones); predicates inside a component are
        sorted.  These are the analyzer's strata
        (:attr:`~repro.analysis.ProgramReport.components`): recursion is
        confined to a component.

        Iterative Tarjan over the same edges as
        :meth:`predicate_dependency_edges`, with sorted adjacency so the
        result is deterministic.
        """
        edges = self.predicate_dependency_edges()
        index_counter = 0
        indexes: Dict[str, int] = {}
        lowlinks: Dict[str, int] = {}
        on_stack: Dict[str, bool] = {}
        stack: List[str] = []
        components: List[Tuple[str, ...]] = []

        for root in sorted(edges):
            if root in indexes:
                continue
            work: List[Tuple[str, int]] = [(root, 0)]
            while work:
                node, child_index = work.pop()
                if child_index == 0:
                    indexes[node] = lowlinks[node] = index_counter
                    index_counter += 1
                    stack.append(node)
                    on_stack[node] = True
                successors = edges.get(node, ())
                advanced = False
                while child_index < len(successors):
                    successor = successors[child_index]
                    child_index += 1
                    if successor not in indexes:
                        work.append((node, child_index))
                        work.append((successor, 0))
                        advanced = True
                        break
                    if on_stack.get(successor):
                        lowlinks[node] = min(lowlinks[node], indexes[successor])
                if advanced:
                    continue
                if lowlinks[node] == indexes[node]:
                    component: List[str] = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        component.append(member)
                        if member == node:
                            break
                    components.append(tuple(sorted(component)))
                if work:
                    parent = work[-1][0]
                    lowlinks[parent] = min(lowlinks[parent], lowlinks[node])
        # Tarjan pops a component before the components it was reached from;
        # with body->head edges that is dependents-first, so reverse for the
        # bottom-up (dependencies-first) order the docstring promises.
        components.reverse()
        return tuple(components)

    # ------------------------------------------------------------------
    # Rewriting (all return new databases)
    # ------------------------------------------------------------------
    def with_clauses_added(self, clauses: Sequence[Clause]) -> "ConstrainedDatabase":
        """Return a database with several clauses appended.

        The new clauses are numbered upward from the largest number in use
        (a number is never reused, so supports recorded against a removed
        clause cannot come to mean another one) and everything but the
        tables of the predicates they touch is shared with this database.
        See :meth:`_derive` for what an edit costs.
        """
        number = self.max_clause_number()
        added: List[Clause] = []
        for clause in clauses:
            if not isinstance(clause, Clause):
                raise ProgramError(f"not a clause: {clause!r}")
            number += 1
            added.append(clause.with_number(number))
        return self._derive(added, appended=True)

    def with_extra_constraints(
        self, extras: Mapping[int, Constraint]
    ) -> "ConstrainedDatabase":
        """Return a database whose clause *number* carries ``φ & extras[number]``.

        Heads, bodies and numbers are unchanged and every clause not named
        is the same object as here; so are the clause -> body-predicate
        tables when no rule clause is named, and the dependency edges and
        derivable predicates always.  Conjoining can only narrow a clause,
        which keeps the head-argument index of this database valid for the
        result.  See :meth:`_derive` for what an edit costs.
        """
        return self._derive(
            [
                self.clause(number).with_extra_constraint(extra)
                for number, extra in extras.items()
            ],
            appended=False,
        )

    def _derive(
        self, changed: Sequence[Clause], appended: bool
    ) -> "ConstrainedDatabase":
        """This database with *changed* appended, or swapped in by number.

        Shares every clause object and every per-predicate table the change
        does not touch, and hands the lazily built tables on (extended by
        what *changed* adds), so a stream of small edits never re-reads a
        clause it does not change.  An edit is not O(|changed|), though: it
        copies the number -> clause dict (one pointer per clause of the
        program, at C speed) and the table dicts (one per predicate), and
        rebuilds the clause tuple of each predicate *changed* names (a pass
        over that predicate's clauses when swapping, a concatenation when
        appending) and, when appending, that predicate's head index.
        """
        if not changed:
            return self
        by_number = {clause.number: clause for clause in changed}
        by_head: Dict[str, List[Clause]] = {}
        by_body: Dict[str, List[Clause]] = {}
        for clause in changed:
            by_head.setdefault(clause.predicate, []).append(clause)
            for body_predicate in dict.fromkeys(clause.body_predicates()):
                by_body.setdefault(body_predicate, []).append(clause)

        def enter(table: Tuple[Clause, ...], new: List[Clause]) -> Tuple[Clause, ...]:
            if appended:
                return table + tuple(new)
            return tuple(by_number.get(clause.number, clause) for clause in table)

        def entered(tables, groups):
            if not groups:
                return tables
            return {
                **tables,
                **{key: enter(tables.get(key, ()), new) for key, new in groups.items()},
            }

        derived = ConstrainedDatabase.__new__(ConstrainedDatabase)
        derived._clauses = {**self._clauses, **by_number}
        derived._by_predicate = entered(self._by_predicate, by_head)
        derived._by_body_predicate = entered(self._by_body_predicate, by_body)
        rules = [clause for clause in changed if clause.body]
        derived._rule_clauses = enter(self._rule_clauses, rules) if rules else self._rule_clauses
        # Narrowed clauses stay filed where they are (see
        # ``with_extra_constraints``); appended ones are filed on top.
        derived._head_index = {
            **self._head_index,
            **{
                predicate: _extend_head_index(self._head_index[predicate], new)
                for predicate, new in by_head.items()
                if appended and predicate in self._head_index
            },
        }
        names = self.variable_names()
        added_names = _clause_variable_names(changed)
        derived._variable_names = (
            names if added_names <= names else names | added_names
        )
        # Narrowing a constraint changes neither the predicate graph nor the
        # rule heads; only an appended rule, or a predicate not seen before,
        # does.
        edges = self._dependency_edges
        if appended and edges is not None:
            if rules or any(predicate not in edges for predicate in by_head):
                edges = None
        derived._dependency_edges = edges
        derived._derivable = None if appended and rules else self._derivable
        return derived

    def map_clauses(
        self, transform: "callable[[Clause], Optional[Clause]]"
    ) -> "ConstrainedDatabase":
        """Apply *transform* to every clause; ``None`` results drop the clause."""
        updated = []
        for clause in self:
            result = transform(clause)
            if result is not None:
                updated.append(result if result.number is not None else result.with_number(clause.number))
        return ConstrainedDatabase(updated)


def _clause_variable_names(clauses: Iterable[Clause]) -> FrozenSet[str]:
    return frozenset(
        variable.name for clause in clauses for variable in clause.variables()
    )


def _extend_head_index(index: _HeadIndex, clauses: Iterable[Clause]) -> _HeadIndex:
    """A copy of *index* that also files *clauses* (numbers above its own)."""
    filed: Dict[Tuple[int, object], List[int]] = {}
    for clause in clauses:
        for position, value in enumerate(
            bound_argument_values(clause.head.args, clause.constraint)
        ):
            try:
                filed.setdefault((position, value), []).append(clause.number)
            except TypeError:  # unhashable value: reachable from every lookup
                filed.setdefault((position, UNBOUND), []).append(clause.number)
    extended = dict(index)
    for key, numbers in filed.items():
        extended[key] = extended.get(key, ()) + tuple(numbers)
    return extended
