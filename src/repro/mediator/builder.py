"""Fluent construction of mediators.

The examples and workload generators assemble mediators from several pieces
(rule text, relational sources, special-purpose domains); the builder keeps
those call sites readable.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.analysis import analyze_program
from repro.datalog.clauses import Clause
from repro.datalog.parser import parse_program
from repro.datalog.program import ConstrainedDatabase
from repro.domains.base import Domain, DomainRegistry
from repro.domains.relational import make_relational_domain
from repro.errors import MediatorError
from repro.mediator.mediator import Mediator


class MediatorBuilder:
    """Step-by-step construction of a :class:`~repro.mediator.Mediator`."""

    def __init__(self) -> None:
        self._rule_texts: List[str] = []
        self._domains: List[Domain] = []

    def with_rules(self, rules: str) -> "MediatorBuilder":
        """Append rule text (parsed when :meth:`build` is called)."""
        self._rule_texts.append(rules)
        return self

    def with_domain(self, domain: Domain) -> "MediatorBuilder":
        """Register an external domain."""
        self._domains.append(domain)
        return self

    def with_relational_source(
        self,
        name: str,
        tables: Dict[str, Tuple[Sequence[str], Iterable[object]]],
    ) -> "MediatorBuilder":
        """Create and register a relational domain with the given tables."""
        self._domains.append(make_relational_domain(name, tables))
        return self

    def build(self) -> Mediator:
        """Assemble the mediator."""
        clauses: List[Clause] = []
        for text in self._rule_texts:
            clauses.extend(parse_program(text).clauses)
        if not clauses:
            raise MediatorError("a mediator needs at least one rule")
        # Renumber sequentially so rule text order defines clause numbers.
        program = ConstrainedDatabase(
            clause.with_number(None) for clause in clauses
        )
        registry = DomainRegistry(self._domains, cache_calls=True)
        # Fail fast on the analysis errors no program should ship with:
        # unsafe head variables and unstratified negation make the fixpoint
        # semantics itself ill-defined.  Registry-level errors (unknown
        # domains / arity conflicts) stay diagnostics -- builders routinely
        # assemble programs before all their sources are attached.
        report = analyze_program(program, registry)
        fatal = [
            diagnostic
            for diagnostic in report.errors()
            if diagnostic.code in ("unsafe-head-variable", "unstratified-negation")
        ]
        if fatal:
            rendered = "; ".join(diagnostic.render() for diagnostic in fatal)
            raise MediatorError(f"program fails static analysis: {rendered}")
        return Mediator(program, registry)
