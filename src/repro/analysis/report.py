"""Diagnostics and the program report produced by the static analyzer.

A :class:`ProgramReport` is the one-shot summary of everything the analyzer
can decide about a mediated program *before* any maintenance runs: severity
graded diagnostics (safety, stratification, domain typing), the predicate
dependency structure (SCC condensation, strata, upward closures), and the
per-position facts the runtime consumes (interval-index eligibility), and
the closure groups ``repro analyze`` reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Mapping, Optional, Tuple

SEVERITIES = ("error", "warning", "info")


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding, graded by severity and sourced to a clause."""

    severity: str
    code: str
    message: str
    predicate: Optional[str] = None
    clause_number: Optional[int] = None

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity: {self.severity!r}")

    def render(self) -> str:
        """Human-readable one-liner, e.g. for CLI output."""
        where = []
        if self.clause_number is not None:
            where.append(f"clause {self.clause_number}")
        if self.predicate is not None:
            where.append(self.predicate)
        location = f" ({', '.join(where)})" if where else ""
        return f"{self.severity}[{self.code}]{location}: {self.message}"

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready representation."""
        return {
            "severity": self.severity,
            "code": self.code,
            "message": self.message,
            "predicate": self.predicate,
            "clause_number": self.clause_number,
        }


@dataclass(frozen=True)
class ProgramReport:
    """Everything the static analyzer derived from one program.

    The closure tables are total over the program's predicates (head *or*
    body occurrences) and are the precomputed source of truth the stream
    scheduler adopts; ``closure_groups`` assigns every predicate the id of
    its connected component in the (undirected) dependency graph -- two
    write closures can only intersect when their source predicates share a
    group (``repro analyze`` reports them; the runtime does not read them).
    """

    #: All findings, in pass order (safety, stratification, signatures).
    diagnostics: Tuple[Diagnostic, ...]
    #: Every predicate mentioned anywhere, sorted.
    predicates: Tuple[str, ...]
    #: SCCs of the dependency graph, bottom-up (stratum index = position).
    components: Tuple[Tuple[str, ...], ...]
    #: Predicate -> stratum (component) index.
    stratum: Mapping[str, int]
    #: Predicate -> upward closure (predicates an update can disturb).
    #: Identical for insertions and deletions: both propagate along the
    #: same body->head edges (Algorithms 2 and 3 rewrite the same cone).
    write_closures: Mapping[str, FrozenSet[str]]
    #: Predicate -> write closure plus the body predicates of every clause
    #: whose head lies in the closure (the entries StDel may *read* while
    #: rebuilding parents, without ever rewriting them).
    read_closures: Mapping[str, FrozenSet[str]]
    #: Predicate -> connected-component id (undirected dependency graph).
    closure_groups: Mapping[str, int]
    #: Domain name -> closure of every predicate whose clauses call into
    #: the domain (the external-notice update kind of the paper's W_P).
    external_closures: Mapping[str, FrozenSet[str]]
    #: (predicate, position) -> inferred value kind ("number", "string",
    #: "other", or "mixed" when clauses disagree).
    signatures: Mapping[Tuple[str, int], str]
    #: (predicate, position) pairs whose entries can carry numeric interval
    #: bounds in every clause -- range postings are useful there; probing
    #: other positions through the interval index is hopeless.
    interval_positions: FrozenSet[Tuple[str, int]]
    #: How many ``not(...)`` conjuncts are benign deletion-rewrite residue
    #: (pure comparisons) vs. negated external guards.
    not_delta_conjuncts: int = 0
    negated_guard_conjuncts: int = 0
    extra: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Severity views
    # ------------------------------------------------------------------
    def errors(self) -> Tuple[Diagnostic, ...]:
        """All error-severity diagnostics."""
        return tuple(d for d in self.diagnostics if d.severity == "error")

    def warnings(self) -> Tuple[Diagnostic, ...]:
        """All warning-severity diagnostics."""
        return tuple(d for d in self.diagnostics if d.severity == "warning")

    def severity_counts(self) -> Dict[str, int]:
        """``{"error": n, "warning": n, "info": n}``."""
        counts = {severity: 0 for severity in SEVERITIES}
        for diagnostic in self.diagnostics:
            counts[diagnostic.severity] += 1
        return counts

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        """JSON-ready representation (sorted, deterministic)."""
        return {
            "diagnostics": [d.as_dict() for d in self.diagnostics],
            "severity_counts": self.severity_counts(),
            "predicates": list(self.predicates),
            "components": [list(component) for component in self.components],
            "stratum": {p: self.stratum[p] for p in sorted(self.stratum)},
            "write_closures": {
                p: sorted(self.write_closures[p])
                for p in sorted(self.write_closures)
            },
            "read_closures": {
                p: sorted(self.read_closures[p])
                for p in sorted(self.read_closures)
            },
            "closure_groups": {
                p: self.closure_groups[p] for p in sorted(self.closure_groups)
            },
            "external_closures": {
                d: sorted(self.external_closures[d])
                for d in sorted(self.external_closures)
            },
            "signatures": {
                f"{predicate}/{position}": kind
                for (predicate, position), kind in sorted(self.signatures.items())
            },
            "interval_positions": [
                f"{predicate}/{position}"
                for predicate, position in sorted(self.interval_positions)
            ],
            "not_delta_conjuncts": self.not_delta_conjuncts,
            "negated_guard_conjuncts": self.negated_guard_conjuncts,
        }

    def summary(self) -> str:
        """One paragraph for CLI output."""
        counts = self.severity_counts()
        closure_sizes = [len(c) for c in self.write_closures.values()]
        mean_closure = (
            sum(closure_sizes) / len(closure_sizes) if closure_sizes else 0.0
        )
        return (
            f"{len(self.predicates)} predicates, "
            f"{len(self.components)} strata, "
            f"{len(set(self.closure_groups.values()))} closure groups; "
            f"mean write closure {mean_closure:.1f}, "
            f"{len(self.interval_positions)} interval-eligible positions; "
            f"{counts['error']} errors, {counts['warning']} warnings, "
            f"{counts['info']} infos"
        )
