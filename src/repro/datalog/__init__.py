"""Constrained-Datalog substrate.

Atoms, constrained atoms, clauses, programs (constrained databases),
materialized views with derivation supports, the ``T_P`` / ``W_P`` fixpoint
operators, and a small rule-text parser.
"""

from repro.datalog.atoms import Atom, ConstrainedAtom, ground_atom, make_atom
from repro.datalog.clauses import Clause, fact, rule
from repro.datalog.fixpoint import (
    FixpointEngine,
    compute_tp_fixpoint,
    compute_wp_fixpoint,
)
from repro.datalog.join import EngineOptions
from repro.datalog.parser import (
    parse_atom,
    parse_clause,
    parse_constrained_atom,
    parse_constraint,
    parse_program,
)
from repro.datalog.program import ConstrainedDatabase
from repro.datalog.support import Support, derived, leaf
from repro.datalog.view import MaterializedView, ViewEntry

__all__ = [
    "Atom",
    "Clause",
    "ConstrainedAtom",
    "ConstrainedDatabase",
    "EngineOptions",
    "FixpointEngine",
    "MaterializedView",
    "Support",
    "ViewEntry",
    "compute_tp_fixpoint",
    "compute_wp_fixpoint",
    "derived",
    "fact",
    "ground_atom",
    "leaf",
    "make_atom",
    "parse_atom",
    "parse_clause",
    "parse_constrained_atom",
    "parse_constraint",
    "parse_program",
    "rule",
]
