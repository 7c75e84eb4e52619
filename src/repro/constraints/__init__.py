"""Constraint language substrate.

This subpackage provides the building blocks of the paper's constrained
atoms and constrained clauses:

* :mod:`repro.constraints.terms` -- variables, constants, substitutions,
* :mod:`repro.constraints.ast` -- the constraint expressions themselves
  (comparisons, DCA-atoms, conjunctions and negated conjunctions),
* :mod:`repro.constraints.intern` -- the hash-consing substrate: every term
  and constraint node is interned at construction, so structural equality
  is pointer identity (see ``README.md`` in this package),
* :mod:`repro.constraints.solver` -- satisfiability / entailment checking,
* :mod:`repro.constraints.simplify` -- redundancy removal,
* :mod:`repro.constraints.solutions` -- instance enumeration,
* :mod:`repro.constraints.interfaces` -- the protocol the external-domain
  layer implements so the solver can evaluate domain calls.
"""

from repro.constraints.ast import (
    Comparison,
    Conjunction,
    Constraint,
    DomainCall,
    FALSE,
    FalseConstraint,
    Membership,
    NegatedConjunction,
    TRUE,
    TrueConstraint,
    bindings_constraint,
    compare,
    conjoin,
    equals,
    member,
    negate,
    not_equals,
    tuple_equalities,
)
from repro.constraints.intern import InternTable, intern_stats
from repro.constraints.interfaces import (
    CallEvaluator,
    EMPTY_RESULT_SET,
    FrozenResultSet,
    ResultSetLike,
)
from repro.constraints.projection import eliminate_variables
from repro.constraints.simplify import canonical_form, simplify
from repro.constraints.solutions import enumerate_solutions, solution_set
from repro.constraints.solver import ConstraintSolver
from repro.constraints.terms import (
    Constant,
    FreshVariableFactory,
    Substitution,
    Term,
    Variable,
    make_term,
)

__all__ = [
    "CallEvaluator",
    "Comparison",
    "Conjunction",
    "Constant",
    "Constraint",
    "ConstraintSolver",
    "DomainCall",
    "EMPTY_RESULT_SET",
    "FALSE",
    "FalseConstraint",
    "FreshVariableFactory",
    "FrozenResultSet",
    "InternTable",
    "Membership",
    "NegatedConjunction",
    "ResultSetLike",
    "Substitution",
    "TRUE",
    "Term",
    "TrueConstraint",
    "Variable",
    "bindings_constraint",
    "canonical_form",
    "compare",
    "conjoin",
    "eliminate_variables",
    "enumerate_solutions",
    "equals",
    "intern_stats",
    "make_term",
    "member",
    "negate",
    "not_equals",
    "simplify",
    "solution_set",
    "tuple_equalities",
]
