"""Constraint simplification.

The Straight Delete algorithm (Section 3.1.2) repeatedly replaces a view
entry's constraint ``φ`` by ``φ & bindings & not(ψ)``; the paper notes that
"the constraints that are created in step 3 of the algorithm will often
contain redundancy.  But ... in many cases the redundancy can be removed by
simplification of the constraints" (its Example 5 turns
``X <= 5 & not(X <= 5 & X = 6)`` into ``X <= 5 & X != 6``).

This module implements exactly that simplification:

* duplicate conjuncts are removed,
* negated conjunctions are reduced against the positive context: inner
  conjuncts entailed by the context disappear, inner conjuncts contradicted
  by the context make the whole negation trivially true, a singleton residue
  is replaced by the dual primitive literal, and an empty residue collapses
  the constraint to ``false``,
* (optionally) comparison conjuncts entailed by the rest are dropped.

Membership (DCA) atoms are never dropped, even when the current domain
contents make them redundant: under the ``W_P`` reading of Section 4 their
truth may change over time, so removing them would change the view's
semantics at later time points.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.constraints.ast import (
    Comparison,
    Constraint,
    FALSE,
    FalseConstraint,
    NegatedConjunction,
    TRUE,
    TrueConstraint,
    conjoin,
    negate,
)
from repro.constraints.intern import EVENTS
from repro.constraints.solver import (
    ConstraintSolver,
    box_entails,
    box_literal,
    box_of,
    box_satisfiable,
)
from repro.constraints.terms import Constant, Variable


def simplify(
    constraint: Constraint,
    solver: Optional[ConstraintSolver] = None,
    drop_redundant_comparisons: bool = False,
) -> Constraint:
    """Return an equivalent but syntactically smaller constraint.

    Parameters
    ----------
    constraint:
        The constraint to simplify.
    solver:
        Solver used for entailment checks.  When omitted a registry-free
        solver is used, which still handles all comparison reasoning.
    drop_redundant_comparisons:
        When True, comparison conjuncts entailed by the remaining conjuncts
        are removed (e.g. ``X = 2 & X >= 1`` becomes ``X = 2``).  Membership
        atoms are never dropped.
    """
    solver = solver or ConstraintSolver()
    if isinstance(constraint, (TrueConstraint, FalseConstraint)):
        return constraint

    cached, gate = solver.cached_simplification(constraint, drop_redundant_comparisons)
    if cached is not None:
        return cached

    result = _simplify_conjuncts(constraint, solver, drop_redundant_comparisons)
    solver.cache_simplification(constraint, drop_redundant_comparisons, gate, result)
    return result


def _simplify_conjuncts(
    constraint: Constraint,
    solver: ConstraintSolver,
    drop_redundant_comparisons: bool,
) -> Constraint:
    conjuncts = _dedupe(list(constraint.conjuncts()))
    if any(isinstance(part, FalseConstraint) for part in conjuncts):
        return FALSE

    # With two or more negations, one that reduces to a literal narrows the
    # context of the others (``not(X <= 6 & X <= 7) & not(X <= 6)`` keeps
    # ``X > 6`` alone): reduce them again until none does.
    narrowing = sum(isinstance(part, NegatedConjunction) for part in conjuncts) > 1
    negations = narrowed = True
    while negations and narrowed:
        negations = narrowed = False
        context = conjoin(*(part for part in conjuncts if part.is_primitive()))
        reduced: List[Constraint] = []
        for part in conjuncts:
            if isinstance(part, NegatedConjunction):
                replacement = _reduce_negation(part, context, solver)
                if isinstance(replacement, FalseConstraint):
                    return FALSE
                if isinstance(replacement, TrueConstraint):
                    continue
                if narrowing and replacement.is_primitive():
                    context = conjoin(context, replacement)
                    narrowed = True
                else:
                    negations = True
                reduced.append(replacement)
            else:
                reduced.append(part)
        conjuncts = reduced = _dedupe(reduced)

    if drop_redundant_comparisons:
        reduced = _drop_redundant_comparisons(reduced, solver)

    return conjoin(*reduced)


def canonical_form(constraint: Constraint) -> Constraint:
    """Return a canonical ordering of conjuncts for duplicate detection.

    Equalities are oriented variable-first / alphabetically and the conjuncts
    are sorted by their textual rendering; this gives a stable, purely
    syntactic normal form (no solver reasoning), adequate for detecting
    literally repeated view entries.  Every view-entry key, solver memo hit
    and maintenance dedup goes through here.

    The memo lives *on the node* (the ``_canonical`` slot of the interned
    constraint): the form is purely syntactic, so it can never go stale,
    and because nodes are hash-consed into weak tables, the memo's size
    policy is the node's own lifetime.  This replaced the old module-global
    ``_CANONICAL_CACHE`` dict, which a long-lived serve process could grow
    to its 200k cap and whose wholesale clears threw away every form at
    once.  A canonical result is also its *own* canonical form, so repeated
    canonicalization is one slot read.
    """
    if isinstance(constraint, (TrueConstraint, FalseConstraint)):
        return constraint
    cached = constraint._canonical
    if cached is not None:
        EVENTS.canonical_hits += 1
        return cached
    EVENTS.canonical_misses += 1
    oriented = [_orient(part) for part in constraint.conjuncts()]
    unique = _dedupe(oriented)
    ordered = sorted(unique, key=str)
    result = conjoin(*ordered)
    if not isinstance(result, (TrueConstraint, FalseConstraint)):
        # The fixpoint: canonical_form(canonical_form(c)) is a pointer read.
        object.__setattr__(result, "_canonical", result)
    object.__setattr__(constraint, "_canonical", result)
    return result


# ---------------------------------------------------------------------------
# Internal helpers
# ---------------------------------------------------------------------------


def _dedupe(parts: Sequence[Constraint]) -> List[Constraint]:
    seen = set()
    result: List[Constraint] = []
    for part in parts:
        if isinstance(part, TrueConstraint):
            continue
        key = _orient(part) if part.is_primitive() else part
        if key in seen:
            continue
        seen.add(key)
        result.append(part)
    return result


def _orient(part: Constraint) -> Constraint:
    """Orient symmetric comparisons into a canonical operand order."""
    if not isinstance(part, Comparison):
        return part
    if part.op in ("=", "!="):
        left, right = part.left, part.right
        if isinstance(left, Constant) and isinstance(right, Variable):
            return Comparison(right, part.op, left)
        if isinstance(left, Variable) and isinstance(right, Variable):
            if left.name > right.name:
                return Comparison(right, part.op, left)
        if isinstance(left, Constant) and isinstance(right, Constant):
            if str(left) > str(right):
                return Comparison(right, part.op, left)
        return part
    if part.op in (">", ">="):
        return part.flipped()
    return part


def _reduce_negation(
    negation: NegatedConjunction,
    context: Constraint,
    solver: ConstraintSolver,
) -> Constraint:
    """Reduce ``not(p1 & ... & pk)`` relative to the positive *context*.

    Against a box context a box literal is decided by bounds arithmetic."""
    box = box_of(context)
    residue: List[Constraint] = []
    for part in negation.parts:
        if isinstance(part, FalseConstraint):
            # The inner conjunction is false, so the negation is true.
            return TRUE
        literal = None if box is None else box_literal(part)
        if literal is None:
            entailed = solver.entails(context, part)
            meets = entailed or solver.is_satisfiable(conjoin(context, part))
        else:
            entailed = box_entails(box, literal)
            meets = entailed or box_satisfiable(box, literal)
        if entailed:
            # Under the context this inner conjunct always holds; the
            # negation reduces to the negation of the remaining conjuncts.
            continue
        if not meets:
            # The inner conjunct can never hold together with the context,
            # so the negated conjunction is always true here.
            return TRUE
        residue.append(part)
    residue = _dedupe(residue)
    if not residue:
        return FALSE
    if len(residue) == 1:
        return negate(residue[0])
    return NegatedConjunction(tuple(residue))


def _drop_redundant_comparisons(
    parts: List[Constraint], solver: ConstraintSolver
) -> List[Constraint]:
    """Drop the comparisons the other parts entail.  When every part is a
    box literal, a comparison is tested against the box of the others."""
    result = list(parts)
    literals: Optional[List] = None  # read on the first entailment test
    index = 0
    while index < len(result):
        part = result[index]
        if isinstance(part, Comparison):
            rest = result[:index] + result[index + 1:]
            # Keep equalities that define a variable otherwise unconstrained:
            # dropping them would lose binding information used for display
            # and for solution enumeration even though the solution set over
            # mentioned variables is preserved.
            defines_variable = part.op == "=" and any(
                isinstance(term, Variable)
                and not any(term in other.variables() for other in rest)
                for term in (part.left, part.right)
            )
            if defines_variable or not rest:
                index += 1
                continue
            if literals is None:
                literals = [box_literal(other) for other in result]
            if (
                box_entails((*literals[:index], *literals[index + 1:]), literals[index])
                if None not in literals
                else solver.entails(conjoin(*rest), part)
            ):
                result.pop(index)
                literals.pop(index)
                continue
        index += 1
    return result
