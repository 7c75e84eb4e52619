"""Variable elimination (projection) for constraints.

Clause application in ``T_P`` / ``W_P`` produces constraints full of
auxiliary variables: the equalities ``{X̄i = t̄i}`` that wire renamed body
entries to the clause's body atoms.  Those auxiliary variables are
existentially quantified -- only the head variables matter for the view
entry's meaning -- and the paper's worked examples always show the
*projected* constraint (e.g. ``A(X) <- X >= 5`` rather than
``A(X) <- X1 >= 5 & X1 = X``).

``eliminate_variables`` implements the sound projection used for this:
a positive top-level equality ``V = t`` whose ``V`` is not a protected
variable can be removed after substituting ``t`` for ``V`` everywhere,
because ``∃V (V = t ∧ φ)`` is equivalent to ``φ[V := t]``.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.constraints.ast import (
    FALSE,
    Comparison,
    Constraint,
    FalseConstraint,
    NegatedConjunction,
    TRUE,
    TrueConstraint,
    conjoin,
)
from repro.constraints.terms import Constant, Substitution, Term, Variable

#: Cap on the per-node projection memo (``_elim`` slot): one constraint is
#: typically projected onto a handful of keep-sets (its clause heads), so a
#: small bound suffices; the dict is dropped wholesale when full.  The memo
#: itself lives on the interned node and dies with it -- projection is
#: deterministic and purely syntactic, so entries never go stale.
_ELIMINATION_MEMO_LIMIT = 16


def eliminate_variables(
    constraint: Constraint,
    keep: Iterable[Variable],
    max_rounds: Optional[int] = None,
) -> Constraint:
    """Eliminate auxiliary variables bound by top-level equalities.

    Parameters
    ----------
    constraint:
        The constraint to project.
    keep:
        Variables that must survive (typically the head variables of the
        derived atom).  Every other variable is auxiliary and is eliminated
        whenever a top-level equality pins it to another term.
    max_rounds:
        Safety bound on the number of elimination passes (defaults to the
        number of conjuncts plus one).
    """
    protected: Set[Variable] = set(keep)
    if isinstance(constraint, (TrueConstraint, FalseConstraint)):
        return constraint

    cache_key: Optional[FrozenSet[Variable]] = None
    if max_rounds is None:
        cache_key = frozenset(protected)
        memo = constraint._elim
        if memo is not None:
            cached = memo.get(cache_key)
            if cached is not None:
                return cached

    parts: List[Constraint] = list(constraint.conjuncts())
    rounds = max_rounds if max_rounds is not None else len(parts) + 1

    for _ in range(rounds):
        target = _find_eliminable_equality(parts, protected)
        if target is None:
            break
        index, variable, replacement = target
        substitution = Substitution({variable: replacement})
        parts = [
            part.substitute(substitution)
            for position, part in enumerate(parts)
            if position != index
        ]
    result = conjoin(*_drop_trivial(parts))
    if cache_key is not None:
        memo = constraint._elim
        if memo is None or len(memo) >= _ELIMINATION_MEMO_LIMIT:
            memo = {}
            object.__setattr__(constraint, "_elim", memo)
        memo[cache_key] = result
    return result


def scope_negations(constraint: Constraint, outer: Iterable[Variable]) -> Constraint:
    """Inline the equality-determined local variables of each ``not(...)``.

    Called once, where a negation is built, by the code that knows which of
    its variables are *outer*: those in *outer* (the atom arguments the
    constraint is attached to, a clause's head and body) and those of the
    other top-level conjuncts of *constraint*.  Every other variable of a
    top-level ``not(ψ)`` is local to it (``not(ψ)`` means "ψ has no witness
    for them"); one pinned by an equality inside ψ -- which is always the
    case for the binding equalities the maintenance rewrites introduce -- is
    eliminated by substitution, so the negation then mentions only outer
    variables and the solver's branch expansion is exact for it.

    The view constraints also become the compact forms the paper displays,
    e.g. ``not(Y = 6 & Y = X)`` over ``X`` becomes ``not(X = 6)``.
    """
    parts = constraint.conjuncts()
    if not any(isinstance(part, NegatedConjunction) for part in parts):
        return constraint
    outer = frozenset(outer)
    rewritten: List[Constraint] = []
    for index, part in enumerate(parts):
        if not isinstance(part, NegatedConjunction):
            rewritten.append(part)
            continue
        keep = set(outer)
        for other in parts[:index] + parts[index + 1:]:
            keep.update(other.variables())
        rewritten.append(scoped_negation(conjoin(*part.parts), keep))
    if tuple(rewritten) == parts:  # (interned: equal parts are the same nodes)
        return constraint
    return conjoin(*rewritten)


def scoped_negation(inner: Constraint, outer: Iterable[Variable]) -> Constraint:
    """``not(inner)``, its local variables -- all but *outer* -- eliminated
    where equalities pin them (see :func:`scope_negations`)."""
    inner = eliminate_variables(inner, outer)
    if isinstance(inner, TrueConstraint):
        # ψ holds for some witness of its local variables whatever the
        # outer ones are, so its negation can never be satisfied.
        return FALSE
    if isinstance(inner, FalseConstraint):
        return TRUE  # the negation of an unsatisfiable ψ is trivial
    return NegatedConjunction(inner.conjuncts())


def _find_eliminable_equality(
    parts: List[Constraint], protected: Set[Variable]
) -> Optional[Tuple[int, Variable, Term]]:
    """Locate an equality conjunct that eliminates an auxiliary variable.

    Preference order: eliminate an auxiliary variable in favour of a constant
    or protected variable first, then auxiliary-to-auxiliary equalities.
    """
    fallback: Optional[Tuple[int, Variable, Term]] = None
    for index, part in enumerate(parts):
        if not isinstance(part, Comparison) or part.op != "=":
            continue
        left, right = part.left, part.right
        candidates: List[Tuple[Variable, Term]] = []
        if isinstance(left, Variable) and left not in protected:
            candidates.append((left, right))
        if isinstance(right, Variable) and right not in protected:
            candidates.append((right, left))
        for variable, replacement in candidates:
            if replacement == variable:
                continue
            if isinstance(replacement, Constant) or (
                isinstance(replacement, Variable) and replacement in protected
            ):
                return (index, variable, replacement)
            if fallback is None:
                fallback = (index, variable, replacement)
    return fallback


def _drop_trivial(parts: List[Constraint]) -> List[Constraint]:
    """Remove conjuncts of the form ``t = t`` produced by substitution."""
    kept: List[Constraint] = []
    for part in parts:
        if isinstance(part, Comparison) and part.op == "=" and part.left == part.right:
            continue
        kept.append(part)
    return kept
