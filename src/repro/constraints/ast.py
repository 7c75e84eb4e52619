"""Abstract syntax of the constraint language used in mediated views.

The paper (Section 2.3) defines constraints as:

* any DCA-atom ``in(X, domain:function(args))`` is a constraint,
* ``X = T`` and ``X != T`` (T a variable or constant) are constraints,
* any conjunction of constraints is a constraint.

For the arithmetic domain the paper also freely writes ordering constraints
such as ``X <= 5`` ("a more common way of writing" the corresponding
DCA-atoms), and the deletion/insertion rewrites of Sections 3.1/3.2 introduce
*negated* constraints ``not(φ)`` where ``φ`` is a conjunction of the above.
The AST below covers exactly these forms:

* :class:`Comparison` -- ``t1 op t2`` with ``op`` in ``= != < <= > >=``,
* :class:`Membership` -- ``in(X, d:f(args))`` or its negation,
* :class:`NegatedConjunction` -- ``not(c1 & ... & cn)``,
* :class:`Conjunction` -- flattened conjunction,
* :data:`TRUE` / :data:`FALSE` -- the trivial constraints.

Every node is immutable, hashable and **hash-consed** (see
:mod:`repro.constraints.intern`): construction normalises, validates and
interns, so structurally equal nodes are the *same object* and equality is
pointer identity.  Each node also carries memo slots -- canonical form,
pure satisfiability/simplification, cached variable set --
whose lifetime is the node's own weak-table lifetime; they replace the old
module-global caches in ``simplify.py``/``projection.py`` and the solver's
pure dictionaries with pointer-keyed per-node lookups.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Sequence, Tuple

from repro.constraints.intern import table
from repro.constraints.terms import (
    Constant,
    Substitution,
    Term,
    Variable,
)
from repro.errors import ConstraintError

#: The comparison operators supported by the constraint language.
COMPARISON_OPERATORS: Tuple[str, ...] = ("=", "!=", "<", "<=", ">", ">=")

#: Negation of each comparison operator, used when pushing ``not`` inwards.
NEGATED_OPERATOR = {
    "=": "!=",
    "!=": "=",
    "<": ">=",
    "<=": ">",
    ">": "<=",
    ">=": "<",
}

#: Mirror image of each operator, used to orient comparisons.
FLIPPED_OPERATOR = {
    "=": "=",
    "!=": "!=",
    "<": ">",
    "<=": ">=",
    ">": "<",
    ">=": "<=",
}

_COMPARISONS = table("comparison")
_CALLS = table("domain_call")
_MEMBERSHIPS = table("membership")
_NEGATIONS = table("negation")
_CONJUNCTIONS = table("conjunction")

#: Per-node memo slots initialised to None by :func:`_prime`.  ``_canonical``
#: is written by ``simplify``; ``_sat`` /
#: ``_simplify0`` / ``_simplify1`` by the solver's pure paths; ``_vars`` and
#: ``_str`` lazily by the node itself; ``_elim`` holds a small bounded dict
#: of projection results; ``_domains`` the names of the domains the node
#: calls; ``_plan`` the compiled search plan of ``solutions`` for the last
#: variable list the node was enumerated over; ``_bounds`` what
#: ``solver.bounds_of`` read from the top-level conjuncts and ``_box`` what
#: ``solver.box_of`` found (``False``: not a box).  All writes are idempotent
#: (the value is a pure function of the node), so racing threads are benign.
_MEMO_SLOTS = (
    "_str",
    "_vars",
    "_canonical",
    "_sat",
    "_simplify0",
    "_simplify1",
    "_elim",
    "_domains",
    "_plan",
    "_bounds",
    "_box",
)


class Constraint:
    """Base class of every constraint node (interned, immutable)."""

    __slots__ = ("_hash", "_membership") + _MEMO_SLOTS + ("__weakref__",)

    def variables(self) -> FrozenSet[Variable]:
        """Return the set of variables occurring in the constraint."""
        cached = self._vars
        if cached is None:
            cached = self._compute_variables()
            object.__setattr__(self, "_vars", cached)
        return cached

    def _compute_variables(self) -> FrozenSet[Variable]:
        raise NotImplementedError

    def substitute(self, subst: Substitution) -> "Constraint":
        """Return a copy with *subst* applied to every term.

        Every node returns ``self`` unchanged when the substitution binds
        none of its terms, so renaming-apart against disjoint variables is
        a pointer-preserving no-op.
        """
        raise NotImplementedError

    def domains(self) -> Tuple[str, ...]:
        """Names of the domains called anywhere in the constraint, sorted.

        What a DCA-dependent result about this node depends on: the solver
        gates its instance memo on the versions of exactly these domains.
        """
        cached = self._domains
        if cached is None:
            cached = self._compute_domains() if self._membership else ()
            object.__setattr__(self, "_domains", cached)
        return cached

    def _compute_domains(self) -> Tuple[str, ...]:
        raise NotImplementedError

    def conjuncts(self) -> Tuple["Constraint", ...]:
        """Return the top-level conjuncts (a non-conjunction is its own)."""
        return (self,)

    def is_primitive(self) -> bool:
        """True for comparison and membership literals."""
        return False

    def __and__(self, other: "Constraint") -> "Constraint":
        return conjoin(self, other)

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name: str, value: object) -> None:
        raise ConstraintError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise ConstraintError(f"{type(self).__name__} is immutable")

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


def _prime(node: Constraint, hash_value: int, membership: bool) -> None:
    """Initialise the base slots of a freshly allocated node."""
    object.__setattr__(node, "_hash", hash_value)
    object.__setattr__(node, "_membership", membership)
    for slot in _MEMO_SLOTS:
        object.__setattr__(node, slot, None)


def _domains_of(parts: Iterable[Constraint]) -> Tuple[str, ...]:
    found: set = set()
    for part in parts:
        found.update(part.domains())
    return tuple(sorted(found))


class TrueConstraint(Constraint):
    """The always-satisfied constraint (empty conjunction).  A singleton."""

    __slots__ = ()
    _instance: "TrueConstraint | None" = None

    def __new__(cls) -> "TrueConstraint":
        inst = cls._instance
        if inst is None:
            inst = object.__new__(cls)
            _prime(inst, hash(("true",)), False)
            cls._instance = inst
        return inst

    def __reduce__(self):
        return (TrueConstraint, ())

    def _compute_variables(self) -> FrozenSet[Variable]:
        return frozenset()

    def substitute(self, subst: Substitution) -> "Constraint":
        return self

    def conjuncts(self) -> Tuple[Constraint, ...]:
        return ()

    def __str__(self) -> str:
        return "true"

    def __repr__(self) -> str:
        return "TrueConstraint()"


class FalseConstraint(Constraint):
    """The unsatisfiable constraint.  A singleton."""

    __slots__ = ()
    _instance: "FalseConstraint | None" = None

    def __new__(cls) -> "FalseConstraint":
        inst = cls._instance
        if inst is None:
            inst = object.__new__(cls)
            _prime(inst, hash(("false",)), False)
            cls._instance = inst
        return inst

    def __reduce__(self):
        return (FalseConstraint, ())

    def _compute_variables(self) -> FrozenSet[Variable]:
        return frozenset()

    def substitute(self, subst: Substitution) -> "Constraint":
        return self

    def __str__(self) -> str:
        return "false"

    def __repr__(self) -> str:
        return "FalseConstraint()"


TRUE = TrueConstraint()
FALSE = FalseConstraint()


class Comparison(Constraint):
    """A binary comparison ``left op right`` between two terms."""

    __slots__ = ("left", "op", "right")

    def __new__(cls, left: Term, op: str, right: Term) -> "Comparison":
        if op not in COMPARISON_OPERATORS:
            raise ConstraintError(f"unknown comparison operator: {op!r}")
        for term in (left, right):
            if not isinstance(term, (Variable, Constant)):
                raise ConstraintError(f"comparison operand is not a term: {term!r}")
        key = ("cmp", left, op, right)

        def build() -> "Comparison":
            self = object.__new__(cls)
            object.__setattr__(self, "left", left)
            object.__setattr__(self, "op", op)
            object.__setattr__(self, "right", right)
            _prime(self, hash(key), False)
            return self

        return _COMPARISONS.intern(key, build)

    def __reduce__(self):
        return (Comparison, (self.left, self.op, self.right))

    def _compute_variables(self) -> FrozenSet[Variable]:
        found = set()
        for term in (self.left, self.right):
            if isinstance(term, Variable):
                found.add(term)
        return frozenset(found)

    def substitute(self, subst: Substitution) -> "Comparison":
        left = subst.apply(self.left)
        right = subst.apply(self.right)
        if left is self.left and right is self.right:
            return self
        return Comparison(left, self.op, right)

    def is_primitive(self) -> bool:
        return True

    def negated(self) -> "Comparison":
        """Return the comparison expressing the negation of this one."""
        return Comparison(self.left, NEGATED_OPERATOR[self.op], self.right)

    def flipped(self) -> "Comparison":
        """Return the same constraint with operands swapped."""
        return Comparison(self.right, FLIPPED_OPERATOR[self.op], self.left)

    def is_equality(self) -> bool:
        return self.op == "="

    def __str__(self) -> str:
        cached = self._str
        if cached is None:
            cached = f"{self.left} {self.op} {self.right}"
            object.__setattr__(self, "_str", cached)
        return cached

    def __repr__(self) -> str:
        return (
            f"Comparison(left={self.left!r}, op={self.op!r}, "
            f"right={self.right!r})"
        )


class DomainCall:
    """A call ``domain:function(arg1, ..., argn)`` into an external source.

    The call itself is not a constraint; it only appears as the second
    argument of the ``in`` predicate (:class:`Membership`).  Interned like
    every other node.
    """

    __slots__ = ("domain", "function", "args", "_hash", "_str", "__weakref__")

    def __new__(
        cls, domain: str, function: str, args: Iterable[Term] = ()
    ) -> "DomainCall":
        if not domain or not function:
            raise ConstraintError("domain calls need a domain and a function name")
        args = tuple(args)
        for arg in args:
            if not isinstance(arg, (Variable, Constant)):
                raise ConstraintError(f"domain-call argument is not a term: {arg!r}")
        key = ("call", domain, function, args)

        def build() -> "DomainCall":
            self = object.__new__(cls)
            object.__setattr__(self, "domain", domain)
            object.__setattr__(self, "function", function)
            object.__setattr__(self, "args", args)
            object.__setattr__(self, "_hash", hash(key))
            object.__setattr__(self, "_str", None)
            return self

        return _CALLS.intern(key, build)

    def __reduce__(self):
        return (DomainCall, (self.domain, self.function, self.args))

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name: str, value: object) -> None:
        raise ConstraintError("DomainCall is immutable")

    def __delattr__(self, name: str) -> None:
        raise ConstraintError("DomainCall is immutable")

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def variables(self) -> FrozenSet[Variable]:
        return frozenset(arg for arg in self.args if isinstance(arg, Variable))

    def substitute(self, subst: Substitution) -> "DomainCall":
        args = subst.apply_all(self.args)
        if args is self.args:
            return self
        return DomainCall(self.domain, self.function, args)

    def __str__(self) -> str:
        cached = self._str
        if cached is None:
            rendered = ", ".join(str(arg) for arg in self.args)
            cached = f"{self.domain}:{self.function}({rendered})"
            object.__setattr__(self, "_str", cached)
        return cached

    def __repr__(self) -> str:
        return (
            f"DomainCall(domain={self.domain!r}, function={self.function!r}, "
            f"args={self.args!r})"
        )


class Membership(Constraint):
    """The DCA-atom ``in(element, call)`` or its negation.

    ``positive=False`` represents ``not in(element, call)``; negative
    membership literals arise when deletion rewrites push ``not`` through a
    conjunction that contains DCA-atoms.
    """

    __slots__ = ("element", "call", "positive")

    def __new__(
        cls, element: Term, call: DomainCall, positive: bool = True
    ) -> "Membership":
        if not isinstance(element, (Variable, Constant)):
            raise ConstraintError(f"membership element is not a term: {element!r}")
        if not isinstance(call, DomainCall):
            raise ConstraintError(f"membership target is not a domain call: {call!r}")
        positive = bool(positive)
        key = ("in", element, call, positive)

        def build() -> "Membership":
            self = object.__new__(cls)
            object.__setattr__(self, "element", element)
            object.__setattr__(self, "call", call)
            object.__setattr__(self, "positive", positive)
            _prime(self, hash(key), True)
            return self

        return _MEMBERSHIPS.intern(key, build)

    def __reduce__(self):
        return (Membership, (self.element, self.call, self.positive))

    def _compute_variables(self) -> FrozenSet[Variable]:
        found = set(self.call.variables())
        if isinstance(self.element, Variable):
            found.add(self.element)
        return frozenset(found)

    def _compute_domains(self) -> Tuple[str, ...]:
        return (self.call.domain,)

    def substitute(self, subst: Substitution) -> "Membership":
        element = subst.apply(self.element)
        call = self.call.substitute(subst)
        if element is self.element and call is self.call:
            return self
        return Membership(element, call, self.positive)

    def is_primitive(self) -> bool:
        return True

    def negated(self) -> "Membership":
        """Return the membership literal with opposite polarity."""
        return Membership(self.element, self.call, not self.positive)

    def __str__(self) -> str:
        cached = self._str
        if cached is None:
            literal = f"in({self.element}, {self.call})"
            cached = literal if self.positive else f"not {literal}"
            object.__setattr__(self, "_str", cached)
        return cached

    def __repr__(self) -> str:
        return (
            f"Membership(element={self.element!r}, call={self.call!r}, "
            f"positive={self.positive!r})"
        )


class NegatedConjunction(Constraint):
    """``not(c1 & ... & cn)`` over primitive constraints.

    The deletion rewrites of Section 3.1 produce constraints of the form
    ``φ & not(ψ)`` where ``ψ`` is the conjunction of the constraint of the
    deleted atom with binding equalities.  The negation is kept as a single
    node (rather than eagerly expanded to a disjunction) so that views remain
    flat conjunctions of constraint *literals*; the solver expands it lazily.

    Nested negations are allowed (``not(p & not(q))``): they arise when a
    view that has already been maintained once is maintained again, because
    the earlier rewrite left ``not(...)`` conjuncts inside view constraints.

    **Quantification convention.**  A variable that occurs *only* inside a
    negated conjunction (neither in any other conjunct of the enclosing
    constraint nor among the atom arguments the constraint is attached to)
    is quantified *inside* the negation: ``not(ψ)`` holds iff ψ has no
    witness for those variables.  This matches the maintenance rewrites of
    the paper, where the deleted atom's (renamed-apart) variables appear only
    under ``not(...)`` together with the binding equalities that tie them to
    the entry's own variables.  All other variables are free (top-level
    existential, as in the paper's ``[A(X̄) <- φ]`` instance semantics).

    Which variables are outer is decided once, where the negation is built,
    by the code that knows the atom: ``projection.scope_negations``, given
    the outer variables, eliminates the local ones equalities pin.  It runs
    in the parser (a clause's head and body, a constrained atom's
    arguments), the codec (the clauses and requests it decodes), the
    negation of an atom overlap (the target atom), the join kernel's
    negated premise and the solver's subsumption test.  Everything
    downstream -- satisfiability, simplification, projection -- reads a
    ``not(...)`` as already scoped.  One case still reads two ways: a body
    variable the join's projection leaves only inside a negation is outer
    to the branch procedure and local to the solution search.

    Construction flattens inner conjunctions and drops ``true`` conjuncts
    *before* interning, so the table only ever sees the normal form.
    """

    __slots__ = ("parts",)

    def __new__(cls, parts: Iterable[Constraint]) -> "NegatedConjunction":
        flattened: list[Constraint] = []
        for part in tuple(parts):
            if isinstance(part, Conjunction):
                flattened.extend(part.parts)
            elif isinstance(part, TrueConstraint):
                continue
            else:
                flattened.append(part)
        for part in flattened:
            if not isinstance(part, Constraint) or not (
                part.is_primitive()
                or isinstance(part, (FalseConstraint, NegatedConjunction))
            ):
                raise ConstraintError(
                    "negated conjunctions may only contain primitive constraints "
                    f"or nested negations, got: {part!r}"
                )
        normal = tuple(flattened)
        key = ("not", normal)

        def build() -> "NegatedConjunction":
            self = object.__new__(cls)
            object.__setattr__(self, "parts", normal)
            _prime(self, hash(key), any(part._membership for part in normal))
            return self

        return _NEGATIONS.intern(key, build)

    def __reduce__(self):
        return (NegatedConjunction, (self.parts,))

    def _compute_variables(self) -> FrozenSet[Variable]:
        found: set[Variable] = set()
        for part in self.parts:
            found.update(part.variables())
        return frozenset(found)

    def _compute_domains(self) -> Tuple[str, ...]:
        return _domains_of(self.parts)

    def substitute(self, subst: Substitution) -> "Constraint":
        parts = tuple(part.substitute(subst) for part in self.parts)
        if all(new is old for new, old in zip(parts, self.parts)):
            return self
        return NegatedConjunction(parts)

    def inner(self) -> Constraint:
        """Return the conjunction being negated."""
        return conjoin(*self.parts)

    def __str__(self) -> str:
        # Canonicalization sorts conjuncts by their rendering, so deep
        # negation nodes get stringified over and over; cache once.
        cached = self._str
        if cached is None:
            inner = " & ".join(str(part) for part in self.parts) or "true"
            cached = f"not({inner})"
            object.__setattr__(self, "_str", cached)
        return cached

    def __repr__(self) -> str:
        return f"NegatedConjunction(parts={self.parts!r})"


class Conjunction(Constraint):
    """A flattened conjunction of constraints.

    Use :func:`conjoin` to build conjunctions; it flattens nested
    conjunctions, drops ``true`` and collapses to ``false`` eagerly.
    """

    __slots__ = ("parts",)

    def __new__(cls, parts: Iterable[Constraint]) -> "Conjunction":
        parts = tuple(parts)
        for part in parts:
            if isinstance(part, (Conjunction, TrueConstraint)):
                raise ConstraintError(
                    "Conjunction must be flat; build it with conjoin()"
                )
            if not isinstance(part, Constraint):
                raise ConstraintError(f"not a constraint: {part!r}")
        key = ("and", parts)

        def build() -> "Conjunction":
            self = object.__new__(cls)
            object.__setattr__(self, "parts", parts)
            _prime(self, hash(key), any(part._membership for part in parts))
            return self

        return _CONJUNCTIONS.intern(key, build)

    def __reduce__(self):
        return (Conjunction, (self.parts,))

    def _compute_variables(self) -> FrozenSet[Variable]:
        found: set[Variable] = set()
        for part in self.parts:
            found.update(part.variables())
        return frozenset(found)

    def _compute_domains(self) -> Tuple[str, ...]:
        return _domains_of(self.parts)

    def substitute(self, subst: Substitution) -> "Constraint":
        parts = tuple(part.substitute(subst) for part in self.parts)
        if all(new is old for new, old in zip(parts, self.parts)):
            return self
        return conjoin(*parts)

    def conjuncts(self) -> Tuple[Constraint, ...]:
        return self.parts

    def __str__(self) -> str:
        cached = self._str
        if cached is None:
            cached = " & ".join(str(part) for part in self.parts)
            object.__setattr__(self, "_str", cached)
        return cached

    def __repr__(self) -> str:
        return f"Conjunction(parts={self.parts!r})"


def conjoin(*constraints: Constraint) -> Constraint:
    """Conjoin constraints, flattening and normalising trivial cases.

    ``conjoin()`` with no arguments returns ``TRUE``.  Any ``FALSE`` operand
    collapses the result to ``FALSE``.  Duplicate conjuncts are kept (the
    simplifier removes them); order is preserved.
    """
    flat: list[Constraint] = []
    for constraint in constraints:
        if constraint is None:  # pragma: no cover - defensive
            raise ConstraintError("cannot conjoin None")
        if isinstance(constraint, TrueConstraint):
            continue
        if isinstance(constraint, FalseConstraint):
            return FALSE
        if isinstance(constraint, Conjunction):
            flat.extend(constraint.parts)
        else:
            flat.append(constraint)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return Conjunction(tuple(flat))


def negate(constraint: Constraint) -> Constraint:
    """Return the negation of *constraint* within the supported fragment.

    Primitives negate to their dual literal.  Conjunctions negate to a
    :class:`NegatedConjunction`.  ``true``/``false`` swap.  Negating a
    :class:`NegatedConjunction` returns the inner conjunction (double
    negation elimination).
    """
    if isinstance(constraint, TrueConstraint):
        return FALSE
    if isinstance(constraint, FalseConstraint):
        return TRUE
    if isinstance(constraint, Comparison):
        return constraint.negated()
    if isinstance(constraint, Membership):
        return constraint.negated()
    if isinstance(constraint, NegatedConjunction):
        return constraint.inner()
    if isinstance(constraint, Conjunction):
        return NegatedConjunction(constraint.parts)
    raise ConstraintError(f"cannot negate constraint: {constraint!r}")


def equals(left: object, right: object) -> Comparison:
    """Convenience constructor for an equality constraint between terms."""
    return Comparison(_as_term(left), "=", _as_term(right))


def not_equals(left: object, right: object) -> Comparison:
    """Convenience constructor for a disequality constraint between terms."""
    return Comparison(_as_term(left), "!=", _as_term(right))


def compare(left: object, op: str, right: object) -> Comparison:
    """Convenience constructor for an arbitrary comparison."""
    return Comparison(_as_term(left), op, _as_term(right))


def member(element: object, domain: str, function: str, *args: object) -> Membership:
    """Convenience constructor for ``in(element, domain:function(args))``."""
    call = DomainCall(domain, function, tuple(_as_term(arg) for arg in args))
    return Membership(_as_term(element), call)


def bindings_constraint(pairs: Iterable[Tuple[Term, Term]]) -> Constraint:
    """Build the conjunction of equalities ``{X1 = t1, ..., Xn = tn}``.

    This is the ``{X̄ = t̄}`` notation used throughout the paper's definition
    of ``T_P`` and of the maintenance algorithms.
    """
    return conjoin(*(Comparison(left, "=", right) for left, right in pairs))


def tuple_equalities(lefts: Sequence[Term], rights: Sequence[Term]) -> Constraint:
    """Build ``{X̄ = t̄}`` for two equal-length tuples of terms."""
    if len(lefts) != len(rights):
        raise ConstraintError(
            f"tuple length mismatch: {len(lefts)} vs {len(rights)} terms"
        )
    return bindings_constraint(zip(lefts, rights))


def _as_term(value: object) -> Term:
    if isinstance(value, (Variable, Constant)):
        return value
    return Constant(value)  # type: ignore[arg-type]
