"""Satisfiability checking for the constraint language.

The fixpoint operator ``T_P`` and all the maintenance algorithms of the paper
repeatedly ask one question about a constraint ``φ``: *is φ solvable?*  This
module answers it for the fragment the paper uses:

* conjunctions of comparison literals (``= != < <= > >=``) between variables
  and constants,
* DCA-atoms ``in(X, domain:function(args))`` and their negations, evaluated
  against the domain registry, and
* negated conjunctions ``not(ψ)`` introduced by the deletion/insertion
  rewrites of Sections 3.1 and 3.2.

The decision procedure works in two stages:

1. *Branching.*  Each ``not(p1 & ... & pk)`` is a disjunction
   ``¬p1 ∨ ... ∨ ¬pk`` of primitive literals; the constraint is satisfiable
   iff at least one branch (choice of one negated literal per negation) is.
2. *Branch closure.*  A branch -- a conjunction of primitive literals -- is
   checked with a congruence-closure / interval procedure: union-find over
   equalities, contradiction checks for disequalities, interval reasoning for
   numeric orderings with bound propagation across variable-variable
   orderings, and membership evaluation of ground DCA-atoms.

The procedure is exact for the constraint shapes produced by the paper's
examples and by this library's own rewrites.  For constraints outside that
envelope (e.g. orderings between unbound variables forming a cycle mixed
with disequalities) it errs on the side of *satisfiable*, which is the safe
direction for view maintenance: an atom with an unsatisfiable constraint that
survives in the view never contributes instances (the semantics ``[·]`` is
unchanged); it merely costs a little space -- exactly the trade the paper's
``W_P`` operator makes deliberately.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.constraints.ast import (
    Comparison,
    Conjunction,
    Constraint,
    DomainCall,
    FalseConstraint,
    Membership,
    NegatedConjunction,
    TrueConstraint,
    conjoin,
    negate,
    tuple_equalities,
)
from repro.constraints.interfaces import CallEvaluator, ResultSetLike
from repro.constraints.terms import (
    Constant,
    FreshVariableFactory,
    Substitution,
    Term,
    Variable,
)
from repro.errors import EvaluationError, SolverError, UnknownFunctionError


#: Rounds of bound propagation across variable-variable orderings.
PROPAGATION_ROUNDS = 8

#: DNF branches one satisfiability check explores before it gives up.
MAX_BRANCHES = 4096

#: Largest finite membership result set that is enumerated during
#: per-class candidate filtering.
MAX_MEMBERSHIP_ENUMERATION = 10_000

#: Results one memo table of a solver holds before it is cleared wholesale
#: (a simple, branch-free policy).
MAX_MEMOIZED_RESULTS = 100_000

#: Gate of a result stored on the node (or atom) it is about: a function
#: of that object alone, valid as long as the object lives.
_ON_OWNER = object()


def _no_versions(domains: Iterable[str]) -> Tuple[object, ...]:
    """``versions_of`` of a solver that has no evaluator."""
    return ()


# ---------------------------------------------------------------------------
# Internal branch representation
# ---------------------------------------------------------------------------


@dataclass
class _Interval:
    """A (possibly unbounded) interval of allowed numeric values."""

    low: float = -math.inf
    low_strict: bool = False
    high: float = math.inf
    high_strict: bool = False

    def tighten_low(self, value: float, strict: bool) -> None:
        if value > self.low or (value == self.low and strict and not self.low_strict):
            self.low = value
            self.low_strict = strict

    def tighten_high(self, value: float, strict: bool) -> None:
        if value < self.high or (value == self.high and strict and not self.high_strict):
            self.high = value
            self.high_strict = strict

    def is_empty(self) -> bool:
        if self.low > self.high:
            return True
        if self.low == self.high and (self.low_strict or self.high_strict):
            return True
        return False

    def admits(self, value: object) -> bool:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            # A non-numeric value cannot satisfy a numeric ordering bound.
            return self.low == -math.inf and self.high == math.inf
        if value < self.low or (value == self.low and self.low_strict):
            return False
        if value > self.high or (value == self.high and self.high_strict):
            return False
        return True

    def is_point(self) -> Optional[float]:
        if self.low == self.high and not self.low_strict and not self.high_strict:
            return self.low
        return None

    def is_trivial(self) -> bool:
        return self.low == -math.inf and self.high == math.inf


class _UnionFind:
    """Union-find over terms, tracking the constant bound to each class."""

    def __init__(self) -> None:
        self._parent: Dict[Term, Term] = {}
        self._constant: Dict[Term, Constant] = {}
        self.conflict = False

    def add(self, term: Term) -> None:
        if term not in self._parent:
            self._parent[term] = term
            if isinstance(term, Constant):
                self._constant[term] = term

    def find(self, term: Term) -> Term:
        self.add(term)
        root = term
        while self._parent[root] != root:
            root = self._parent[root]
        # Path compression.
        while self._parent[term] != root:
            self._parent[term], term = root, self._parent[term]
        return root

    def union(self, left: Term, right: Term) -> None:
        root_left = self.find(left)
        root_right = self.find(right)
        if root_left == root_right:
            return
        const_left = self._constant.get(root_left)
        const_right = self._constant.get(root_right)
        if const_left is not None and const_right is not None:
            if const_left.value != const_right.value:
                self.conflict = True
                return
        self._parent[root_right] = root_left
        if const_left is None and const_right is not None:
            self._constant[root_left] = const_right

    def constant_of(self, term: Term) -> Optional[Constant]:
        return self._constant.get(self.find(term))

    def classes(self) -> Dict[Term, List[Term]]:
        grouped: Dict[Term, List[Term]] = {}
        for term in list(self._parent):
            grouped.setdefault(self.find(term), []).append(term)
        return grouped


@dataclass
class _Branch:
    """A conjunction of primitive literals (one DNF branch)."""

    equalities: List[Comparison] = field(default_factory=list)
    disequalities: List[Comparison] = field(default_factory=list)
    orderings: List[Comparison] = field(default_factory=list)
    memberships: List[Membership] = field(default_factory=list)

    def add(self, literal: Constraint) -> bool:
        """Add a literal; return False if the branch is trivially closed."""
        if isinstance(literal, TrueConstraint):
            return True
        if isinstance(literal, FalseConstraint):
            return False
        if isinstance(literal, Comparison):
            if literal.op == "=":
                self.equalities.append(literal)
            elif literal.op == "!=":
                self.disequalities.append(literal)
            else:
                self.orderings.append(literal)
            return True
        if isinstance(literal, Membership):
            self.memberships.append(literal)
            return True
        raise SolverError(f"unexpected literal in branch: {literal!r}")


class ConstraintSolver:
    """Decides satisfiability and ground truth of constraints.

    Parameters
    ----------
    evaluator:
        An object implementing :class:`CallEvaluator` (typically the
        mediator's domain registry).  A DCA-atom whose call cannot be
        evaluated (non-ground arguments, unknown domain, a failing function,
        or no evaluator) is treated as satisfiable, the deferred-evaluation
        reading of Section 4 of the paper.
    """

    def __init__(self, evaluator: Optional[CallEvaluator] = None) -> None:
        self._evaluator = evaluator
        # The membership half of _gate (a membership-free result is stored
        # on its node).  Without an evaluator no DCA-atom reaches a source.
        self._versions_of = (
            _no_versions
            if evaluator is None
            else getattr(evaluator, "versions_of", None)
        )
        # One table per result kind, ``key -> (gate, result)``: whatever is
        # not stored on its node.  An entry is served while the gate read
        # for the lookup equals the gate it was filed under.
        self._sat_memo: Dict[Constraint, Tuple[object, bool]] = {}
        self._simplify_memo: Dict[object, Tuple[object, Constraint]] = {}
        #: Instance sets of constrained atoms read without a universe
        #: (filled by repro.datalog.atoms).  The hit / miss pair counts the
        #: per-atom slot and this table alike.
        self._instance_memo: Dict[object, Tuple[object, frozenset]] = {}
        self.instance_memo_hits = 0
        self.instance_memo_misses = 0
        # Argument-profile memo for the quick-reject pre-filter.  Profiles
        # are purely syntactic summaries of the canonical form, so they stay
        # valid across external source changes (only the per-domain
        # quick_reject hooks consult live sources, at comparison time).
        self._profile_cache: Dict[Tuple[Tuple[Term, ...], Constraint], "ArgumentProfile"] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def evaluator(self) -> Optional[CallEvaluator]:
        """The domain-call evaluator this solver consults (may be ``None``)."""
        return self._evaluator

    def invalidate_external_functions(self, source: Optional[str] = None) -> None:
        """Pass a change notice on to the evaluator (``source_changed``).

        Called by the Section-4 maintenance strategies and the stream
        scheduler whenever a source changes.  The domain registry forgets
        what it remembered of *source* -- of every domain when *source*
        names none -- and moves it to a new version, which ends every
        result of this solver filed under the old one (see :meth:`_gate`).
        No table of the solver is touched: results about other sources stay.
        """
        notify = getattr(self._evaluator, "source_changed", None)
        if notify is not None:
            notify(source)

    # ------------------------------------------------------------------
    # The freshness rule of every memo
    # ------------------------------------------------------------------
    def _gate(self, constraint: Constraint) -> object:
        """What a result about *constraint* computed now is valid under.

        The one freshness rule of the solver's memos (satisfiability,
        simplification, instance sets).  :data:`_ON_OWNER`: the constraint
        names no DCA-atom, so the result is a function of the interned node
        alone and is stored *on the node* (``_sat`` / ``_simplify{0,1}``
        slots, an atom's ``_instances``), shared by every solver in the
        process and dropped when the node dies.  ``()``: no evaluator, so no
        DCA-atom reaches a source (unknown memberships are satisfiable).
        Otherwise the current versions of exactly the domains the constraint
        names, so one source's change leaves results about the others;
        ``None`` -- remember nothing -- for an evaluator without
        ``versions_of``.

        Callers read the gate *before* they compute and store it with the
        result: one computed across a source change is filed under the
        version that passed and never served, whatever other threads looked
        up or stored in between.
        """
        if not constraint._membership:
            return _ON_OWNER
        if self._versions_of is None:
            return None
        return self._versions_of(constraint.domains())

    @staticmethod
    def _fresh(table: Dict, key: object, gate: object):
        """The result filed under *key*, when it was filed under *gate*."""
        record = table.get(key)
        if record is not None and record[0] == gate:
            return record[1]
        return None

    @staticmethod
    def _remember(table: Dict, key: object, gate: object, result: object) -> None:
        if len(table) >= MAX_MEMOIZED_RESULTS:
            table.clear()
        table[key] = (gate, result)

    def is_satisfiable(self, constraint: Constraint) -> bool:
        """Return True if the constraint has at least one solution."""
        if isinstance(constraint, TrueConstraint):
            return True
        if isinstance(constraint, FalseConstraint):
            return False
        from repro.constraints.simplify import canonical_form

        if not constraint._membership:
            # Membership-free satisfiability is a pure function of the
            # interned node: the memo lives on the node itself (shared by
            # every solver in the process) and the two-level probe --
            # constraint, then canonical form -- is two pointer reads.
            from repro.constraints.intern import EVENTS

            cached = constraint._sat
            if cached is not None:
                EVENTS.sat_node_hits += 1
                return cached
            key = canonical_form(constraint)
            cached = key._sat
            if cached is not None:
                EVENTS.sat_node_hits += 1
                object.__setattr__(constraint, "_sat", cached)
                return cached
            result = self._decide_satisfiable(constraint)
            object.__setattr__(key, "_sat", result)
            object.__setattr__(constraint, "_sat", result)
            return result
        gate = self._gate(constraint)
        if gate is None:
            return self._decide_satisfiable(constraint)
        # Two-level probe: the constraint itself first (its hash is cached
        # on the node, so this is nearly free), then the canonical form,
        # which also catches reordered conjunctions.
        memo = self._sat_memo
        cached = self._fresh(memo, constraint, gate)
        if cached is not None:
            return cached
        key = canonical_form(constraint)
        if key is not constraint:
            cached = self._fresh(memo, key, gate)
            if cached is not None:
                return cached
        result = self._decide_satisfiable(constraint)
        self._remember(memo, key, gate, result)
        if key is not constraint:
            self._remember(memo, constraint, gate, result)
        return result

    def _decide_satisfiable(self, constraint: Constraint) -> bool:
        # Inline equality-determined local variables inside negations so the
        # branch expansion treats ``not(ψ)`` exactly (see scope_negations).
        from repro.constraints.projection import scope_negations

        constraint = scope_negations(constraint)
        if isinstance(constraint, TrueConstraint):
            return True
        if isinstance(constraint, FalseConstraint):
            return False
        for branch in self._branches(constraint):
            if branch is None:
                continue
            if self._branch_satisfiable(branch):
                return True
        return False

    def cached_simplification(
        self, constraint: Constraint, variant: bool
    ) -> Tuple[Optional[Constraint], object]:
        """Look up a memoized simplification result (see ``simplify``).

        *variant* is the simplification mode (whether redundant comparisons
        are dropped).  Returns ``(result, gate)`` -- ``None`` result on a
        miss -- where *gate* (see :meth:`_gate`, read here, before the
        simplification runs) is what :meth:`cache_simplification` files the
        fresh result under.  Pure results live on the interned node itself,
        one slot per variant.
        """
        # (the membership-free half of _gate, without the call: a hot path)
        gate = self._gate(constraint) if constraint._membership else _ON_OWNER
        if gate is _ON_OWNER:
            cached = constraint._simplify1 if variant else constraint._simplify0
            if cached is not None:
                from repro.constraints.intern import EVENTS

                EVENTS.simplify_node_hits += 1
        elif gate is None:
            cached = None
        else:
            cached = self._fresh(self._simplify_memo, (constraint, variant), gate)
        return cached, gate

    def cache_simplification(
        self, constraint: Constraint, variant: bool, gate: object, result: Constraint
    ) -> None:
        """Store a simplification result (see :meth:`cached_simplification`)."""
        if gate is _ON_OWNER:
            slot = "_simplify1" if variant else "_simplify0"
            object.__setattr__(constraint, slot, result)
        elif gate is not None:
            self._remember(self._simplify_memo, (constraint, variant), gate, result)

    def cached_instances(self, atom) -> Tuple[Optional[frozenset], object]:
        """Look up the instance set of a constrained atom read with no universe.

        *atom* is a :class:`~repro.datalog.atoms.ConstrainedAtom` (see its
        ``instances``).  Returns ``(instances, gate)`` like
        :meth:`cached_simplification`; a membership-free set lives in the
        atom's ``_instances`` attribute and is collected with it.
        """
        constraint = atom.constraint
        gate = self._gate(constraint) if constraint._membership else _ON_OWNER
        if gate is None:
            return None, None
        if gate is _ON_OWNER:
            cached = atom._instances
        else:
            cached = self._fresh(self._instance_memo, atom, gate)
        if cached is None:
            self.instance_memo_misses += 1
        else:
            self.instance_memo_hits += 1
        return cached, gate

    def cache_instances(self, atom, gate: object, instances: frozenset) -> None:
        """Store an enumerated instance set (see :meth:`cached_instances`)."""
        if gate is _ON_OWNER:
            object.__setattr__(atom, "_instances", instances)
        elif gate is not None:
            self._remember(self._instance_memo, atom, gate, instances)

    def is_unsatisfiable(self, constraint: Constraint) -> bool:
        """Return True if the constraint has no solution."""
        return not self.is_satisfiable(constraint)

    # ------------------------------------------------------------------
    # Quick-reject pre-filter
    # ------------------------------------------------------------------
    def argument_profile(
        self, args: Sequence[Term], constraint: Constraint
    ) -> "ArgumentProfile":
        """Memoized per-argument summary of a constrained atom.

        See :func:`build_argument_profile`; the memo is keyed on the raw
        argument tuple and constraint object (canonicalization happens inside
        the builder, whose own memo absorbs reordered duplicates).
        """
        key = (tuple(args), constraint)
        try:
            cached = self._profile_cache.get(key)
        except TypeError:
            return build_argument_profile(args, constraint)
        if cached is None:
            cached = build_argument_profile(args, constraint)
            if len(self._profile_cache) >= MAX_MEMOIZED_RESULTS:
                self._profile_cache.clear()
            self._profile_cache[key] = cached
        return cached

    def quick_reject(
        self,
        left_args: Sequence[Term],
        left_constraint: Constraint,
        right_args: Sequence[Term],
        right_constraint: Constraint,
    ) -> bool:
        """Cheap pre-filter for the overlap test of the maintenance rewrites.

        Returns True only when ``left & right & (left_args = right_args)`` is
        *definitely* unsatisfiable, established from the two atoms' argument
        profiles alone: clashing pinned constants, a pinned constant outside
        the other side's interval, disjoint intervals, or a per-domain
        ``quick_reject`` hook refuting a pinned value's membership.  A False
        result proves nothing -- callers follow up with the full
        :meth:`is_satisfiable` check.  Skipping the solver call on a True
        result is exactly equivalent to the solver returning unsatisfiable.
        """
        if len(left_args) != len(right_args):
            return False
        left = self.argument_profile(left_args, left_constraint)
        if left.unsatisfiable:
            return True
        right = self.argument_profile(right_args, right_constraint)
        if right.unsatisfiable:
            return True
        for left_slot, right_slot in zip(left.slots, right.slots):
            if left_slot.value is not _UNKNOWN and right_slot.value is not _UNKNOWN:
                if not _values_equal(left_slot.value, right_slot.value):
                    return True
                continue
            if left_slot.value is not _UNKNOWN:
                if self._slot_excludes(right_slot, left_slot.value):
                    return True
            elif right_slot.value is not _UNKNOWN:
                if self._slot_excludes(left_slot, right_slot.value):
                    return True
            elif (
                left_slot.interval is not None
                and right_slot.interval is not None
                and _intervals_disjoint(left_slot.interval, right_slot.interval)
            ):
                return True
        return False

    def _slot_excludes(self, slot: "ArgumentSlot", value: object) -> bool:
        """True when *slot*'s summary definitely excludes the pinned *value*."""
        if slot.interval is not None and _interval_excludes(slot.interval, value):
            return True
        if slot.calls:
            hook = getattr(self._evaluator, "quick_reject", None)
            if hook is not None:
                for domain, function, args in slot.calls:
                    try:
                        if hook(domain, function, args, value):
                            return True
                    except Exception:  # hooks must never break the pre-filter
                        continue
        return False

    def subsumes_instances(
        self,
        left_args: Sequence[Term],
        left_constraint: Constraint,
        right_args: Sequence[Term],
        right_constraint: Constraint,
    ) -> bool:
        """True when every instance of the left atom is an instance of the right.

        The check behind Extended DRed's post-rederivation subsumption pass:
        for two entries ``A(X̄) <- φ`` and ``A(Ȳ) <- ψ`` of the same
        predicate, the left is *syntactically redundant* next to the right
        when ``φ & not(ψ' & (Ȳ' = X̄))`` is unsatisfiable (the right side
        renamed apart, its variables quantified inside the negation): no
        left instance escapes the right's instance set.  A False result
        proves nothing -- the procedure errs on the side of satisfiable, so
        subsumption errs on the side of "not subsumed", which only costs
        keeping a redundant entry.

        Identity fast path: when the two atoms are the *same* constrained
        atom -- equal argument tuples and pointer-identical (canonical)
        constraints, which hash-consing makes an O(1) check -- the instance
        sets are equal and the answer is True without touching the solver.
        """
        if len(left_args) != len(right_args):
            return False
        if self.identical_instances(
            left_args, left_constraint, right_args, right_constraint
        ):
            return True
        reserved = {v.name for v in left_constraint.variables()}
        reserved.update(v.name for v in right_constraint.variables())
        for arg in itertools.chain(left_args, right_args):
            if isinstance(arg, Variable):
                reserved.add(arg.name)
        factory = FreshVariableFactory(reserved)
        right_variables = set(right_constraint.variables())
        right_variables.update(
            arg for arg in right_args if isinstance(arg, Variable)
        )
        renaming = factory.renaming_for(right_variables)
        renamed_args = renaming.apply_all(right_args)
        matched = conjoin(
            right_constraint.substitute(renaming),
            tuple_equalities(renamed_args, left_args),
        )
        negated = NegatedConjunction(tuple(matched.conjuncts()))
        return not self.is_satisfiable(conjoin(left_constraint, negated))

    def identical_instances(
        self,
        left_args: Sequence[Term],
        left_constraint: Constraint,
        right_args: Sequence[Term],
        right_constraint: Constraint,
    ) -> bool:
        """Pointer-identity test for "these two atoms denote the same set".

        With hash-consed nodes, structural equality *is* identity, so equal
        argument tuples plus an identical constraint (directly or after
        canonicalization, itself a per-node slot read) prove the instance
        sets equal -- mutual subsumption without a solver call.  A False
        result proves nothing, exactly like :meth:`quick_reject`'s contract
        in the other direction.  Callers use this to skip counted solver
        calls on the self-overlap pairs every deletion batch produces.
        """
        if tuple(left_args) != tuple(right_args):
            return False
        if left_constraint is not right_constraint:
            from repro.constraints.simplify import canonical_form

            if canonical_form(left_constraint) is not canonical_form(
                right_constraint
            ):
                return False
        from repro.constraints.intern import EVENTS

        EVENTS.identity_subsumptions += 1
        return True

    def entails(self, context: Constraint, fact: Constraint) -> bool:
        """Return True if every solution of *context* satisfies *fact*.

        Implemented as unsatisfiability of ``context & not(fact)``; *fact*
        must lie in the negatable fragment (primitives and conjunctions of
        primitives).  ``context is fact`` short-circuits: with interned
        nodes a constraint trivially entails itself.
        """
        from repro.constraints.ast import conjoin

        if context is fact or isinstance(fact, TrueConstraint):
            return True
        return not self.is_satisfiable(conjoin(context, negate(fact)))

    def equivalent(self, left: Constraint, right: Constraint) -> bool:
        """Return True if the two constraints have the same solutions.

        Only supported when both sides are in the negatable fragment.
        Pointer-identical (or canonically identical) sides are equivalent
        by construction -- no solver call.
        """
        if left is right:
            return True
        from repro.constraints.simplify import canonical_form

        if canonical_form(left) is canonical_form(right):
            return True
        return self.entails(left, right) and self.entails(right, left)

    def evaluate_ground(
        self, constraint: Constraint, assignment: Mapping[Variable, object]
    ) -> bool:
        """Evaluate *constraint* under a total assignment of Python values."""
        if isinstance(constraint, TrueConstraint):
            return True
        if isinstance(constraint, FalseConstraint):
            return False
        if isinstance(constraint, Conjunction):
            return all(
                self.evaluate_ground(part, assignment) for part in constraint.parts
            )
        if isinstance(constraint, NegatedConjunction):
            unbound = [
                variable
                for variable in constraint.variables()
                if variable not in assignment
            ]
            if unbound:
                # Variables occurring only under the negation are implicitly
                # existentially quantified *inside* it: ``not(ψ)`` holds iff
                # no witness for them makes ψ true.  Substitute the bound
                # values and fall back to a satisfiability check.
                substitution = Substitution(
                    {
                        variable: Constant(assignment[variable])
                        for variable in constraint.variables()
                        if variable in assignment
                    }
                )
                inner = conjoin(*(part.substitute(substitution) for part in constraint.parts))
                return not self.is_satisfiable(inner)
            return not all(
                self.evaluate_ground(part, assignment) for part in constraint.parts
            )
        if isinstance(constraint, Comparison):
            return self._evaluate_comparison(constraint, assignment)
        if isinstance(constraint, Membership):
            return self._evaluate_membership(constraint, assignment)
        raise SolverError(f"cannot evaluate constraint: {constraint!r}")

    # ------------------------------------------------------------------
    # Branch construction
    # ------------------------------------------------------------------
    def _branches(self, constraint: Constraint) -> Iterable[Optional[_Branch]]:
        """Expand the constraint into DNF branches of primitive literals.

        Negated conjunctions are disjunctions of negated parts; a negated
        part that is itself a negated conjunction contributes its inner
        conjunction (double negation), so the expansion is a depth-first
        search over "pending obligation" states rather than a flat product.
        """
        produced = 0
        # Each stack item is (literals, obligations): literals already in the
        # branch, constraints still to be processed.
        stack: List[Tuple[List[Constraint], List[Constraint]]] = [
            ([], list(constraint.conjuncts()))
        ]
        while stack:
            literals, obligations = stack.pop()
            dead = False
            while obligations:
                current = obligations.pop()
                if isinstance(current, TrueConstraint):
                    continue
                if isinstance(current, FalseConstraint):
                    dead = True
                    break
                if isinstance(current, Conjunction):
                    obligations.extend(current.parts)
                    continue
                if isinstance(current, NegatedConjunction):
                    if not current.parts:
                        # not(true) is false.
                        dead = True
                        break
                    produced += len(current.parts)
                    if produced > MAX_BRANCHES:
                        raise SolverError(
                            f"constraint requires more than {MAX_BRANCHES} DNF branches"
                        )
                    for picked in current.parts:
                        if isinstance(picked, NegatedConjunction):
                            # Falsifying not(Q) means Q must hold.
                            extra: List[Constraint] = list(picked.parts)
                        elif isinstance(picked, FalseConstraint):
                            extra = []
                        else:
                            extra = [negate(picked)]
                        stack.append((list(literals), list(obligations) + extra))
                    dead = True  # this state was split; do not emit it itself
                    break
                if current.is_primitive():
                    literals.append(current)
                    continue
                raise SolverError(f"unexpected conjunct: {current!r}")
            if dead:
                continue
            branch = _Branch()
            alive = True
            for literal in literals:
                if not branch.add(literal):
                    alive = False
                    break
            yield branch if alive else None

    # ------------------------------------------------------------------
    # Branch satisfiability
    # ------------------------------------------------------------------
    def _branch_satisfiable(self, branch: _Branch) -> bool:
        uf = _UnionFind()
        for equality in branch.equalities:
            uf.union(equality.left, equality.right)
            if uf.conflict:
                return False

        # Disequalities: syntactic class clash.
        for disequality in branch.disequalities:
            if uf.find(disequality.left) == uf.find(disequality.right):
                return False
            left_const = uf.constant_of(disequality.left)
            right_const = uf.constant_of(disequality.right)
            if (
                left_const is not None
                and right_const is not None
                and left_const.value == right_const.value
            ):
                return False

        intervals = self._propagate_orderings(branch, uf)
        if intervals is None:
            return False

        # Interval consistency per class.
        for root, interval in intervals.items():
            constant = uf.constant_of(root)
            if constant is not None:
                if not interval.admits(constant.value):
                    return False
            elif interval.is_empty():
                return False

        # Single-point intervals interacting with disequalities.
        if not self._check_point_disequalities(branch, uf, intervals):
            return False

        return self._check_memberships(branch, uf, intervals)

    def _propagate_orderings(
        self, branch: _Branch, uf: _UnionFind
    ) -> Optional[Dict[Term, _Interval]]:
        intervals: Dict[Term, _Interval] = {}

        def interval_for(term: Term) -> _Interval:
            root = uf.find(term)
            if root not in intervals:
                intervals[root] = _Interval()
                constant = uf.constant_of(root)
                if constant is not None and _is_number(constant.value):
                    intervals[root].tighten_low(float(constant.value), False)
                    intervals[root].tighten_high(float(constant.value), False)
            return intervals[root]

        ground_checks: List[Comparison] = []
        var_edges: List[Tuple[Term, Term, bool]] = []  # (low_root, high_root, strict)

        for ordering in branch.orderings:
            left_const = uf.constant_of(ordering.left)
            right_const = uf.constant_of(ordering.right)
            if left_const is not None and right_const is not None:
                ground_checks.append(ordering)
                continue
            comparison = ordering
            if comparison.op in (">", ">="):
                comparison = comparison.flipped()
            # Now op is < or <=:  left  <(=)  right.
            strict = comparison.op == "<"
            left_root = uf.find(comparison.left)
            right_root = uf.find(comparison.right)
            if left_root == right_root:
                if strict:
                    return None
                continue
            left_const = uf.constant_of(comparison.left)
            right_const = uf.constant_of(comparison.right)
            if right_const is not None:
                if not _is_number(right_const.value):
                    return None
                interval_for(comparison.left).tighten_high(
                    float(right_const.value), strict
                )
            elif left_const is not None:
                if not _is_number(left_const.value):
                    return None
                interval_for(comparison.right).tighten_low(
                    float(left_const.value), strict
                )
            else:
                interval_for(comparison.left)
                interval_for(comparison.right)
                var_edges.append((left_root, right_root, strict))

        for ordering in ground_checks:
            left_const = uf.constant_of(ordering.left)
            right_const = uf.constant_of(ordering.right)
            assert left_const is not None and right_const is not None
            if not _compare_values(left_const.value, ordering.op, right_const.value):
                return None

        # Bound propagation across variable-variable orderings.
        for _ in range(PROPAGATION_ROUNDS):
            changed = False
            for low_root, high_root, strict in var_edges:
                low_iv = intervals[low_root]
                high_iv = intervals[high_root]
                before = (low_iv.high, low_iv.high_strict, high_iv.low, high_iv.low_strict)
                low_iv.tighten_high(high_iv.high, strict or high_iv.high_strict)
                high_iv.tighten_low(low_iv.low, strict or low_iv.low_strict)
                after = (low_iv.high, low_iv.high_strict, high_iv.low, high_iv.low_strict)
                changed = changed or before != after
            if not changed:
                break
        return intervals

    def _check_point_disequalities(
        self,
        branch: _Branch,
        uf: _UnionFind,
        intervals: Dict[Term, _Interval],
    ) -> bool:
        def pinned_value(term: Term) -> Optional[object]:
            constant = uf.constant_of(term)
            if constant is not None:
                return constant.value
            interval = intervals.get(uf.find(term))
            if interval is not None:
                point = interval.is_point()
                if point is not None:
                    return point
            return None

        for disequality in branch.disequalities:
            left_value = pinned_value(disequality.left)
            right_value = pinned_value(disequality.right)
            if left_value is None or right_value is None:
                continue
            if _values_equal(left_value, right_value):
                return False
        return True

    def _check_memberships(
        self,
        branch: _Branch,
        uf: _UnionFind,
        intervals: Dict[Term, _Interval],
    ) -> bool:
        if not branch.memberships:
            return True

        # Partition literals per element class for candidate intersection.
        per_class: Dict[Term, List[Tuple[Membership, Optional[ResultSetLike]]]] = {}
        for literal in branch.memberships:
            result = self._try_evaluate(literal.call, uf)
            element_value = self._pinned_value(literal.element, uf, intervals)
            if result is None:
                # Unknown call: assume satisfiable.
                continue
            if element_value is not _UNKNOWN:
                member = result.contains(element_value)
                if literal.positive and not member:
                    return False
                if not literal.positive and member:
                    return False
                continue
            if literal.positive and result.is_empty():
                return False
            root = uf.find(literal.element)
            per_class.setdefault(root, []).append((literal, result))

        # Candidate filtering for unpinned elements with finite positive sets.
        for root, literals in per_class.items():
            finite_positive = [
                result
                for literal, result in literals
                if literal.positive
                and result is not None
                and result.is_finite()
                and (result.size_hint() or 0) <= MAX_MEMBERSHIP_ENUMERATION
            ]
            if not finite_positive:
                continue
            negatives = [
                result
                for literal, result in literals
                if not literal.positive and result is not None
            ]
            other_positive = [
                result
                for literal, result in literals
                if literal.positive and result not in finite_positive and result is not None
            ]
            interval = intervals.get(root, _Interval())
            disequal_values = self._disequal_values_for(root, branch, uf, intervals)
            base = finite_positive[0]
            found = False
            for value in base.iter_values():
                if not interval.admits(value) and not interval.is_trivial():
                    if _is_number(value) and not interval.admits(value):
                        continue
                    if not _is_number(value) and not interval.is_trivial():
                        continue
                if any(_values_equal(value, bad) for bad in disequal_values):
                    continue
                if any(not other.contains(value) for other in finite_positive[1:]):
                    continue
                if any(not other.contains(value) for other in other_positive):
                    continue
                if any(negative.contains(value) for negative in negatives):
                    continue
                found = True
                break
            if not found:
                return False
        return True

    def _disequal_values_for(
        self,
        root: Term,
        branch: _Branch,
        uf: _UnionFind,
        intervals: Dict[Term, _Interval],
    ) -> List[object]:
        values: List[object] = []
        for disequality in branch.disequalities:
            left_root = uf.find(disequality.left)
            right_root = uf.find(disequality.right)
            other: Optional[Term] = None
            if left_root == root:
                other = disequality.right
            elif right_root == root:
                other = disequality.left
            if other is None:
                continue
            pinned = self._pinned_value(other, uf, intervals)
            if pinned is not _UNKNOWN:
                values.append(pinned)
        return values

    def _pinned_value(
        self, term: Term, uf: _UnionFind, intervals: Dict[Term, _Interval]
    ) -> object:
        constant = uf.constant_of(term)
        if constant is not None:
            return constant.value
        interval = intervals.get(uf.find(term))
        if interval is not None:
            point = interval.is_point()
            if point is not None:
                if point == int(point):
                    return int(point)
                return point
        return _UNKNOWN

    def _try_evaluate(
        self, call: DomainCall, uf: _UnionFind
    ) -> Optional[ResultSetLike]:
        if self._evaluator is None:
            return None
        args: List[object] = []
        for arg in call.args:
            constant = uf.constant_of(arg)
            if constant is None:
                return None
            args.append(constant.value)
        if not self._evaluator.has_domain(call.domain):
            return None
        try:
            return self._evaluator.evaluate_call(call.domain, call.function, tuple(args))
        except (UnknownFunctionError, EvaluationError):
            return None

    # ------------------------------------------------------------------
    # Ground evaluation helpers
    # ------------------------------------------------------------------
    def _evaluate_comparison(
        self, comparison: Comparison, assignment: Mapping[Variable, object]
    ) -> bool:
        left = _ground_term(comparison.left, assignment)
        right = _ground_term(comparison.right, assignment)
        return _compare_values(left, comparison.op, right)

    def _evaluate_membership(
        self, membership: Membership, assignment: Mapping[Variable, object]
    ) -> bool:
        if self._evaluator is None:
            raise SolverError(
                "cannot evaluate a DCA-atom without a domain evaluator: "
                f"{membership}"
            )
        element = _ground_term(membership.element, assignment)
        args = tuple(
            _ground_term(arg, assignment) for arg in membership.call.args
        )
        result = self._evaluator.evaluate_call(
            membership.call.domain, membership.call.function, args
        )
        member = result.contains(element)
        return member if membership.positive else not member


class _Unknown:
    """Sentinel for 'no pinned value'."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<unknown>"


_UNKNOWN = _Unknown()


# ---------------------------------------------------------------------------
# Quick-reject argument profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArgumentSlot:
    """Cheap per-argument summary used by the quick-reject pre-filter.

    ``value`` is the constant the canonical form pins the argument to (or
    :data:`_UNKNOWN`); ``interval`` the numeric range allowed by top-level
    ordering conjuncts (``None`` when unconstrained); ``calls`` the ground
    positive DCA-atoms whose element is this argument, as
    ``(domain, function, args)`` triples ready for a per-domain
    ``quick_reject`` hook.
    """

    value: object = _UNKNOWN
    interval: Optional[_Interval] = None
    calls: Tuple[Tuple[str, str, Tuple[object, ...]], ...] = ()


@dataclass(frozen=True)
class ArgumentProfile:
    """Per-position summaries of one constrained atom's canonical form."""

    slots: Tuple[ArgumentSlot, ...]
    #: The profile alone already closes the constraint (equality conflict or
    #: a pinned value outside its own interval): no instances exist.
    unsatisfiable: bool = False


def _interval_excludes(interval: _Interval, value: object) -> bool:
    """True when *interval* definitely excludes the pinned *value*.

    Booleans get no opinion: the solver's ground comparisons coerce them to
    0/1 (``True < 5`` holds), so excluding them here would prune overlaps
    the full check finds satisfiable.
    """
    if isinstance(value, bool):
        return False
    return not interval.admits(value)


def _intervals_disjoint(left: _Interval, right: _Interval) -> bool:
    if left.high < right.low:
        return True
    if left.high == right.low and (left.high_strict or right.low_strict):
        return True
    if right.high < left.low:
        return True
    if right.high == left.low and (right.high_strict or left.low_strict):
        return True
    return False


def build_argument_profile(
    args: Sequence[Term], constraint: Constraint
) -> ArgumentProfile:
    """Summarize what the canonical form says about each atom argument.

    Only *positive top-level* conjuncts are consulted (equalities, orderings
    against constants, ground DCA-atoms); everything else -- negations,
    variable-variable orderings, disequalities -- is ignored, which keeps the
    profile a sound over-approximation: two atoms whose profiles are
    incompatible definitely have no common instance, while compatible
    profiles prove nothing.
    """
    from repro.constraints.simplify import canonical_form

    canonical = canonical_form(constraint)
    if isinstance(canonical, FalseConstraint):
        return ArgumentProfile((), unsatisfiable=True)
    uf = _UnionFind()
    orderings: List[Comparison] = []
    memberships: List[Membership] = []
    if not isinstance(canonical, TrueConstraint):
        for part in canonical.conjuncts():
            if isinstance(part, Comparison):
                if part.op == "=":
                    uf.union(part.left, part.right)
                    if uf.conflict:
                        return ArgumentProfile((), unsatisfiable=True)
                elif part.op in ("<", "<=", ">", ">="):
                    orderings.append(part)
            elif isinstance(part, Membership) and part.positive:
                memberships.append(part)
            elif isinstance(part, FalseConstraint):
                return ArgumentProfile((), unsatisfiable=True)

    intervals: Dict[Term, _Interval] = {}

    def interval_for(term: Term) -> _Interval:
        root = uf.find(term)
        if root not in intervals:
            intervals[root] = _Interval()
        return intervals[root]

    for ordering in orderings:
        comparison = ordering
        if comparison.op in (">", ">="):
            comparison = comparison.flipped()
        strict = comparison.op == "<"
        left_const = uf.constant_of(comparison.left)
        right_const = uf.constant_of(comparison.right)
        if left_const is not None and right_const is not None:
            if not _compare_values(left_const.value, comparison.op, right_const.value):
                return ArgumentProfile((), unsatisfiable=True)
            continue
        try:
            if right_const is not None and _is_number(right_const.value):
                interval_for(comparison.left).tighten_high(
                    float(right_const.value), strict
                )
            elif left_const is not None and _is_number(left_const.value):
                interval_for(comparison.right).tighten_low(
                    float(left_const.value), strict
                )
        except OverflowError:
            pass  # int beyond float range: the profile ventures no bound

    def ground_call(call: DomainCall) -> Optional[Tuple[object, ...]]:
        values: List[object] = []
        for arg in call.args:
            constant = uf.constant_of(arg)
            if constant is None:
                return None
            values.append(constant.value)
        return tuple(values)

    slots: List[ArgumentSlot] = []
    for arg in args:
        constant = uf.constant_of(arg)
        value = constant.value if constant is not None else _UNKNOWN
        root = uf.find(arg)
        interval = intervals.get(root)
        if interval is not None and interval.is_trivial():
            interval = None
        if value is not _UNKNOWN and interval is not None:
            if _interval_excludes(interval, value):
                return ArgumentProfile((), unsatisfiable=True)
            interval = None  # the pinned value subsumes the interval
        calls: List[Tuple[str, str, Tuple[object, ...]]] = []
        for literal in memberships:
            if uf.find(literal.element) != root:
                continue
            resolved = ground_call(literal.call)
            if resolved is not None:
                calls.append((literal.call.domain, literal.call.function, resolved))
        if interval is not None and interval.is_empty():
            return ArgumentProfile((), unsatisfiable=True)
        slots.append(ArgumentSlot(value, interval, tuple(calls)))
    return ArgumentProfile(tuple(slots))


# ---------------------------------------------------------------------------
# Public interval toolkit
# ---------------------------------------------------------------------------
# The argument index's range postings (repro.datalog.view) and the indexed
# join enumeration (repro.datalog.fixpoint) are built on the same interval
# arithmetic the branch procedure and the quick-reject profiles use.  These
# aliases are the supported surface for that sharing: the underscore names
# remain internal to this module and may be refactored freely.

#: A (possibly unbounded) numeric interval; see :class:`_Interval`.
Interval = _Interval

#: Sentinel for "no pinned value" in :class:`ArgumentSlot` profiles.
PROFILE_UNKNOWN = _UNKNOWN


def interval_excludes(interval: Interval, value: object) -> bool:
    """True when *interval* definitely excludes *value* (bools: no opinion)."""
    return _interval_excludes(interval, value)


def intervals_disjoint(left: Interval, right: Interval) -> bool:
    """True when the two intervals share no point."""
    return _intervals_disjoint(left, right)


def intersect_intervals(left: Interval, right: Interval) -> Interval:
    """The intersection of two intervals (possibly empty)."""
    merged = _Interval(left.low, left.low_strict, left.high, left.high_strict)
    merged.tighten_low(right.low, right.low_strict)
    merged.tighten_high(right.high, right.high_strict)
    return merged


def _ground_term(term: Term, assignment: Mapping[Variable, object]) -> object:
    if isinstance(term, Constant):
        return term.value
    if term in assignment:
        return assignment[term]
    raise SolverError(f"unbound variable in ground evaluation: {term}")


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _values_equal(left: object, right: object) -> bool:
    if _is_number(left) and _is_number(right):
        return float(left) == float(right)
    return left == right


def _compare_values(left: object, op: str, right: object) -> bool:
    if op == "=":
        return _values_equal(left, right)
    if op == "!=":
        return not _values_equal(left, right)
    try:
        if op == "<":
            return left < right  # type: ignore[operator]
        if op == "<=":
            return left <= right  # type: ignore[operator]
        if op == ">":
            return left > right  # type: ignore[operator]
        if op == ">=":
            return left >= right  # type: ignore[operator]
    except TypeError:
        return False
    raise SolverError(f"unknown comparison operator: {op!r}")
