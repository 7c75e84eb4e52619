"""Domain signature inference (analyzer pass 3).

Three static questions about the constraint side of a program:

* **External call typing** -- every ``domain:function(args)`` call site is
  collected; arity disagreements between call sites, and (when a
  :class:`~repro.domains.base.DomainRegistry` is supplied) unknown domains,
  unknown functions and declared-arity mismatches become diagnostics long
  before the solver would hit them mid-maintenance.
* **Per-position value kinds** -- a small lattice join (``number`` /
  ``string`` / ``other``, joined to ``mixed``) over what each clause pins
  or bounds a head position to.  A mixed position is legal but usually a
  workload bug, so it is reported as a warning.
* **Interval-index eligibility** -- a *may* analysis marking the
  ``(predicate, position)`` pairs whose entries can ever carry a numeric
  interval bound: head variables under ordering comparisons or
  interval-hooked membership guards, plus positions inherited through body
  joins (least fixpoint).  Positions outside the set are hopeless for the
  view's range postings, so probes there can skip the interval machinery;
  either misclassification only costs probe effort -- every probe path
  stays a superset of the joinable entries.

Statically-unsatisfiable constraint profiles (a ``false`` conjunct,
contradictory pins, an empty numeric interval) are flagged per clause:
such a clause can never derive anything, which is almost always a typo.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.constraints.ast import (
    Comparison,
    Constraint,
    DomainCall,
    FalseConstraint,
    Membership,
    NegatedConjunction,
)
from repro.constraints.solver import Interval
from repro.constraints.terms import Constant, Variable
from repro.datalog.clauses import Clause
from repro.datalog.program import ConstrainedDatabase
from repro.domains.base import DomainRegistry

from repro.analysis.report import Diagnostic


def _value_kind(value: object) -> str:
    """Collapse a constant's Python value onto the signature lattice."""
    if isinstance(value, bool):
        return "other"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    return "other"


def _is_numeric(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class _ClauseProfile:
    """Per-clause facts extracted from the top-level positive conjuncts."""

    def __init__(self, clause: Clause) -> None:
        self.pins: Dict[Variable, Set[object]] = {}
        #: The interval the orderings against numbers leave each variable:
        #: the raw values, which Python compares exactly at any size.
        self.bounds: Dict[Variable, Interval] = {}
        #: Variables that are the element of a positive membership literal,
        #: mapped to the calls guarding them.
        self.member_elements: Dict[Variable, List[DomainCall]] = {}
        self.has_false = False
        for conjunct in clause.constraint.conjuncts():
            if isinstance(conjunct, FalseConstraint):
                self.has_false = True
            elif isinstance(conjunct, Comparison):
                self._record_comparison(conjunct)
            elif isinstance(conjunct, Membership) and conjunct.positive:
                if isinstance(conjunct.element, Variable):
                    self.member_elements.setdefault(
                        conjunct.element, []
                    ).append(conjunct.call)

    def _record_comparison(self, comparison: Comparison) -> None:
        left, op, right = comparison.left, comparison.op, comparison.right
        if isinstance(left, Constant) and isinstance(right, Variable):
            left, op, right = right, comparison.flipped().op, left
        if not (isinstance(left, Variable) and isinstance(right, Constant)):
            return
        if op == "=":
            self.pins.setdefault(left, set()).add(right.value)
        elif op in (">", ">=", "<", "<=") and _is_numeric(right.value):
            interval = self.bounds.setdefault(left, Interval())
            if op in (">", ">="):
                interval.tighten_low(right.value, op == ">")
            else:
                interval.tighten_high(right.value, op == "<")

    def kind_of(self, variable: Variable) -> Optional[str]:
        """Value kind the clause forces on *variable*, if any."""
        pins = self.pins.get(variable)
        if pins:
            kinds = {_value_kind(value) for value in pins}
            return kinds.pop() if len(kinds) == 1 else "mixed"
        if variable in self.bounds:
            return "number"
        return None


def _collect_calls(constraint: Constraint) -> List[DomainCall]:
    """Every domain call under *constraint*, negations included."""
    calls: List[DomainCall] = []
    for conjunct in constraint.conjuncts():
        if isinstance(conjunct, Membership):
            calls.append(conjunct.call)
        elif isinstance(conjunct, NegatedConjunction):
            for part in conjunct.parts:
                calls.extend(_collect_calls(part))
    return calls


def _check_unsatisfiable(
    clause: Clause, profile: _ClauseProfile
) -> Optional[str]:
    """Reason the clause's constraint is statically unsatisfiable, if any."""
    if profile.has_false:
        return "the constraint contains a false conjunct"
    for variable, values in profile.pins.items():
        if len(values) > 1:
            rendered = ", ".join(sorted(repr(v) for v in values))
            return (
                f"variable {variable.name} is pinned to conflicting "
                f"constants ({rendered})"
            )
    for variable, interval in profile.bounds.items():
        if interval.is_empty():
            return (
                f"variable {variable.name}'s ordering bounds describe an "
                f"empty interval"
            )
        # One pin at most: conflicting pins were reported above.
        (pin,) = profile.pins.get(variable) or (None,)
        if _is_numeric(pin) and not interval.admits(pin):
            return (
                f"variable {variable.name} is pinned to {pin!r}, "
                "outside its ordering bounds"
            )
    return None


def _call_has_interval_hook(
    call: DomainCall, registry: Optional[DomainRegistry]
) -> bool:
    """Could ``index_interval`` bound this call?  Unknown registries: yes."""
    if registry is None:
        return True
    if not registry.has_domain(call.domain):
        return False
    domain = registry.domain(call.domain)
    if not domain.has_function(call.function):
        return False
    return domain.function(call.function).index_interval is not None


def infer_interval_positions(
    program: ConstrainedDatabase,
    registry: Optional[DomainRegistry] = None,
) -> FrozenSet[Tuple[str, int]]:
    """(predicate, position) pairs that *may* carry interval bounds.

    Least fixpoint: a head position is eligible when some clause bounds its
    variable with an ordering comparison or an interval-hooked membership
    guard, or inherits it from an already-eligible body position.  Body-only
    predicates (no defining clause) get every observed position -- their
    entries arrive externally with arbitrary constraints.
    """
    eligible: Set[Tuple[str, int]] = set()
    head_predicates = set(program.predicates())
    for clause in program:
        for atom in clause.body:
            if atom.predicate not in head_predicates:
                eligible.update(
                    (atom.predicate, index) for index in range(atom.arity)
                )
    profiles = [(clause, _ClauseProfile(clause)) for clause in program]
    changed = True
    while changed:
        changed = False
        for clause, profile in profiles:
            for index, arg in enumerate(clause.head.args):
                position = (clause.predicate, index)
                if position in eligible or not isinstance(arg, Variable):
                    continue
                if arg in profile.pins:
                    continue  # pinned to a point value, never an interval
                qualifies = (
                    arg in profile.bounds
                    or any(
                        _call_has_interval_hook(call, registry)
                        for call in profile.member_elements.get(arg, ())
                    )
                    or any(
                        body_arg == arg
                        and (atom.predicate, body_index) in eligible
                        for atom in clause.body
                        for body_index, body_arg in enumerate(atom.args)
                    )
                )
                if qualifies:
                    eligible.add(position)
                    changed = True
    return frozenset(eligible)


def run_signature_pass(
    program: ConstrainedDatabase,
    registry: Optional[DomainRegistry] = None,
) -> Tuple[
    List[Diagnostic],
    Dict[Tuple[str, int], str],
    FrozenSet[Tuple[str, int]],
]:
    """Run the typing pass: diagnostics, signatures, interval positions."""
    diagnostics: List[Diagnostic] = []

    # -- external call sites -------------------------------------------
    arities: Dict[Tuple[str, str], Dict[int, int]] = {}
    call_sites: Dict[Tuple[str, str], Tuple[Optional[int], str]] = {}
    for clause in program:
        for call in _collect_calls(clause.constraint):
            key = (call.domain, call.function)
            arities.setdefault(key, {}).setdefault(len(call.args), 0)
            arities[key][len(call.args)] += 1
            call_sites.setdefault(key, (clause.number, clause.predicate))
    for key in sorted(arities):
        domain_name, function_name = key
        used = sorted(arities[key])
        clause_number, predicate = call_sites[key]
        if len(used) > 1:
            diagnostics.append(
                Diagnostic(
                    severity="error",
                    code="domain-arity-conflict",
                    message=(
                        f"{domain_name}:{function_name} is called with "
                        f"{used[0]} and {used[-1]} arguments by different "
                        "clauses; one of the call sites cannot be right"
                    ),
                    predicate=predicate,
                    clause_number=clause_number,
                )
            )
        if registry is None:
            continue
        if not registry.has_domain(domain_name):
            diagnostics.append(
                Diagnostic(
                    severity="error",
                    code="unknown-domain",
                    message=(
                        f"domain {domain_name!r} is not registered "
                        f"(registered: {list(registry.domain_names())})"
                    ),
                    predicate=predicate,
                    clause_number=clause_number,
                )
            )
            continue
        domain = registry.domain(domain_name)
        if not domain.has_function(function_name):
            diagnostics.append(
                Diagnostic(
                    severity="error",
                    code="unknown-function",
                    message=(
                        f"domain {domain_name!r} has no function "
                        f"{function_name!r} "
                        f"(available: {list(domain.function_names())})"
                    ),
                    predicate=predicate,
                    clause_number=clause_number,
                )
            )
            continue
        declared = domain.function(function_name).arity
        if declared is not None:
            wrong = [arity for arity in used if arity != declared]
            if wrong:
                diagnostics.append(
                    Diagnostic(
                        severity="error",
                        code="domain-arity-mismatch",
                        message=(
                            f"{domain_name}:{function_name} declares arity "
                            f"{declared} but is called with {wrong[0]} "
                            "arguments"
                        ),
                        predicate=predicate,
                        clause_number=clause_number,
                    )
                )

    # -- per-clause satisfiability + per-position kinds ----------------
    signatures: Dict[Tuple[str, int], str] = {}
    for clause in program:
        profile = _ClauseProfile(clause)
        reason = _check_unsatisfiable(clause, profile)
        if reason is not None:
            diagnostics.append(
                Diagnostic(
                    severity="warning",
                    code="unsatisfiable-constraint",
                    message=f"the clause can never derive anything: {reason}",
                    predicate=clause.predicate,
                    clause_number=clause.number,
                )
            )
        for index, arg in enumerate(clause.head.args):
            if isinstance(arg, Constant):
                kind: Optional[str] = _value_kind(arg.value)
            else:
                kind = profile.kind_of(arg)
            if kind is None:
                continue
            position = (clause.predicate, index)
            known = signatures.get(position)
            if known is None:
                signatures[position] = kind
            elif known != kind:
                signatures[position] = "mixed"
    for position in sorted(signatures):
        if signatures[position] == "mixed":
            predicate, index = position
            diagnostics.append(
                Diagnostic(
                    severity="warning",
                    code="type-conflict",
                    message=(
                        f"argument {index} of {predicate} is pinned to "
                        "different value kinds by different clauses"
                    ),
                    predicate=predicate,
                )
            )

    interval_positions = infer_interval_positions(program, registry)
    return diagnostics, signatures, interval_positions
