"""A clause application decided by substitution is the one the paper's step
builds -- the same atom and the same interned constraint object.

``DeltaJoinKernel.apply_clause`` lets a premise whose constraint is nothing
but pins contribute its constants directly, and decides an application all
of whose premises are pinned by comparing values; a premise over distinct
variables whose constraint is a box (``variable op constant`` comparisons,
no pins) contributes its comparisons over the body atom's arguments.  The reference here is
the ``T_P`` step as the paper states it, for every premise: rename apart,
conjoin with the clause constraint and the binding equalities, project the
auxiliary variables away, simplify, ask the solver.  Generated clauses
(arity 1-3, repeated variables, constants in head and body, clause
constraint ``true`` or comparisons) meet generated premises (pins in both
orientations, chains through an auxiliary variable, constants as arguments,
intervals, boxes of strict and non-strict bounds and holes in either
orientation, clashing pins, mixtures), under ``T_P`` and under ``W_P``.  The
same for StDel's parent rebuild: ``(replacement, deleted part)`` against the
rebuild written out with its own renaming and negation, over the generated
shapes and over box entries rebuilt from a pinned deleted premise and box
siblings, which bounds arithmetic decides (at least a quarter of the
examples) or hands to the pipeline.

Premise constraints only mention the premise's arguments and pinned
auxiliaries, so no fresh name survives projection: the kernel draws fewer of
them than the reference, and an interned node is compared by identity.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.constraints import ConstraintSolver
from repro.constraints.ast import (
    FALSE,
    TRUE,
    Comparison,
    conjoin,
    tuple_equalities,
)
from repro.constraints.projection import eliminate_variables, scoped_negation
from repro.constraints.simplify import simplify
from repro.constraints.solver import bounds_of
from repro.constraints.terms import Constant, FreshVariableFactory, Substitution, Variable
from repro.datalog.atoms import Atom, ConstrainedAtom
from repro.datalog.clauses import Clause
from repro.datalog.join import DeltaJoinKernel, EngineOptions
from repro.datalog.program import ConstrainedDatabase
from repro.datalog.support import Support
from repro.datalog.view import ViewEntry
from repro.maintenance.delete_stdel import POutPair, StraightDelete
from repro.maintenance.requests import MaintenanceStats

CLAUSE_VARIABLES = [Variable(name) for name in "XYZW"]
PREMISE_VARIABLES = [Variable(name) for name in "ABC"]
#: ``1`` and ``1.0`` are equal values and different nodes; ``'a'`` is not a
#: number (a clause constraint over it is the solver's to decide).
CONSTANTS = [Constant(value) for value in (0, 1, 2, 3, 1.0, "a")]

constants = st.sampled_from(CONSTANTS)
small = st.sampled_from(CONSTANTS[:3])
#: Box bounds: floats, an int beyond float precision and one beyond its
#: range; ``'a'`` under an ordering is no box (the pipeline's to build).
box_constants = st.sampled_from(
    CONSTANTS + [Constant(value) for value in (2.5, 2**53 + 1, 10**400)]
)


def terms(variables):
    # Mostly variables and the three small constants, so that joins meet.
    return st.one_of(st.sampled_from(variables), st.sampled_from(variables), small, constants)


def atoms(predicate: str, variables):
    return st.builds(
        Atom, st.just(predicate), st.lists(terms(variables), min_size=1, max_size=3).map(tuple)
    )


@st.composite
def clauses(draw):
    body = tuple(
        draw(atoms(f"p{position}", CLAUSE_VARIABLES))
        for position in range(draw(st.integers(1, 3)))
    )
    comparisons = st.builds(
        Comparison,
        terms(CLAUSE_VARIABLES),
        st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
        terms(CLAUSE_VARIABLES),
    )
    constraint = conjoin(*draw(st.one_of(st.just([]), st.lists(comparisons, max_size=2))))
    return Clause(draw(atoms("h", CLAUSE_VARIABLES)), constraint, body, number=1)


PINS = ["pin", "pin", "pin", "nip", "chain"]
BOUNDED = PINS + ["interval", "clash", "box"]


def meeting(valuation, theirs, mine):
    """The value each variable of *mine* must take for the arguments to
    meet *theirs* under *valuation* (of the variables of *theirs*)."""
    return {
        arg: valuation.get(other, other)
        for arg, other in zip(mine, theirs)
        if isinstance(arg, Variable) and (other in valuation or isinstance(other, Constant))
    }


@st.composite
def constrained(draw, atom: Atom, kinds, preferred):
    """A constrained atom over *atom*: every variable pinned (either
    orientation), chained to a pinned auxiliary, bounded, pinned twice to
    different constants, or free, as *kinds* allows; pinned to its
    *preferred* value nine times in ten."""
    parts = []
    for index, variable in enumerate(sorted(atom.variables())):
        value = draw(small if draw(st.booleans()) else constants)
        if variable in preferred and draw(st.integers(0, 9)):
            value = preferred[variable]
        kind = draw(st.sampled_from(kinds))
        if kind == "pin":
            parts.append(Comparison(variable, "=", value))
        elif kind == "nip":
            parts.append(Comparison(value, "=", variable))
        elif kind == "chain":
            aux = Variable(f"T{index}")
            link = Comparison(aux, "=", variable)
            parts.extend(draw(st.permutations([Comparison(aux, "=", value), link])))
        elif kind == "interval":
            parts.append(Comparison(variable, ">=", Constant(draw(st.integers(0, 2)))))
            parts.append(Comparison(variable, "<=", Constant(draw(st.integers(1, 3)))))
        elif kind == "box":
            for _ in range(draw(st.integers(1, 3))):
                op = draw(st.sampled_from(["!=", "<", "<=", ">", ">="]))
                literal = Comparison(variable, op, draw(box_constants))
                parts.append(literal.flipped() if draw(st.booleans()) else literal)
        elif kind == "clash":
            parts.append(Comparison(variable, "=", value))
            parts.append(Comparison(variable, "=", draw(constants)))
    return ConstrainedAtom(atom, conjoin(*parts))


@st.composite
def applications(draw, mixed=BOUNDED + ["free"]):
    clause = draw(clauses())
    # Boxes beside pins, over distinct variables half of the time: the
    # kernel's substitution applies to a box without pins then.
    boxes = ["box", "box", "pin", "nip"] + [kind for kind in mixed if kind in ("interval", "free")]
    kinds = draw(st.sampled_from([PINS, PINS, mixed, boxes]))
    # Three times in four the premises agree on a value per clause
    # variable, so that derivations go through; otherwise they mostly clash.
    valuation = {variable: draw(small) for variable in CLAUSE_VARIABLES * min(1, draw(st.integers(0, 3)))}
    premises = []
    for body_atom in clause.body:
        args = draw(st.lists(terms(PREMISE_VARIABLES), min_size=body_atom.arity, max_size=body_atom.arity))
        if kinds is boxes and draw(st.booleans()):
            args = draw(st.permutations(PREMISE_VARIABLES))[: body_atom.arity]
        premise = draw(
            constrained(
                Atom(body_atom.predicate, tuple(args)),
                kinds,
                meeting(valuation, body_atom.args, args),
            )
        )
        if draw(st.booleans()):
            premise = ViewEntry(premise.atom, premise.constraint, Support(7, ()))
        premises.append(premise)
    return clause, tuple(premises), valuation


def fresh_factory(clause, *atoms) -> FreshVariableFactory:
    names = {variable.name for variable in clause.variables()}
    for atom in atoms:
        names.update(variable.name for variable in atom.constraint.variables())
        names.update(variable.name for variable in atom.atom.variables())
    return FreshVariableFactory(names)


def normalise(constraint, keep, solver):
    return simplify(
        eliminate_variables(constraint, keep), solver, drop_redundant_comparisons=True
    )


def reference_application(clause, premises, factory, check_solvability, solver):
    """The ``T_P`` / ``W_P`` step of the paper, every premise renamed apart."""
    parts = [clause.constraint]
    for body_atom, premise in zip(clause.body, premises):
        renamed, _ = ConstrainedAtom(premise.atom, premise.constraint).renamed_apart(factory)
        parts.append(renamed.constraint)
        parts.append(tuple_equalities(renamed.atom.args, body_atom.args))
    constraint = normalise(conjoin(*parts), clause.head.variables(), solver)
    if check_solvability and not solver.is_satisfiable(constraint):
        return None
    return ConstrainedAtom(clause.head, constraint)


def reference_rebuild(clause, entry, premises, child_position, factory, solver):
    """StDel step 3 for one choice of premises, written out: the deleted
    part and the replacement constraint, or ``None`` (condition (c))."""
    clause = clause.renamed_apart(factory)
    keep = entry.atom.variables()
    shared = [
        clause.constraint,
        tuple_equalities(clause.head.args, entry.atom.args),
        entry.constraint,
    ]
    deleted = list(shared)
    for body_atom, premise in zip(clause.body, premises):
        renamed, _ = premise.renamed_apart(factory)
        deleted.append(conjoin(renamed.constraint, tuple_equalities(renamed.atom.args, body_atom.args)))
    # The child's renamed variables are quantified inside its ``not(...)``:
    # scoped where it is built, against the entry's and every other part's.
    index = len(shared) + child_position
    outer = keep.union(*(part.variables() for i, part in enumerate(deleted) if i != index))
    kept = list(deleted)
    kept[index] = scoped_negation(deleted[index], outer)
    deleted_constraint = normalise(conjoin(*deleted), keep, solver)
    if not solver.is_satisfiable(deleted_constraint):
        return None
    return normalise(conjoin(*kept), keep, solver), deleted_constraint


@settings(max_examples=600, deadline=None)
@given(applications(), st.booleans())
def test_the_kernel_builds_the_atom_the_paper_s_step_builds(application, check_solvability):
    solver = ConstraintSolver()
    clause, premises, _ = application
    stats = MaintenanceStats()
    kernel = DeltaJoinKernel(
        ConstrainedDatabase([clause]),
        solver,
        EngineOptions(),
        fresh_factory(clause, *premises),
        stats,
        check_solvability=check_solvability,
    )
    derived = kernel.apply_clause(clause, premises)
    expected = reference_application(
        clause, premises, fresh_factory(clause, *premises), check_solvability, solver
    )
    if expected is None:
        assert derived is None
    else:
        assert derived is not None
        assert derived.atom == expected.atom
        assert derived.constraint is expected.constraint, (
            f"{derived.constraint}  vs  {expected.constraint}"
        )
    assert stats.clause_applications == 1
    assert stats.solver_calls <= int(check_solvability)


@st.composite
def any_rebuilds(draw):
    # A free variable of the negated premise would keep its fresh name.
    clause, premises, valuation = draw(applications(BOUNDED))
    premises = tuple(ConstrainedAtom(premise.atom, premise.constraint) for premise in premises)
    args = draw(st.lists(terms(PREMISE_VARIABLES), min_size=clause.head.arity, max_size=clause.head.arity))
    atom = Atom("h", tuple(args))
    if draw(st.integers(0, 9)) == 0:
        entry = ConstrainedAtom(atom, FALSE)
    else:
        kinds = draw(st.sampled_from([["pin", "nip"], PINS, BOUNDED + ["free"]]))
        entry = draw(constrained(atom, kinds, meeting(valuation, clause.head.args, args)))
    return clause, premises, entry, draw(st.integers(0, len(premises) - 1))


#: Where the deleted value sits against the entry's box on its variable.
PLACES = ["inside", "inside", "inside", "bound", "outside", "point", "excluded", "free"]


def oriented(draw, variable, op, value):
    literal = Comparison(variable, op, value)
    return literal.flipped() if draw(st.booleans()) else literal


def around(draw, variable, value, place):
    """Literals over *variable* placing the number *value* as *place* says;
    ``1`` meets ``1.0`` through the bound constants."""
    def near(offset):
        if value.value == 1 and not offset and draw(st.booleans()):
            return Constant(1.0 if value.value.__class__ is int else 1)
        return Constant(value.value + offset)

    if place == "free":
        return []
    if place == "outside":
        return [oriented(draw, variable, draw(st.sampled_from([">", ">="])), near(1))]
    if place == "point":
        return [oriented(draw, variable, ">=", near(0)), oriented(draw, variable, "<=", near(0))]
    if place == "bound":
        return [oriented(draw, variable, ">=", near(0)), oriented(draw, variable, "<", near(2))]
    literals = [
        oriented(draw, variable, draw(st.sampled_from([">", ">="])), near(-1)),
        oriented(draw, variable, draw(st.sampled_from(["<", "<="])), near(draw(st.sampled_from([1, 2.5])))),
    ]
    literals = draw(st.lists(st.sampled_from(literals), min_size=1, max_size=2, unique=True))
    if place == "excluded":
        literals.append(oriented(draw, variable, "!=", near(0)))
    return literals


@st.composite
def box_rebuilds(draw):
    """A rebuild onto a box entry: head and entry over distinct variables
    covering the body, the deleted premise pinned, its siblings boxes (the
    entry's own literals, weaker or tighter bounds, the same bound in the
    other orientation) or now and then pins.  The deleted value sits inside
    the entry's box, at a bound, outside it, on a point interval or behind
    a ``!=`` already; ``'a'`` meets the entry's orderings."""
    arity = draw(st.integers(1, 2))
    head, entry_args = CLAUSE_VARIABLES[:arity], PREMISE_VARIABLES[:arity]
    length = draw(st.integers(2, 3))
    child_position = draw(st.integers(0, length - 1))
    # The deleted premise pins every head variable three times in four.
    body = tuple(
        Atom(f"p{position}", tuple(draw(
            st.permutations(head)
            if position == child_position and draw(st.integers(0, 3))
            else st.lists(st.sampled_from(head), min_size=1, max_size=2)
        )))
        for position in range(length)
    )
    clause = Clause(Atom("h", head), TRUE, body, number=1)
    values = [draw(st.sampled_from(CONSTANTS[:5] + [Constant(2.5), CONSTANTS[5]])) for _ in head]
    entry_parts = {}
    for variable, value in zip(entry_args, values):
        if value.value == "a":
            ops = st.sampled_from(["!=", "=", "<", ">="])
            others = st.sampled_from([value, Constant("b"), Constant(1)])
            entry_parts[variable] = [
                oriented(draw, variable, draw(ops), draw(others)) for _ in range(draw(st.integers(0, 2)))
            ]
        else:
            entry_parts[variable] = around(draw, variable, value, draw(st.sampled_from(PLACES)))
    entry = ConstrainedAtom(Atom("h", entry_args), conjoin(*(part for parts in entry_parts.values() for part in parts)))
    premises = []
    for position, body_atom in enumerate(body):
        args = PREMISE_VARIABLES[: body_atom.arity]
        targets = [entry_args[head.index(arg)] for arg in body_atom.args]
        if position == child_position or draw(st.integers(0, 5)) == 5:
            parts = [
                oriented(draw, arg, "=", values[entry_args.index(target)])
                for arg, target in zip(args, targets)
            ]
        else:
            parts = []
            for arg, target in zip(args, targets):
                for literal in draw(st.lists(st.sampled_from(entry_parts[target] or [TRUE]), max_size=2)):
                    if literal is TRUE or literal.op in ("=", "!="):
                        continue
                    bound = literal.right if literal.left is target else literal.left
                    if draw(st.integers(0, 2)) == 0 and isinstance(bound.value, (int, float)):
                        # A weaker or a tighter bound than the entry's.
                        bound = Constant(bound.value + draw(st.sampled_from([-1, 1])))
                        literal = (
                            Comparison(target, literal.op, bound)
                            if literal.left is target
                            else Comparison(bound, literal.op, target)
                        )
                    renamed = literal.substitute(Substitution({target: arg}))
                    parts.append(renamed.flipped() if draw(st.integers(0, 4)) == 0 else renamed)
        premises.append(ConstrainedAtom(Atom(body_atom.predicate, args), conjoin(*parts)))
    return clause, tuple(premises), entry, child_position


def rebuilds():
    return st.one_of(any_rebuilds(), box_rebuilds(), box_rebuilds())


def test_a_parent_rebuild_is_the_one_step_3_builds(monkeypatch):
    # How many examples the bounds arithmetic decides, at least in part.
    decided = []
    by_bounds = DeltaJoinKernel._by_bounds

    def counted(kernel, *args):
        result = by_bounds(kernel, *args)
        if result is not NotImplemented:
            decided.append(kernel)
        return result

    monkeypatch.setattr(DeltaJoinKernel, "_by_bounds", counted)
    examples = []

    @settings(max_examples=600, deadline=None)
    @given(rebuilds())
    def rebuild_matches_step_3(rebuild):
        solver = ConstraintSolver()
        clause, premises, entry_atom, child_position = rebuild
        program = ConstrainedDatabase([clause])
        (clause,) = program
        children = tuple(Support(7 + position, ()) for position in range(len(premises)))
        entry = ViewEntry(entry_atom.atom, entry_atom.constraint, Support(clause.number, children))
        stats = MaintenanceStats()
        kernel = DeltaJoinKernel(
            program, solver, EngineOptions(), fresh_factory(clause, entry, *premises), stats
        )
        examples.append(kernel)
        rebuilt = StraightDelete(program, solver)._replace_parent(
            entry,
            child_position,
            POutPair(premises[child_position], children[child_position]),
            lambda support: premises[children.index(support)],
            kernel,
        )
        expected = (
            None
            if entry.constraint is FALSE
            else reference_rebuild(
                clause, entry, premises, child_position, fresh_factory(clause, entry, *premises), solver
            )
        )
        if expected is None:
            assert rebuilt is None
            assert entry.constraint is not FALSE or stats.clause_applications == 0
            return
        replacement, deleted_part = rebuilt
        kept, deleted = expected
        assert (replacement.atom, replacement.support) == (entry.atom, entry.support)
        assert deleted_part.atom == entry.atom
        assert deleted_part.constraint is deleted, f"{deleted_part.constraint}  vs  {deleted}"
        assert replacement.constraint is kept, f"{replacement.constraint}  vs  {kept}"

    rebuild_matches_step_3()
    assert len(set(map(id, decided))) * 4 >= len(examples) >= 600


def test_pins_are_read_once_per_interned_node():
    x, y, t = Variable("X"), Variable("Y"), Variable("T")
    one, two = Constant(1), Constant(2)
    chain = conjoin(Comparison(t, "=", one), Comparison(t, "=", x), Comparison(two, "=", y))
    assert bounds_of(chain).only_pins
    assert bounds_of(chain).pins == {t: one, x: one, y: two}
    assert bounds_of(chain) is bounds_of(chain)
    assert bounds_of(TRUE).only_pins and bounds_of(TRUE).pins == {}
    for not_pins in (
        FALSE,
        Comparison(x, ">=", one),
        conjoin(Comparison(x, "=", one), Comparison(x, "=", two)),
        conjoin(Comparison(x, "=", one), Comparison(x, "=", Constant(1.0))),
        Comparison(x, "=", y),
        Comparison(one, "=", two),
        conjoin(Comparison(x, "=", one), Comparison(y, "!=", two)),
    ):
        assert not bounds_of(not_pins).only_pins


def test_an_all_pinned_application_constructs_no_intermediate_node():
    solver = ConstraintSolver()
    from repro.constraints.intern import intern_stats

    x, y, z = CLAUSE_VARIABLES[:3]
    clause = Clause(Atom("path", (x, y)), TRUE, (Atom("edge", (x, z)), Atom("path", (z, y))), 1)
    a, b = PREMISE_VARIABLES[:2]

    def pinned(predicate, left, right):
        return ConstrainedAtom(
            Atom(predicate, (a, b)), conjoin(Comparison(a, "=", Constant(left)), Comparison(b, "=", Constant(right)))
        )

    premises = (pinned("edge", "n1", "n2"), pinned("path", "n2", "n3"))
    stats = MaintenanceStats()
    factory = fresh_factory(clause, *premises)
    kernel = DeltaJoinKernel(ConstrainedDatabase([clause]), solver, EngineOptions(), factory, stats)
    # Compiles the plan and reads the pins; held, so its nodes stay interned.
    first = kernel.apply_clause(clause, premises)
    before = intern_stats()
    derived = kernel.apply_clause(clause, premises)
    after = intern_stats()
    assert str(derived) == "path(X, Y) <- 'n1' = X & 'n3' = Y"
    assert derived.constraint is first.constraint
    # Two head pins and their conjunction: looked up, not built.
    assert after["misses"] == before["misses"]
    assert after["hits"] - before["hits"] == 3
    assert stats.solver_calls == 0 and stats.clause_applications == 2
    assert factory.fresh("X").name == "X_1"  # no fresh name was drawn
    # A clash ends the application without the solver under T_P ...
    clash = (premises[0], pinned("path", "n9", "n3"))
    assert kernel.apply_clause(clause, clash) is None
    assert stats.solver_calls == 0
    # ... and keeps the pipeline's entry under W_P (Theorem 4).
    wp = DeltaJoinKernel(
        ConstrainedDatabase([clause]), solver, EngineOptions(), factory, stats, check_solvability=False
    )
    kept = wp.apply_clause(clause, clash)
    assert kept.constraint is reference_application(
        clause, clash, fresh_factory(clause, *clash), False, solver
    ).constraint
    assert not solver.is_satisfiable(kept.constraint)


def test_a_box_premise_is_substituted_not_renamed():
    solver = ConstraintSolver()
    x, y = CLAUSE_VARIABLES[:2]
    a = PREMISE_VARIABLES[0]
    clause = Clause(Atom("pair", (x,)), TRUE, (Atom("iv0", (x,)), Atom("iv1", (x,))), 1)
    premises = (
        ConstrainedAtom(Atom("iv0", (a,)), conjoin(Comparison(a, ">=", Constant(3)), Comparison(a, "<=", Constant(8)))),
        ConstrainedAtom(Atom("iv1", (a,)), conjoin(Comparison(Constant(6), "<", a), Comparison(a, "!=", Constant(7)))),
    )
    stats = MaintenanceStats()
    factory = fresh_factory(clause, *premises)
    kernel = DeltaJoinKernel(ConstrainedDatabase([clause]), solver, EngineOptions(), factory, stats)
    derived = kernel.apply_clause(clause, premises)
    assert str(derived) == "pair(X) <- X <= 8 & 6 < X & X != 7"
    assert derived.constraint is reference_application(
        clause, premises, fresh_factory(clause, *premises), True, solver
    ).constraint
    assert factory.fresh("X").name == "X_1"  # no premise was renamed apart
    # A clause variable outside the head projects the same way.
    clause = Clause(Atom("h", (x,)), TRUE, (Atom("iv0", (y,)), Atom("iv1", (x,))), 1)
    derived = kernel.apply_clause(clause, premises)
    assert derived.constraint is reference_application(
        clause, premises, fresh_factory(clause, *premises), True, solver
    ).constraint
