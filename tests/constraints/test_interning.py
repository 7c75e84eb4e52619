"""Property-based tests of the hash-consing invariants.

The interning layer promises exactly three things, and each gets a
randomized check here (a fourth section checks that maintenance actually
takes the fast paths identity buys):

1. **Construction canonicalizes.**  Building the same term or constraint
   twice -- from scratch, in any thread -- yields the *same object*, so
   structural equality degenerates to pointer identity.
2. **Identity is structural equality.**  Two independently generated nodes
   are the same object exactly when their structural renderings agree;
   interning never conflates distinct structures and never duplicates
   equal ones.
3. **Sharing survives process seams.**  The persistence codec and pickle
   both rebuild through the constructors, so a round-tripped node is the
   original node, not an equal twin.
"""

from __future__ import annotations

import copy
import gc
import pickle
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from repro.constraints import (
    Comparison,
    ConstraintSolver,
    Constant,
    Membership,
    NegatedConjunction,
    TRUE,
    FALSE,
    TrueConstraint,
    FalseConstraint,
    Variable,
    compare,
    conjoin,
)
from repro.constraints.ast import DomainCall
from repro.constraints.intern import intern_stats
from repro.datalog import compute_tp_fixpoint
from repro.errors import ConstraintError, TermError
from repro.maintenance import delete_with_dred, delete_with_stdel
from repro.persist.codec import (
    decode_constraint,
    decode_term,
    encode_constraint,
    encode_term,
)
from repro.stream import StreamOptions, StreamScheduler
from repro.workloads import (
    deletion_stream,
    make_layered_program,
    make_path_graph_edges,
    make_transitive_closure_program,
    stream_batches,
)

VARIABLE_NAMES = ("X", "Y", "Z", "W")
OPERATORS = ("=", "!=", "<", "<=", ">", ">=")


@st.composite
def terms(draw):
    if draw(st.booleans()):
        return Variable(draw(st.sampled_from(VARIABLE_NAMES)))
    return Constant(draw(st.integers(min_value=-3, max_value=3)))


@st.composite
def comparisons(draw):
    return compare(
        Variable(draw(st.sampled_from(VARIABLE_NAMES))),
        draw(st.sampled_from(OPERATORS)),
        draw(terms()),
    )


@st.composite
def memberships(draw):
    call = DomainCall(
        draw(st.sampled_from(("geo", "pay"))),
        draw(st.sampled_from(("lookup", "scan"))),
        tuple(draw(st.lists(terms(), min_size=0, max_size=2))),
    )
    return Membership(draw(terms()), call, draw(st.booleans()))


@st.composite
def primitives(draw):
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        return draw(memberships())
    return draw(comparisons())


@st.composite
def constraints(draw):
    """A random constraint: conjunction of primitives, optionally with one
    negated conjunction, occasionally trivial."""
    shape = draw(st.integers(min_value=0, max_value=8))
    if shape == 0:
        return draw(st.sampled_from((TRUE, FALSE)))
    parts = draw(st.lists(primitives(), min_size=1, max_size=4))
    if draw(st.booleans()):
        inner = draw(st.lists(primitives(), min_size=1, max_size=3))
        parts.append(NegatedConjunction(tuple(inner)))
    return conjoin(*parts)


# ---------------------------------------------------------------------------
# 1. Construction canonicalizes
# ---------------------------------------------------------------------------


@given(constraints())
@settings(max_examples=150, deadline=None)
def test_structurally_equal_construction_is_the_same_object(constraint):
    """Rebuilding a constraint bottom-up from its own structure must hand
    back the identical node at every level."""
    assert _rebuild(constraint) is constraint


def _rebuild(node):
    if isinstance(node, Variable):
        return Variable(node.name)
    if isinstance(node, Constant):
        return Constant(node.value)
    if isinstance(node, (TrueConstraint, FalseConstraint)):
        return type(node)()
    if isinstance(node, Comparison):
        return Comparison(_rebuild(node.left), node.op, _rebuild(node.right))
    if isinstance(node, DomainCall):
        return DomainCall(
            node.domain, node.function, tuple(_rebuild(a) for a in node.args)
        )
    if isinstance(node, Membership):
        return Membership(
            _rebuild(node.element), _rebuild(node.call), node.positive
        )
    if isinstance(node, NegatedConjunction):
        return NegatedConjunction(tuple(_rebuild(p) for p in node.parts))
    return conjoin(*(_rebuild(p) for p in node.conjuncts()))


@given(st.lists(constraints(), min_size=1, max_size=4))
@settings(max_examples=25, deadline=None)
def test_interning_is_stable_across_threads(batch):
    """Racing reconstructions of the same structures from four threads must
    all resolve to the single interned node (the table locks construction)."""
    with ThreadPoolExecutor(max_workers=4) as pool:
        rebuilt = list(
            pool.map(lambda _: [_rebuild(c) for c in batch], range(8))
        )
    for row in rebuilt:
        for original, clone in zip(batch, row):
            assert clone is original


# ---------------------------------------------------------------------------
# 2. Identity is structural equality
# ---------------------------------------------------------------------------


@given(constraints(), constraints())
@settings(max_examples=200, deadline=None)
def test_identity_coincides_with_structural_equality(left, right):
    """For independently generated constraints, pointer identity and
    structural equality (textual rendering, which the AST defines uniquely)
    must agree in both directions."""
    assert (left is right) == (str(left) == str(right))
    assert (left == right) == (left is right)
    if left is right:
        assert hash(left) == hash(right)


def test_singletons():
    assert TrueConstraint() is TRUE
    assert FalseConstraint() is FALSE


def test_nodes_are_immutable():
    comparison = compare(Variable("X"), "=", 1)
    with pytest.raises(ConstraintError):
        comparison.op = "!="
    with pytest.raises(TermError):
        Variable("X").name = "Y"


# ---------------------------------------------------------------------------
# 3. Sharing survives process seams
# ---------------------------------------------------------------------------


@given(constraints())
@settings(max_examples=150, deadline=None)
def test_codec_round_trip_returns_the_interned_node(constraint):
    """Decoding an encoded constraint must yield the *same object*: the
    decoders build through the constructors, and the constructors intern."""
    assert decode_constraint(encode_constraint(constraint)) is constraint


@given(terms())
@settings(max_examples=50, deadline=None)
def test_codec_round_trip_returns_the_interned_term(term):
    assert decode_term(encode_term(term)) is term


@given(constraints())
@settings(max_examples=50, deadline=None)
def test_pickle_and_copy_re_intern(constraint):
    assert pickle.loads(pickle.dumps(constraint)) is constraint
    assert copy.copy(constraint) is constraint
    assert copy.deepcopy(constraint) is constraint


# ---------------------------------------------------------------------------
# 4. Maintenance takes the identity fast paths
# ---------------------------------------------------------------------------


def test_a_recursive_deletion_is_answered_by_identity_and_node_memos():
    """On tc-10, StDel and DRed decide some subsumptions and subtractions by
    pointer identity (each one a solver call not made) and hit the per-node
    canonical and satisfiability memos.  Single-threaded: the event
    counters are exact only there."""
    gc.collect()
    before = intern_stats()
    spec = make_transitive_closure_program(make_path_graph_edges(10))
    solver = ConstraintSolver()
    view = compute_tp_fixpoint(spec.program, solver)
    atom = deletion_stream(spec, 1, seed=4)[0].atom
    delete_with_stdel(spec.program, view, atom, solver)
    delete_with_dred(spec.program, view, atom, solver)
    after = intern_stats()
    events = {
        name: count - before["events"].get(name, 0)
        for name, count in after["events"].items()
    }
    assert events["identity_subsumptions"] + events["identity_subtractions"] >= 1
    assert events["canonical_hits"] >= 1
    assert events["sat_node_hits"] + events["simplify_node_hits"] >= 1
    # Construction shares structure: 0.59 of the lookups find the node
    # already interned, cold or after the rest of this file.
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    assert hits >= 0.2 * (hits + misses)


def test_the_coalescer_cancels_an_identical_pair_without_the_solver():
    spec = make_layered_program(
        base_facts=6, layers=2, predicates_per_layer=2, fanin=2, seed=9
    )
    batch = stream_batches(
        spec, 1, deletions=2, insertions=2, seed=9, duplicates=1, cancellations=1
    )[0]
    scheduler = StreamScheduler(
        spec.program, ConstraintSolver(), options=StreamOptions(max_workers=1)
    )
    coalesce = scheduler.apply_batch(batch.requests).stats.coalesce
    assert coalesce.cancelled >= 1
    assert coalesce.solver_calls == 0
