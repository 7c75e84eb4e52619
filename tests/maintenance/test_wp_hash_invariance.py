"""W_P syntactic invariance (Theorem 4) extended to the hash-join indexes.

The ``W_P`` view's selling point is that external-source updates leave its
syntactic form untouched while query-time evaluation tracks ``T_P``
(Corollary 1).  With the argument index of this PR the view carries more
derived state, so the theorem is re-asserted over all of it: entry keys,
entry order, *and* the ``(predicate, position, value)`` index postings must
be byte-identical across source changes.  The index only reads top-level
equalities of the constraints -- never the sources -- which is what makes
this hold by construction; these tests pin it down.
"""

from __future__ import annotations

import pytest

from repro.constraints import ConstraintSolver
from repro.datalog import parse_program
from repro.domains import DomainClock, DomainRegistry, VersionedDomain
from repro.maintenance import TpExternalMaintenance, WpExternalMaintenance


@pytest.fixture
def setup():
    clock = DomainClock()
    domain = VersionedDomain("ext", clock)
    domain.register_versioned("g", lambda key: {1} if key == "b" else set())
    domain.set_behavior("g", 1, lambda key: set())
    domain.set_behavior("g", 2, lambda key: {1, 7} if key == "b" else set())
    registry = DomainRegistry([domain])
    solver = ConstraintSolver(registry)
    program = parse_program(
        """
        b(X) <- in(X, ext:g('b')).
        anchored(X) <- X = 3.
        joined(X) <- b(X), anchored(X).
        watched(X) <- b(X).
        """
    )
    return clock, solver, program


def wp_snapshot(wp):
    """Everything syntactic about the W_P view: keys, order, index postings."""
    return (
        tuple(str(entry.key()) for entry in wp.view),
        wp.view.argument_index_snapshot(),
        wp.view.range_posting_snapshot(),
    )


class TestWpIndexInvariance:
    def test_view_and_indexes_byte_identical_across_source_changes(self, setup):
        clock, solver, program = setup
        wp = WpExternalMaintenance(program, solver)
        before = wp_snapshot(wp)
        for _ in range(3):
            clock.advance()
            wp.on_source_changed()
            assert wp_snapshot(wp) == before

    def test_queries_track_tp_while_view_stays_fixed(self, setup):
        clock, solver, program = setup
        wp = WpExternalMaintenance(program, solver)
        tp = TpExternalMaintenance(program, solver)
        before = wp_snapshot(wp)
        for _ in range(3):
            assert wp.query("b") == tp.query("b")
            assert wp.query("watched") == tp.query("watched")
            clock.advance()
            wp.on_source_changed()
            tp.on_source_changed()
        assert wp.query("watched") == {(1,), (7,)}
        assert wp_snapshot(wp) == before

    def test_range_postings_never_populated_under_wp(self, setup):
        # Interval range postings are built lazily on the first range-aware
        # probe, and W_P materialization never probes (the hash-join index
        # is T_P-only); across source changes and queries the posting store
        # must stay byte-for-byte empty -- Theorem 4 extended to the new
        # derived state, mirroring the argument-index invariance above.
        clock, solver, program = setup
        wp = WpExternalMaintenance(program, solver)
        assert wp.view.range_posting_snapshot() == ()
        for _ in range(3):
            wp.query("watched")
            clock.advance()
            wp.on_source_changed()
            assert wp.view.range_posting_snapshot() == ()

    def test_version_token_keeps_queries_honest_without_notification(self, setup):
        # A tracked source needs no notice: the clock advance moves the
        # domain's version, which is what the solver's memos are gated on,
        # so even *without* calling on_source_changed the next query
        # re-evaluates.
        clock, solver, program = setup
        wp = WpExternalMaintenance(program, solver)
        assert wp.query("b") == {(1,)}
        clock.advance()  # behaviour at time 1: empty result set
        assert wp.query("b") == frozenset()
        clock.advance()  # behaviour at time 2: {1, 7}
        assert wp.query("b") == {(1,), (7,)}
