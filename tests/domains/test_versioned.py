"""Unit tests for time-versioned domains (Section 4 machinery)."""

from __future__ import annotations

import pytest

from repro.constraints import Membership
from repro.domains import (
    DomainClock,
    VersionedDomain,
    add_rem_sets,
    function_delta,
)
from repro.errors import EvaluationError


@pytest.fixture
def clock():
    return DomainClock()


@pytest.fixture
def domain(clock):
    domain = VersionedDomain("ext", clock)
    domain.register_versioned("g", lambda key: {"a"} if key == "b" else set())
    domain.set_behavior("g", 1, lambda key: set())
    domain.set_behavior("g", 2, lambda key: {"a", "z"} if key == "b" else set())
    return domain


class TestDomainClock:
    def test_advance(self, clock):
        assert clock.time == 0
        assert clock.advance() == 1
        assert clock.advance(3) == 4
        assert clock.time == 4

    def test_cannot_rewind_via_advance(self, clock):
        with pytest.raises(EvaluationError):
            clock.advance(-1)

    def test_listeners_notified(self, clock):
        seen = []
        clock.on_change(seen.append)
        clock.advance()
        clock.advance(4)
        assert seen == [1, 5]


class TestVersionedFunction:
    def test_dispatch_follows_clock(self, domain, clock):
        assert set(domain.call("g", ("b",)).iter_values()) == {"a"}
        clock.advance()
        assert domain.call("g", ("b",)).is_empty()
        clock.advance()
        assert set(domain.call("g", ("b",)).iter_values()) == {"a", "z"}

    def test_behaviour_persists_until_next_change(self, domain, clock):
        clock.advance(5)
        assert set(domain.call("g", ("b",)).iter_values()) == {"a", "z"}

    def test_call_at_explicit_time(self, domain):
        assert set(domain.call_at("g", ("b",), 0).iter_values()) == {"a"}
        assert domain.call_at("g", ("b",), 1).is_empty()

    def test_unknown_versioned_function(self, domain):
        with pytest.raises(EvaluationError):
            domain.versioned_function("missing")
        with pytest.raises(EvaluationError):
            domain.set_behavior("missing", 1, lambda: set())

    def test_negative_behavior_time_rejected(self, domain):
        with pytest.raises(EvaluationError):
            domain.set_behavior("g", -1, lambda key: set())

    def test_failure_wrapped(self, clock):
        domain = VersionedDomain("ext", clock)
        domain.register_versioned("boom", lambda: 1 / 0)
        with pytest.raises(EvaluationError):
            domain.call("boom", ())


class TestDeltas:
    def test_removed_value(self, domain):
        delta = function_delta(domain, "g", ("b",), 0, 1)
        assert delta.removed == ("a",)
        assert delta.added == ()
        assert delta.added or delta.removed

    def test_added_values(self, domain):
        delta = function_delta(domain, "g", ("b",), 1, 2)
        assert set(delta.added) == {"a", "z"}
        assert delta.removed == ()

    def test_no_change_is_empty(self, domain):
        delta = function_delta(domain, "g", ("x",), 0, 1)
        assert delta.added == delta.removed == ()

    def test_add_rem_sets_are_ground_memberships(self, domain):
        deltas = [
            function_delta(domain, "g", ("b",), 0, 1),
            function_delta(domain, "g", ("b",), 1, 2),
        ]
        added, removed = add_rem_sets(deltas)
        assert all(isinstance(atom, Membership) for atom in added + removed)
        assert len(removed) == 1 and len(added) == 2
        assert str(removed[0]) == "in('a', ext:g('b'))"

    def test_non_finite_results_rejected(self, clock):
        from repro.domains import IntensionalResultSet

        domain = VersionedDomain("ext", clock)
        domain.register_versioned(
            "inf", lambda: IntensionalResultSet(lambda value: True)
        )
        with pytest.raises(EvaluationError):
            function_delta(domain, "inf", (), 0, 1)
