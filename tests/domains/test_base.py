"""Unit tests for the domain abstraction and registry."""

from __future__ import annotations

import pytest

from repro.constraints import FrozenResultSet
from repro.domains import Domain, DomainRegistry, IntensionalResultSet, coerce_result
from repro.errors import EvaluationError, UnknownDomainError, UnknownFunctionError


class TestCoerceResult:
    def test_bool_maps_to_true_singleton_or_empty(self):
        assert coerce_result(True).contains(True)
        assert coerce_result(False).is_empty()

    def test_none_is_empty(self):
        assert coerce_result(None).is_empty()

    def test_collections_become_finite_sets(self):
        assert set(coerce_result([1, 2, 2]).iter_values()) == {1, 2}
        assert set(coerce_result((1,)).iter_values()) == {1}
        assert set(coerce_result({"a"}).iter_values()) == {"a"}

    def test_scalar_becomes_singleton(self):
        result = coerce_result("value")
        assert result.contains("value") and result.size_hint() == 1

    def test_generator_is_consumed(self):
        assert set(coerce_result(iter(range(3))).iter_values()) == {0, 1, 2}

    def test_result_sets_pass_through(self):
        existing = FrozenResultSet([1])
        assert coerce_result(existing) is existing

    def test_user_defined_result_sets_pass_through(self):
        """Concrete types are tested first; the protocol check still catches
        a result set the library did not define -- iterable or not."""

        class Evens:
            def contains(self, value):
                return value % 2 == 0

            def is_finite(self):
                return False

            def is_empty(self):
                return False

            def iter_values(self):
                raise EvaluationError("not enumerable")

            def size_hint(self):
                return None

        class IterableEvens(Evens):
            def __iter__(self):
                return iter((0, 2))

        for custom in (Evens(), IterableEvens()):
            assert coerce_result(custom) is custom


class TestIntensionalResultSet:
    def test_membership_and_emptiness(self):
        evens = IntensionalResultSet(lambda v: isinstance(v, int) and v % 2 == 0)
        assert evens.contains(4) and not evens.contains(3)
        assert not evens.is_finite()
        assert not evens.is_empty()
        assert evens.size_hint() is None

    def test_membership_errors_are_false(self):
        picky = IntensionalResultSet(lambda v: v > 10)
        assert not picky.contains("string")

    def test_sample_enumeration(self):
        sampled = IntensionalResultSet(lambda v: True, sample=lambda: range(3))
        assert list(sampled.iter_values()) == [0, 1, 2]
        unsampled = IntensionalResultSet(lambda v: True)
        with pytest.raises(EvaluationError):
            unsampled.iter_values()


class TestDomain:
    def test_register_and_call(self):
        domain = Domain("d")
        domain.register("f", lambda x: {x * 2})
        assert set(domain.call("f", (3,)).iter_values()) == {6}

    def test_unknown_function(self):
        domain = Domain("d")
        with pytest.raises(UnknownFunctionError):
            domain.call("missing", ())

    def test_arity_check(self):
        domain = Domain("d")
        domain.register("f", lambda x: {x}, arity=1)
        with pytest.raises(EvaluationError):
            domain.call("f", (1, 2))

    def test_exception_wrapped(self):
        domain = Domain("d")
        domain.register("boom", lambda: 1 / 0)
        with pytest.raises(EvaluationError):
            domain.call("boom", ())

    def test_function_names_and_has_function(self):
        domain = Domain("d")
        domain.register("b", lambda: set())
        domain.register("a", lambda: set())
        assert domain.function_names() == ("a", "b")
        assert domain.has_function("a") and not domain.has_function("z")

    def test_empty_name_rejected(self):
        with pytest.raises(EvaluationError):
            Domain("")


class TestDomainRegistry:
    def test_register_and_evaluate(self):
        domain = Domain("d")
        domain.register("f", lambda: {1})
        registry = DomainRegistry([domain])
        assert registry.has_domain("d")
        assert set(registry.evaluate_call("d", "f", ()).iter_values()) == {1}

    def test_unknown_domain(self):
        registry = DomainRegistry()
        assert not registry.has_domain("d")
        with pytest.raises(UnknownDomainError):
            registry.evaluate_call("d", "f", ())
        with pytest.raises(UnknownDomainError):
            registry.unregister("d")

    def test_unregister(self):
        domain = Domain("d")
        registry = DomainRegistry([domain])
        registry.unregister("d")
        assert not registry.has_domain("d")

    def test_domain_names_and_contains(self):
        registry = DomainRegistry([Domain("b"), Domain("a")])
        assert registry.domain_names() == ("a", "b")
        assert "a" in registry

    def test_call_caching(self):
        calls = []
        domain = Domain("d")
        domain.register("f", lambda: calls.append(1) or {1})
        registry = DomainRegistry([domain], cache_calls=True)
        registry.evaluate_call("d", "f", ())
        registry.evaluate_call("d", "f", ())
        assert len(calls) == 1
        registry.invalidate_cache()
        registry.evaluate_call("d", "f", ())
        assert len(calls) == 2

    def test_no_caching_by_default(self):
        calls = []
        domain = Domain("d")
        domain.register("f", lambda: calls.append(1) or {1})
        registry = DomainRegistry([domain])
        registry.evaluate_call("d", "f", ())
        registry.evaluate_call("d", "f", ())
        assert len(calls) == 2


class TestVersionTokens:
    """The registry version token changes on every tracked source change."""

    def test_registration_changes_bump_the_token(self):
        registry = DomainRegistry()
        tokens = {registry.version}
        domain = Domain("d")
        registry.register(domain)
        tokens.add(registry.version)
        domain.register("f", lambda: {1})
        tokens.add(registry.version)
        domain.register("f", lambda: {2})  # re-registration = behaviour change
        tokens.add(registry.version)
        registry.unregister("d")
        tokens.add(registry.version)
        assert len(tokens) == 5

    def test_invalidate_cache_bumps_the_token(self):
        registry = DomainRegistry([Domain("d")])
        before = registry.version
        registry.invalidate_cache()
        assert registry.version != before

    def test_clock_advance_changes_versioned_domain_token(self):
        from repro.domains import DomainClock, VersionedDomain

        clock = DomainClock()
        domain = VersionedDomain("v", clock)
        domain.register_versioned("f", lambda: {1})
        registry = DomainRegistry([domain])
        before = registry.version
        clock.advance()
        assert registry.version != before

    def test_set_behavior_changes_token_even_without_clock_advance(self):
        from repro.domains import DomainClock, VersionedDomain

        clock = DomainClock()
        domain = VersionedDomain("v", clock)
        domain.register_versioned("f", lambda: {1})
        registry = DomainRegistry([domain])
        before = registry.version
        domain.set_behavior("f", 0, lambda: {2})  # already in force at time 0
        assert registry.version != before

    def test_relational_mutation_changes_token(self):
        from repro.domains import make_relational_domain

        domain = make_relational_domain(
            "crm", {"t": (("k",), [("a",)])}
        )
        registry = DomainRegistry([domain])
        before = registry.version
        domain.database.insert("t", ("b",))
        assert registry.version != before

    def test_quick_reject_defaults_to_false(self):
        domain = Domain("d")
        domain.register("f", lambda: {1})
        registry = DomainRegistry([domain])
        assert not registry.quick_reject("d", "f", (), 2)
        assert not registry.quick_reject("missing", "f", (), 2)
        assert not registry.quick_reject("d", "missing", (), 2)

    def test_quick_reject_consults_registered_hook(self):
        domain = Domain("d")
        domain.register(
            "f", lambda: {1}, quick_reject=lambda args, value: value != 1
        )
        registry = DomainRegistry([domain])
        assert registry.quick_reject("d", "f", (), 2)
        assert not registry.quick_reject("d", "f", (), 1)

    def test_quick_reject_swallows_hook_errors(self):
        def broken(args, value):
            raise RuntimeError("boom")

        domain = Domain("d")
        domain.register("f", lambda: {1}, quick_reject=broken)
        registry = DomainRegistry([domain])
        assert not registry.quick_reject("d", "f", (), 2)

    def test_call_cache_is_version_gated(self):
        # Regression: with cache_calls=True a tracked source change bumped
        # the version token (ending the solver's memo) but the registry's
        # own call cache kept serving the stale result set.
        from repro.constraints import ConstraintSolver, Variable, conjoin, equals, member
        from repro.domains import DomainClock, VersionedDomain

        clock = DomainClock()
        domain = VersionedDomain("v", clock)
        domain.register_versioned("f", lambda: {1})
        registry = DomainRegistry([domain], cache_calls=True)
        solver = ConstraintSolver(registry)
        X = Variable("X")
        constraint = conjoin(member(X, "v", "f"), equals(X, 1))
        assert solver.is_satisfiable(constraint)
        domain.set_behavior("f", 0, lambda: {2})  # tracked change, no clock tick
        assert not solver.is_satisfiable(constraint)


def counting_domain(name: str, source):
    """A domain whose ``f(x)`` answers from *source* and logs every execution."""
    executed = []
    domain = Domain(name)
    domain.register("f", lambda x: executed.append(x) or set(source.get(x, ())))
    return domain, executed


class TestPerSourceCallMemo:
    """``cache_calls=True``: results are remembered per domain, under the
    version that domain reported before the call."""

    def test_unhashable_argument_bypasses_the_memo(self):
        domain = Domain("d")
        domain.register("f", lambda values: {sum(values)})
        cached = DomainRegistry([domain], cache_calls=True)
        plain = DomainRegistry([domain])
        for registry in (cached, plain, cached):
            assert registry.evaluate_call("d", "f", ([1, 2],)).contains(3)
        assert cached.call_counters()["d"] == {"calls": 2, "memo_hits": 0, "executed": 2}

    def test_arguments_are_keyed_with_their_types(self):
        domain = Domain("d")
        domain.register("g", lambda x: {type(x).__name__})
        registry = DomainRegistry([domain], cache_calls=True)
        plain = DomainRegistry([domain])
        for argument in (1, True, 1.0, True, 1):
            expected = plain.evaluate_call("d", "g", (argument,))
            assert registry.evaluate_call("d", "g", (argument,)) == expected
        assert registry.call_counters()["d"]["executed"] == 3

    def test_a_table_toggle_reexecutes_that_domain_only(self):
        from repro.domains import make_relational_domain

        def source(name):
            return make_relational_domain(name, {"t": (("k", "v"), [(1, "a"), (2, "b")])})

        left, right = source("left"), source("right")
        registry = DomainRegistry([left, right], cache_calls=True)

        def read_all():
            for name in ("left", "right"):
                for key in (1, 2):
                    registry.evaluate_call(name, "select_eq", ("t", "k", key))
            return {
                name: row["executed"] for name, row in registry.call_counters().items()
            }

        assert read_all() == {"left": 2, "right": 2}
        assert read_all() == {"left": 2, "right": 2}
        left.database.table("t").delete_eq("k", 1)
        assert read_all() == {"left": 4, "right": 2}
        assert registry.evaluate_call("left", "select_eq", ("t", "k", 1)).is_empty()
        left.database.table("t").insert((1, "a"))
        assert read_all() == {"left": 6, "right": 2}
        assert not registry.evaluate_call("left", "select_eq", ("t", "k", 1)).is_empty()

    def test_a_result_computed_across_a_change_is_not_served(self):
        """The source changes while the function runs (data first, version
        second, as every tracked source does): the caller of that one call
        may see either state, but its result is filed under the version that
        just passed and the next call executes again."""
        source = {"x": {1}}
        executed = []

        class Tracked(Domain):
            ticks = 0

            def source_version(self):
                return (super().source_version(), self.ticks)

        domain = Tracked("d")

        def racing(x):
            result = set(source[x])
            executed.append(x)
            if len(executed) == 1:
                source[x] = {2}  # lands underneath the running call ...
                domain.ticks += 1  # ... data first, version second
            return result

        domain.register("f", racing)
        registry = DomainRegistry([domain], cache_calls=True)
        assert registry.evaluate_call("d", "f", ("x",)).contains(1)
        assert registry.evaluate_call("d", "f", ("x",)).contains(2)
        assert registry.evaluate_call("d", "f", ("x",)).contains(2)
        assert executed == ["x", "x"]

    def test_clock_advance_and_set_behavior_invalidate(self):
        from repro.domains import DomainClock, VersionedDomain

        clock = DomainClock()
        domain = VersionedDomain("v", clock)
        executed = []
        domain.register_versioned("f", lambda: executed.append("t0") or {1})
        registry = DomainRegistry([domain], cache_calls=True)

        def read():
            return set(registry.evaluate_call("v", "f", ()).iter_values())

        assert read() == read() == {1} and executed == ["t0"]
        clock.advance()
        assert read() == read() == {1} and executed == ["t0", "t0"]
        domain.set_behavior("f", 0, lambda: executed.append("new") or {2})
        assert read() == read() == {2} and executed == ["t0", "t0", "new"]

    def test_invalidate_cache_drops_every_domain(self):
        first, first_executed = counting_domain("a", {"x": {1}})
        second, second_executed = counting_domain("b", {"x": {2}})
        registry = DomainRegistry([first, second], cache_calls=True)
        for _ in range(2):
            registry.evaluate_call("a", "f", ("x",))
            registry.evaluate_call("b", "f", ("x",))
        assert (first_executed, second_executed) == (["x"], ["x"])
        before = registry.version
        registry.invalidate_cache()
        assert registry.version != before
        registry.evaluate_call("a", "f", ("x",))
        registry.evaluate_call("b", "f", ("x",))
        assert (first_executed, second_executed) == (["x", "x"], ["x", "x"])

    def test_a_notice_reaches_an_untracked_source(self):
        """A function reading state its domain does not version: the memo
        keeps the old answer until ``source_changed`` names the domain; a
        notice for another domain leaves it alone; a name that is no domain
        drops everything."""
        book = {"x": {1}}
        untracked, executed = counting_domain("u", book)
        other, other_executed = counting_domain("o", {"x": {9}})
        registry = DomainRegistry([untracked, other], cache_calls=True)

        def read():
            registry.evaluate_call("o", "f", ("x",))
            return set(registry.evaluate_call("u", "f", ("x",)).iter_values())

        assert read() == {1}
        book["x"] = {2}
        assert read() == {1}  # stale by contract
        registry.source_changed("o")
        assert read() == {1} and executed == ["x"] and other_executed == ["x", "x"]
        versions = registry.versions_of(("o", "u", "nowhere"))
        registry.source_changed("u")
        assert read() == {2} and other_executed == ["x", "x"]
        after = registry.versions_of(("o", "u", "nowhere"))
        assert (after[0], after[2]) == (versions[0], None) and after[1] != versions[1]
        book["x"] = {3}
        registry.source_changed("a-table-name")
        assert read() == {3} and other_executed == ["x", "x", "x"]

    def test_the_memo_is_bounded(self, monkeypatch):
        from repro.domains import base

        monkeypatch.setattr(base, "MAX_MEMOIZED_CALLS_PER_DOMAIN", 4)
        domain, executed = counting_domain("d", {})
        registry = DomainRegistry([domain], cache_calls=True)
        for value in range(6):
            registry.evaluate_call("d", "f", (value,))
        registry.evaluate_call("d", "f", (5,))  # survived the wholesale clear
        registry.evaluate_call("d", "f", (0,))  # did not
        assert executed == [0, 1, 2, 3, 4, 5, 0]
