"""Unit tests for the mediator layer."""

from __future__ import annotations

import pytest

from repro.datalog import EngineOptions, parse_constrained_atom, parse_program
from repro.domains import Domain
from repro.errors import MaintenanceError, MediatorError, ParseError
from repro.maintenance.delete_stdel import StraightDelete
from repro.mediator import (
    DeletionAlgorithm,
    MaterializationOperator,
    Mediator,
    MediatorBuilder,
)
from repro.persist import DurableScheduler

RULES = """
a(X) <- X >= 3.
a(X) <- b(X).
b(X) <- X >= 5.
c(X) <- a(X).
"""

UNIVERSE = tuple(range(0, 12))


@pytest.fixture
def mediator():
    return Mediator.from_rules(RULES)


class TestMaterialization:
    def test_tp_materialization(self, mediator):
        view = mediator.materialize()
        assert len(view) == 5
        assert view.operator is MaterializationOperator.TP

    def test_wp_materialization_by_string(self, mediator):
        view = mediator.materialize("wp")
        assert view.operator is MaterializationOperator.WP

    def test_query(self, mediator):
        view = mediator.materialize()
        assert view.query("b", universe=UNIVERSE) == {(v,) for v in range(5, 12)}
        assert view.instances(universe=UNIVERSE)

    def test_program_and_registry_exposed(self, mediator):
        assert len(mediator.program) == 4
        assert mediator.registry.domain_names() == ()
        assert mediator.solver is not None


class TestViewUpdates:
    def test_delete_with_default_algorithm(self, mediator):
        view = mediator.materialize()
        result = view.delete("b(X) <- X = 6")
        assert result.ok
        assert result.stats.totals().derivation_attempts == 0  # StDel
        assert result.view is view.view
        assert (6,) not in view.query("b", universe=UNIVERSE)

    def test_delete_with_dred(self, mediator):
        view = mediator.materialize()
        result = view.delete("b(X) <- X = 6", algorithm=DeletionAlgorithm.DRED)
        assert result.ok
        assert (6,) not in view.query("b", universe=UNIVERSE)

    def test_delete_accepts_constructed_atom(self, mediator):
        view = mediator.materialize()
        view.delete(parse_constrained_atom("b(X) <- X = 7"))
        assert (7,) not in view.query("b", universe=UNIVERSE)

    def test_insert(self, mediator):
        view = mediator.materialize()
        result = view.insert("b(X) <- X = 1")
        totals = result.stats.totals()
        assert totals.rederived_entries == 3
        assert totals.seed_atoms + totals.unfolded_atoms == 3  # |P_ADD|
        assert (1,) in view.query("c", universe=UNIVERSE)

    @pytest.mark.parametrize("algorithm", list(DeletionAlgorithm))
    def test_an_insertion_unfolds_against_the_rewritten_program(self, algorithm):
        # A deletion rewrites the program (Section 3.1): ``a``'s clause no
        # longer derives 5, so a later ``b`` insertion must not bring it back.
        view = Mediator.from_rules("b(X) <- X = 1.\na(X) <- b(X).").materialize()
        view.delete("a(X) <- X = 5", algorithm=algorithm)
        view.insert("b(X) <- X >= 4 & X <= 6")
        assert view.query("a", universe=range(10)) == {(1,), (4,), (6,)}
        assert view.query("b", universe=range(10)) == {(1,), (4,), (5,), (6,)}

    def test_a_view_keeps_the_deletion_algorithm_it_started_with(self, mediator):
        view = mediator.materialize()
        view.delete("b(X) <- X = 6")
        with pytest.raises(MediatorError, match="stdel"):
            view.delete("b(X) <- X = 7", algorithm=DeletionAlgorithm.DRED)
        assert (7,) in view.query("b", universe=UNIVERSE)
        view.refresh()
        assert view.delete("b(X) <- X = 7", algorithm=DeletionAlgorithm.DRED).ok
        assert (7,) not in view.query("b", universe=UNIVERSE)

    def test_a_failed_pass_raises_and_leaves_the_view(self, mediator, monkeypatch):
        calls = []

        def failing(self, *args, **kwargs):
            calls.append(args)
            raise MaintenanceError("round limit")

        view = mediator.materialize()
        before = view.query("b", universe=UNIVERSE)
        monkeypatch.setattr(StraightDelete, "delete_many", failing)
        with pytest.raises(MediatorError, match="round limit"):
            view.delete("b(X) <- X = 6")
        assert len(calls) == 1
        assert view.query("b", universe=UNIVERSE) == before
        monkeypatch.undo()
        assert view.delete("b(X) <- X = 6").ok
        assert (6,) not in view.query("b", universe=UNIVERSE)

    def test_invalid_update_atom(self, mediator):
        view = mediator.materialize()
        with pytest.raises(MediatorError):
            view.delete(42)  # type: ignore[arg-type]
        with pytest.raises(ParseError):
            view.delete("not a rule ~")

    def test_refresh_rematerializes(self, mediator):
        view = mediator.materialize()
        view.delete("b(X) <- X = 6")
        view.refresh()
        assert (6,) in view.query("b", universe=UNIVERSE)


class TestMediatorWithDomains:
    def test_from_rules_with_domains(self):
        warehouse = Domain("wh")
        warehouse.register("stock", lambda: {"apple", "pear"})
        mediator = Mediator.from_rules("item(X) <- in(X, wh:stock()).", domains=[warehouse])
        view = mediator.materialize()
        assert view.query("item") == {("apple",), ("pear",)}

    def test_streaming_runs_with_the_mediators_engine_options(self):
        mediator = Mediator(
            parse_program(RULES), options=EngineOptions(range_postings=False)
        )
        assert mediator.streaming().options.engine.range_postings is False

    def test_solver_options_passed_through(self):
        # The solver has no options of its own: it is configured by the
        # mediator's registry, and every scheduler shares that one solver.
        warehouse = _warehouse()
        mediator = Mediator.from_rules(RULES, domains=[warehouse])
        assert mediator.solver.evaluator is mediator.registry
        assert mediator.registry.has_domain(warehouse.name)
        assert mediator.streaming().solver is mediator.solver

    def test_open_runs_with_the_mediators_engine_options(self, tmp_path):
        mediator = Mediator.open(
            tmp_path / "data", rules=RULES, options=EngineOptions(range_postings=False)
        )
        scheduler = mediator.streaming()
        assert isinstance(scheduler, DurableScheduler)
        assert mediator.streaming() is scheduler
        assert scheduler.options.engine.range_postings is False


class TestMediatorBuilder:
    def test_builder_combines_rules_and_domains(self):
        mediator = (
            MediatorBuilder()
            .with_rules("item(X) <- in(X, wh:stock()).")
            .with_rules("cheap(X) <- item(X) & X = 'apple'.")
            .with_domain(_warehouse())
            .build()
        )
        view = mediator.materialize()
        assert view.query("cheap") == {("apple",)}
        assert len(mediator.program) == 2

    def test_builder_relational_source(self):
        mediator = (
            MediatorBuilder()
            .with_rules(
                "local(Y) <- in(A, paradox:select_eq('phonebook', 'city', 'dc')) & "
                "in(Y, paradox:field(A, 'name'))."
            )
            .with_relational_source(
                "paradox", {"phonebook": (("name", "city"), [("ann", "dc"), ("bob", "nyc")])}
            )
            .build()
        )
        assert mediator.materialize().query("local") == {("ann",)}

    def test_builder_requires_rules(self):
        with pytest.raises(MediatorError):
            MediatorBuilder().build()


def _warehouse() -> Domain:
    warehouse = Domain("wh")
    warehouse.register("stock", lambda: {"apple", "pear"})
    return warehouse
