"""Unit tests for the static program analyzer and its consumers.

Three layers: the passes themselves (seeded-bad programs must be flagged,
every shipped workload must come back clean under ``--strict``), the
``repro analyze`` CLI exit-code contract, and the adoption sites (builder
fail-fast, mediator / scheduler report plumbing).
"""

from __future__ import annotations

import io
import json

import pytest

from repro.analysis import ProgramReport, analyze_program
from repro.cli import main as cli_main
from repro.constraints import ConstraintSolver
from repro.datalog import compute_tp_fixpoint, parse_program
from repro.domains.base import Domain, DomainRegistry
from repro.errors import MediatorError
from repro.mediator.builder import MediatorBuilder
from repro.workloads import (
    LAW_ENFORCEMENT_RULES,
    make_chain_program,
    make_interval_join_program,
    make_interval_program,
    make_law_enforcement_scenario,
    make_layered_program,
    make_transitive_closure_program,
)

CLEAN_RULES = """
a(X) <- X >= 3.
a(X) <- b(X).
b(X) <- X >= 5.
c(X) <- a(X).
"""


def codes(report: ProgramReport):
    return {diagnostic.code for diagnostic in report.diagnostics}


def analyze_text(text: str, registry=None) -> ProgramReport:
    return analyze_program(parse_program(text), registry)


class TestSeededBadPrograms:
    def test_unsafe_head_variable_is_an_error(self):
        report = analyze_text("p(X, Y) <- b(X).\nb(X) <- X = 1.")
        assert report.errors()
        (diagnostic,) = report.errors()
        assert diagnostic.code == "unsafe-head-variable"
        assert "Y" in diagnostic.message
        assert diagnostic.predicate == "p"

    def test_interval_bound_head_is_info_not_error(self):
        report = analyze_text("iv(X) <- X >= 3 & X <= 9.")
        assert not report.errors()
        assert "interval-bound-head-variable" in codes(report)

    def test_unstratified_negation_is_an_error(self):
        report = analyze_text(
            "reach(X, Y) <- edge(X, Y).\n"
            "reach(X, Z) <- not(in(Y, geo:blocked(Y))) & reach(X, Y) & edge(Y, Z).\n"
            "edge(X, Y) <- X = 1 & Y = 2."
        )
        assert report.errors()
        assert "unstratified-negation" in {d.code for d in report.errors()}

    def test_nonrecursive_negated_guard_is_only_info(self):
        report = analyze_text(
            "ok(X) <- not(in(X, geo:blocked(X))) & base(X).\nbase(X) <- X = 1."
        )
        assert not report.errors()
        assert "negated-external-guard" in codes(report)
        assert report.negated_guard_conjuncts == 1

    def test_unknown_domain_needs_a_registry(self):
        text = "p(X) <- in(X, nosuch:stock())."
        assert not analyze_text(text).errors()  # registry-free: conservative
        report = analyze_text(text, DomainRegistry())
        assert "unknown-domain" in {d.code for d in report.errors()}

    def test_unknown_function_and_declared_arity_mismatch(self):
        domain = Domain("wh")
        domain.register("stock", lambda: frozenset({1}), arity=0)
        registry = DomainRegistry([domain])
        report = analyze_text("p(X) <- in(X, wh:nosuch()).", registry)
        assert "unknown-function" in {d.code for d in report.errors()}
        report = analyze_text("p(X) <- in(X, wh:stock(X)).", registry)
        assert "domain-arity-mismatch" in {d.code for d in report.errors()}

    def test_call_site_arity_conflict_is_registry_free(self):
        report = analyze_text(
            "p(X) <- in(X, wh:stock()).\nq(X) <- in(X, wh:stock(X))."
        )
        assert "domain-arity-conflict" in {d.code for d in report.errors()}

    def test_unsatisfiable_constraints_warn(self):
        report = analyze_text("p(X) <- X >= 5 & X <= 3.")
        assert not report.errors() and report.warnings()
        assert "unsatisfiable-constraint" in {d.code for d in report.warnings()}
        report = analyze_text("p(X) <- X = 1 & X = 2.")
        assert "unsatisfiable-constraint" in {d.code for d in report.warnings()}

    def test_type_conflict_warns(self):
        report = analyze_text("p(X) <- X = 1.\np(X) <- X = 'a'.")
        assert "type-conflict" in {d.code for d in report.warnings()}
        assert report.signatures[("p", 0)] == "mixed"


class TestShippedWorkloadsAreClean:
    @pytest.mark.parametrize(
        "spec",
        [
            make_layered_program(
                base_facts=4, layers=2, predicates_per_layer=2, fanin=2, seed=7
            ),
            make_chain_program(base_facts=3, depth=3),
            make_interval_program(
                predicates=2, intervals_per_predicate=2, width=30, seed=7
            ),
            make_interval_join_program(
                ground_facts=3, intervals_per_predicate=2, pairs=2, width=24, seed=7
            ),
            make_transitive_closure_program((("a", "b"), ("b", "c"))),
        ],
        ids=["layered", "chain", "interval", "interval_join", "tc"],
    )
    def test_synthetic_workloads_pass_strict(self, spec):
        report = analyze_program(spec.program)
        assert not report.errors() + report.warnings(), [
            d.render() for d in report.diagnostics
        ]

    def test_law_enforcement_passes_strict_against_its_registry(self):
        scenario = make_law_enforcement_scenario()
        report = scenario.mediator.report
        assert not report.errors() + report.warnings(), [
            d.render() for d in report.diagnostics
        ]
        # The external-closure table names the scenario's domains.
        assert set(report.external_closures)
        # Raw rules without a registry are also clean (conservative checks).
        report = analyze_text(LAW_ENFORCEMENT_RULES)
        assert not report.errors() + report.warnings()


class TestClosureTables:
    def test_write_closures_match_the_runtime_walk(self):
        program = parse_program(CLEAN_RULES)
        report = analyze_program(program)
        edges = program.predicate_dependency_edges()
        for predicate in report.predicates:
            seen, frontier = {predicate}, [predicate]
            while frontier:
                for successor in edges.get(frontier.pop(), ()):
                    if successor not in seen:
                        seen.add(successor)
                        frontier.append(successor)
            assert report.write_closures[predicate] == seen

    def test_read_closures_contain_write_closures(self):
        report = analyze_text(CLEAN_RULES)
        for predicate in report.predicates:
            assert report.read_closures[predicate] >= report.write_closures[
                predicate
            ]
        # b's rebuild may read a's body inputs: b itself feeds a.
        assert report.read_closures["b"] >= {"a", "b", "c"}

    def test_interval_positions_are_found_and_inherited(self):
        report = analyze_text("iv(X) <- X >= 3 & X <= 9.\nup(X) <- iv(X).")
        assert ("iv", 0) in report.interval_positions
        assert ("up", 0) in report.interval_positions  # inherited via the body
        ground = analyze_text("g(X) <- X = 4.\nh(X) <- g(X).")
        assert ground.interval_positions == frozenset()

    def test_stratum_matches_components(self):
        report = analyze_text(CLEAN_RULES)
        for index, component in enumerate(report.components):
            for predicate in component:
                assert report.stratum[predicate] == index


class TestAnalyzeCli:
    def run(self, *argv):
        stream = io.StringIO()
        code = cli_main(list(argv), stream=stream)
        return code, stream.getvalue()

    @pytest.fixture
    def write_rules(self, tmp_path):
        def _write(text):
            path = tmp_path / "rules.pl"
            path.write_text(text, encoding="utf-8")
            return str(path)

        return _write

    def test_clean_program_exits_zero(self, write_rules):
        code, output = self.run("analyze", write_rules(CLEAN_RULES))
        assert code == 0
        assert "0 errors" in output

    def test_errors_exit_one(self, write_rules):
        code, output = self.run("analyze", write_rules("p(X, Y) <- b(X)."))
        assert code == 1
        assert "unsafe-head-variable" in output

    def test_strict_promotes_warnings(self, write_rules):
        path = write_rules("p(X) <- X >= 5 & X <= 3.")
        assert self.run("analyze", path)[0] == 0
        code, output = self.run("analyze", path, "--strict")
        assert code == 1
        assert "unsatisfiable-constraint" in output

    def test_strict_compares_numbers_exactly(self, write_rules):
        # 2**53 + 1 rounds onto 2**53 as a float: the clause is solvable.
        path = write_rules("p(X) <- X = 9007199254740993 & X > 9007199254740992.")
        code, output = self.run("analyze", path, "--strict")
        assert code == 0, output
        assert "0 warnings" in output
        path = write_rules("p(X) <- X = 9007199254740992 & X > 9007199254740992.")
        code, output = self.run("analyze", path, "--strict")
        assert code == 1
        assert "outside its ordering bounds" in output

    def test_parse_error_exits_two(self, write_rules):
        code, _ = self.run("analyze", write_rules("p(X <- 3."))
        assert code == 2

    def test_json_output_round_trips(self, write_rules):
        code, output = self.run("analyze", write_rules(CLEAN_RULES), "--json")
        assert code == 0
        payload = json.loads(output)
        assert payload["severity_counts"]["error"] == 0
        assert set(payload["write_closures"]) == {"a", "b", "c"}


class TestAdoption:
    def test_builder_fails_fast_on_unsafe_heads(self):
        with pytest.raises(MediatorError, match="unsafe-head-variable"):
            MediatorBuilder().with_rules("p(X, Y) <- b(X).\nb(X) <- X = 1.").build()

    def test_builder_fails_fast_on_unstratified_negation(self):
        with pytest.raises(MediatorError, match="unstratified-negation"):
            MediatorBuilder().with_rules(
                "r(X) <- not(in(X, geo:blocked(X))) & r(X).\nr(X) <- X = 1."
            ).build()

    def test_builder_stays_permissive_about_registry_gaps(self):
        # Unknown domains are diagnostics, not build failures: builders
        # routinely assemble programs before all sources are attached.
        mediator = (
            MediatorBuilder().with_rules("p(X) <- in(X, later:stock()).").build()
        )
        # The gap is still *reported* -- just not fatal to construction.
        assert "unknown-domain" in {d.code for d in mediator.report.errors()}

    def test_mediator_and_scheduler_expose_the_report(self):
        from repro.stream import StreamScheduler

        program = parse_program(CLEAN_RULES)
        mediator = MediatorBuilder().with_rules(CLEAN_RULES).build()
        assert isinstance(mediator.report, ProgramReport)
        solver = ConstraintSolver()
        scheduler = StreamScheduler(
            program, solver, view=compute_tp_fixpoint(program, solver)
        )
        assert isinstance(scheduler.report, ProgramReport)
        assert scheduler.report.write_closures == mediator.report.write_closures
