"""Unit tests for the rule/constraint text parser."""

from __future__ import annotations

import pytest

from repro.constraints import (
    Comparison,
    Constant,
    Membership,
    NegatedConjunction,
    Variable,
)
from repro.datalog import (
    parse_atom,
    parse_clause,
    parse_constrained_atom,
    parse_constraint,
    parse_program,
)
from repro.errors import ParseError

X, Y = Variable("X"), Variable("Y")


class TestTermsAndAtoms:
    def test_parse_atom_with_mixed_terms(self):
        atom = parse_atom("seenwith(X, 'Don Corleone')")
        assert atom.predicate == "seenwith"
        assert atom.args == (X, Constant("Don Corleone"))

    def test_lowercase_identifier_is_constant(self):
        atom = parse_atom("p(foo, Bar)")
        assert atom.args == (Constant("foo"), Variable("Bar"))

    def test_numbers_and_booleans(self):
        atom = parse_atom("p(3, 4.5, -2, true)")
        assert atom.args == (Constant(3), Constant(4.5), Constant(-2), Constant(True))

    def test_underscore_variable(self):
        assert parse_atom("p(_x)").args == (Variable("_x"),)

    def test_zero_arity(self):
        assert parse_atom("alarm").predicate == "alarm"

    def test_double_quoted_strings(self):
        assert parse_atom('p("name")').args == (Constant("name"),)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_atom("p(X) extra")


class TestConstraints:
    def test_comparisons(self):
        constraint = parse_constraint("X >= 3 & X != 6")
        parts = list(constraint.conjuncts())
        assert parts[0] == Comparison(X, ">=", Constant(3))
        assert parts[1] == Comparison(X, "!=", Constant(6))

    def test_all_operators(self):
        for op in ("=", "!=", "<", "<=", ">", ">="):
            parsed = parse_constraint(f"X {op} 1")
            assert isinstance(parsed, Comparison) and parsed.op == op

    def test_membership(self):
        constraint = parse_constraint("in(A, paradox:select_eq('phonebook', 'name', X))")
        assert isinstance(constraint, Membership)
        assert constraint.call.domain == "paradox"
        assert constraint.call.function == "select_eq"
        assert constraint.call.args == (Constant("phonebook"), Constant("name"), X)

    def test_negated_conjunction(self):
        # The atom names Y, so Y is outer and both conjuncts stay negated.
        constraint = parse_constrained_atom("p(X, Y) <- X >= 5 & not(X = 6 & Y = 2)").constraint
        negations = [p for p in constraint.conjuncts() if isinstance(p, NegatedConjunction)]
        assert len(negations) == 1
        assert len(negations[0].parts) == 2

    def test_a_negation_is_scoped_where_it_is_parsed(self):
        # Only the negation names Y: Y is local to it, and ``Y = 2`` always
        # has a witness, so not(X = 6 & Y = 2) reads as not(X = 6).
        constraint = parse_constraint("X >= 5 & not(X = 6 & Y = 2)")
        assert str(constraint) == "X >= 5 & not(X = 6)"
        # A clause's head and body atoms name outer variables too.
        assert str(parse_clause("q(Y) <- not(Y = 5).").constraint) == "not(Y = 5)"
        assert str(parse_clause("q(X) <- r(Y) & not(Y = 5).").constraint) == "not(Y = 5)"
        assert str(parse_clause("q(X) <- r(X) & not(Y = 5).").constraint) == "false"

    def test_true_false_literals(self):
        assert str(parse_constraint("true & X = 1")) == "X = 1"
        assert str(parse_constraint("false")) == "false"

    def test_comma_as_conjunction(self):
        constraint = parse_constraint("X >= 1, X <= 5")
        assert len(list(constraint.conjuncts())) == 2

    def test_atom_in_constraint_position_rejected(self):
        with pytest.raises(ParseError):
            parse_constraint("p(X)")

    def test_atom_inside_not_rejected(self):
        with pytest.raises(ParseError):
            parse_constraint("not(p(X))")


class TestClausesAndPrograms:
    def test_fact_clause(self):
        clause = parse_clause("b(X) <- X >= 5.")
        assert clause.is_fact_clause
        assert str(clause.constraint) == "X >= 5"

    def test_rule_with_body_only(self):
        clause = parse_clause("c(X) <- a(X).")
        assert clause.body_predicates() == ("a",)
        assert str(clause.constraint) == "true"

    def test_rule_with_constraint_and_body(self):
        clause = parse_clause("s(X, Y) <- in(T, dbase:select_eq('e', 'n', Y)) || w(X, Y).")
        assert clause.body_predicates() == ("w",)
        assert isinstance(clause.constraint, Membership)

    def test_mixed_order_constraint_and_atoms(self):
        clause = parse_clause("s(X) <- a(X) & X >= 2 & b(X).")
        assert clause.body_predicates() == ("a", "b")
        assert str(clause.constraint) == "X >= 2"

    def test_period_optional_for_single_clause(self):
        assert parse_clause("a(X) <- X >= 1").predicate == "a"

    def test_program_parsing_with_comments(self):
        program = parse_program(
            """
            % numeric example
            a(X) <- X >= 3.     # inline comment
            a(X) <- b(X).
            b(X) <- X >= 5.
            """
        )
        assert len(program) == 3
        assert program.clause(3).predicate == "b"

    def test_program_requires_periods(self):
        with pytest.raises(ParseError):
            parse_program("a(X) <- X >= 3\nb(X) <- X >= 5.")

    def test_constrained_atom(self):
        catom = parse_constrained_atom("b(X) <- X = 6")
        assert catom.predicate == "b"
        assert str(catom.constraint) == "X = 6"

    def test_constrained_atom_without_constraint(self):
        catom = parse_constrained_atom("alarm")
        assert str(catom.constraint) == "true"

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            parse_program("a(X) <- X ~ 3.")

    def test_unterminated_args(self):
        with pytest.raises(ParseError):
            parse_atom("p(X")

    def test_law_enforcement_rules_parse(self):
        from repro.workloads import LAW_ENFORCEMENT_RULES

        program = parse_program(LAW_ENFORCEMENT_RULES)
        assert program.predicates() == ("seenwith", "suspect", "swlndc")
        suspect_clause = program.clauses_for("suspect")[0]
        assert suspect_clause.body_predicates() == ("swlndc",)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            "a(X) <- X >= 3.",
            "b(X) <- X >= 5 & X != 6.",
            "p(X, Y) <- X = 'a' & Y = 'b'.",
            "a(X, Y) <- p(X, Z), a(Z, Y).",
            "s(X) <- in(A, d:f('t', X)) || q(X).",
        ],
    )
    def test_parse_str_parse_is_stable(self, text):
        first = parse_clause(text)
        second = parse_clause(str(first).split("] ", 1)[-1] + ".")
        assert second.head == first.head
        assert second.body == first.body
        assert str(second.constraint) == str(first.constraint)
