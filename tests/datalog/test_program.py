"""Unit tests for constrained databases (programs)."""

from __future__ import annotations

import pytest

from repro.constraints import TRUE, Variable, compare
from repro.datalog import Atom, Clause, ConstrainedDatabase, parse_program
from repro.errors import ProgramError

X = Variable("X")


def simple_program() -> ConstrainedDatabase:
    return parse_program(
        """
        a(X) <- X >= 3.
        a(X) <- b(X).
        b(X) <- X >= 5.
        c(X) <- a(X).
        """
    )


class TestNumbering:
    def test_auto_numbering_in_order(self):
        program = simple_program()
        assert [clause.number for clause in program] == [1, 2, 3, 4]

    def test_explicit_numbers_preserved(self):
        clause = Clause(Atom("p", (X,)), TRUE, (), number=10)
        program = ConstrainedDatabase([clause, Clause(Atom("q", (X,)), TRUE, ())])
        assert program.clause(10).predicate == "p"
        assert program.clause(1).predicate == "q"

    def test_duplicate_numbers_rejected(self):
        clause = Clause(Atom("p", (X,)), TRUE, (), number=1)
        with pytest.raises(ProgramError):
            ConstrainedDatabase([clause, clause])

    def test_max_clause_number(self):
        assert simple_program().max_clause_number() == 4
        assert ConstrainedDatabase().max_clause_number() == 0


class TestLookup:
    def test_clause_by_number(self):
        program = simple_program()
        assert program.clause(3).predicate == "b"
        assert program.has_clause(3)
        assert not program.has_clause(9)
        with pytest.raises(ProgramError):
            program.clause(9)

    def test_clauses_for_predicate(self):
        program = simple_program()
        assert len(program.clauses_for("a")) == 2
        assert program.clauses_for("zzz") == ()

    def test_predicates(self):
        program = simple_program()
        assert program.predicates() == ("a", "b", "c")
        assert program.body_predicates() == ("a", "b")

    def test_container_protocol(self):
        program = simple_program()
        assert len(program) == 4
        assert program.clause(1) in program
        assert "a(X) <- X >= 3" in str(program)


class TestRecursionAnalysis:
    def test_non_recursive(self):
        assert not simple_program().is_recursive()

    def test_recursive(self):
        program = parse_program(
            """
            edge(X, Y) <- X = 1 & Y = 2.
            path(X, Y) <- edge(X, Y).
            path(X, Y) <- edge(X, Z), path(Z, Y).
            """
        )
        assert program.is_recursive()


class TestRewriting:
    def test_map_clauses_keeps_numbers_and_drops_none(self):
        program = simple_program()
        mapped = program.map_clauses(
            lambda clause: None if clause.predicate == "c" else clause
        )
        assert len(mapped) == 3
        assert mapped.clause(3).predicate == "b"

    def test_equality(self):
        assert simple_program() == simple_program()
        assert simple_program() != simple_program().map_clauses(
            lambda clause: None if clause.number == 1 else clause
        )

    def test_appended_clauses_never_reuse_a_number(self):
        trimmed = simple_program().map_clauses(
            lambda clause: None if clause.number == 2 else clause
        )
        extended = trimmed.with_clauses_added(
            [Clause(Atom("d", (X,)), TRUE, ()), Clause(Atom("e", (X,)), TRUE, (Atom("d", (X,)),))]
        )
        assert [clause.number for clause in extended] == [1, 3, 4, 5, 6]
        assert extended.clause(6).predicate == "e"
        assert extended == ConstrainedDatabase(extended.clauses)


def facts_and_rules() -> ConstrainedDatabase:
    return parse_program(
        """
        p(X) <- X = 1.
        p(X) <- X = 2.
        p(X) <- X >= 10.
        p(X, Y) <- X = 1 & Y = 1.
        q(X) <- X = 1.
        r(X) <- p(X), q(X).
        r(X) <- X = 5 || q(X).
        """
    )


def tables(program: ConstrainedDatabase):
    """Everything a from-scratch construction derives from the clause list."""
    return (
        program.clauses,
        {name: program.clauses_for(name) for name in program.predicates()},
        {name: program.clauses_with_body_predicate(name) for name in ("p", "q", "r")},
        program.rule_clauses,
        program.predicate_dependency_edges(),
        program.derivable_predicates(),
        program.variable_names(),
    )


class TestDerivedDatabases:
    """Edits share the parent's structure and agree with a full rebuild."""

    def test_extra_constraints_on_facts_share_everything_else(self):
        program = facts_and_rules()
        program.predicate_dependency_edges(), program.derivable_predicates()
        extra = compare(Variable("W_1"), ">=", 0)
        derived = program.with_extra_constraints({2: extra})
        assert tables(derived) == tables(ConstrainedDatabase(derived.clauses))
        assert str(derived.clause(2)) == "[2] p(X) <- X = 2 & W_1 >= 0"
        for clause in program:
            assert (derived.clause(clause.number) is clause) == (clause.number != 2)
        # No rule changed: the dependency tables are the parent's own.
        assert derived.rule_clauses is program.rule_clauses
        assert derived.clauses_with_body_predicate("q") is (
            program.clauses_with_body_predicate("q")
        )
        assert derived.predicate_dependency_edges() is program.predicate_dependency_edges()
        assert "W_1" in derived.variable_names() and "W_1" not in program.variable_names()
        assert program.with_extra_constraints({}) is program
        with pytest.raises(ProgramError):
            program.with_extra_constraints({99: extra})

    def test_extra_constraints_on_a_rule_update_the_dependency_tables(self):
        program = facts_and_rules()
        edges, derivable = (
            program.predicate_dependency_edges(), program.derivable_predicates()
        )
        derived = program.with_extra_constraints({6: compare(X, "<=", 3)})
        assert tables(derived) == tables(ConstrainedDatabase(derived.clauses))
        assert derived.clause(6) in derived.clauses_with_body_predicate("p")
        assert derived.clause(6) in derived.rule_clauses
        # Narrowing adds no edge and no rule head: the memos carry over.
        assert derived.predicate_dependency_edges() is edges
        assert derived.derivable_predicates() is derivable

    def test_appending_facts_and_rules(self):
        program = facts_and_rules()
        program.predicate_dependency_edges()
        fact = Clause(Atom("p", (X,)), compare(X, "=", 7), ())
        with_fact = program.with_clauses_added((fact,))
        assert tables(with_fact) == tables(ConstrainedDatabase(with_fact.clauses))
        assert with_fact.rule_clauses is program.rule_clauses
        with_rule = with_fact.with_clauses_added(
            [Clause(Atom("s", (X,)), TRUE, (Atom("r", (X,)),))]
        )
        assert tables(with_rule) == tables(ConstrainedDatabase(with_rule.clauses))
        assert with_rule.derivable_predicates() == {"r", "s"}

    def test_head_candidates_are_a_superset_found_by_lookup(self):
        from repro.datalog import parse_constrained_atom

        program = facts_and_rules()

        def numbers(text):
            found = program.head_candidates(parse_constrained_atom(text))
            return [clause.number for clause in found]

        # Pinned: the clause pinned alike plus the ones not pinned there.
        assert numbers("p(X) <- X = 2") == [2, 3]
        assert numbers("p(X) <- X = 12") == [3]
        # Same predicate, other arity: never a candidate.
        assert numbers("p(X, Y) <- X = 1") == [4]
        # Rule heads are not pinned, or pinned by the clause constraint.
        assert numbers("r(X) <- X = 5") == [6, 7]
        assert numbers("r(X) <- X = 4") == [6]
        # Nothing pinned: every clause of the signature.
        assert numbers("p(X) <- X >= 0") == [1, 2, 3]
        assert numbers("zzz(X) <- X = 1") == []

    def test_the_head_index_is_inherited_and_extended(self):
        from repro.datalog import parse_constrained_atom

        program = facts_and_rules()
        two = parse_constrained_atom("p(X) <- X = 2")
        assert [c.number for c in program.head_candidates(two)] == [2, 3]
        narrowed = program.with_extra_constraints({2: compare(X, "!=", 2)})
        assert [c.number for c in narrowed.head_candidates(two)] == [2, 3]
        assert narrowed.head_candidates(two)[0] is narrowed.clause(2)
        extended = narrowed.with_clauses_added((Clause(Atom("p", (X,)), compare(X, "=", 2), ()),))
        assert [c.number for c in extended.head_candidates(two)] == [2, 3, 8]
        # The parents keep answering for themselves.
        assert [c.number for c in program.head_candidates(two)] == [2, 3]
        assert program.head_candidates(two)[0] is program.clause(2)
