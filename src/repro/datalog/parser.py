"""A small text syntax for constrained clauses, atoms and constraints.

The examples, tests and workload generators build constrained databases from
readable rule text instead of assembling AST nodes by hand.  The syntax
follows the paper's notation closely::

    % the law-enforcement mediator (Example 1), abridged
    suspect(X, Y) <- swlndc(X, Y) &
                     in(T, dbase:select_eq('empl_abc', 'name', Y)).

    a(X) <- X >= 3.
    a(X) <- b(X).
    b(X) <- X >= 5.
    c(X) <- a(X).

Rules end with a period.  After ``<-`` the clause body is a ``&``/``,``
separated mixture of *constraint primitives* (comparisons, ``in(...)``
DCA-atoms, ``not(...)`` negated conjunctions, ``true``/``false``) and
*body atoms* (anything that looks like a predicate application).  The
paper's ``||`` separator between the two groups is also accepted and treated
like ``&``.  Identifiers starting with an uppercase letter or ``_`` are
variables; everything else (lower-case identifiers, quoted strings, numbers)
denotes constants.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from repro.constraints.ast import (
    Comparison,
    Constraint,
    DomainCall,
    FALSE,
    Membership,
    NegatedConjunction,
    TRUE,
    conjoin,
)
from repro.constraints.projection import scope_negations
from repro.constraints.terms import Constant, Term, Variable
from repro.datalog.atoms import Atom, ConstrainedAtom
from repro.datalog.clauses import Clause
from repro.datalog.program import ConstrainedDatabase
from repro.errors import ParseError

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>[%\#][^\n]*)
  | (?P<number>-?\d+\.\d+|-?\d+)
  | (?P<string>'[^']*'|"[^"]*")
  | (?P<op><=|>=|!=|\|\||<-|=|<|>|\(|\)|,|\.|&|:)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)

_KEYWORDS = {"in", "not", "true", "false"}


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    position: int


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    index = 0
    while index < len(text):
        match = _TOKEN_RE.match(text, index)
        if match is None:
            raise ParseError(f"unexpected character {text[index]!r} at offset {index}")
        kind = match.lastgroup or ""
        value = match.group()
        index = match.end()
        if kind in ("ws", "comment"):
            continue
        tokens.append(_Token(kind, value, match.start()))
    return tokens


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, text: str) -> None:
        self._text = text
        self._tokens = _tokenize(text)
        self._index = 0

    # -- token stream helpers ------------------------------------------
    def _peek(self, offset: int = 0) -> Optional[_Token]:
        position = self._index + offset
        if position < len(self._tokens):
            return self._tokens[position]
        return None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of input")
        self._index += 1
        return token

    def _expect(self, text: str) -> _Token:
        token = self._next()
        if token.text != text:
            raise ParseError(
                f"expected {text!r} but found {token.text!r} at offset {token.position}"
            )
        return token

    def _at(self, text: str) -> bool:
        token = self._peek()
        return token is not None and token.text == text

    def at_end(self) -> bool:
        return self._peek() is None

    # -- grammar ---------------------------------------------------------
    def parse_program(self) -> ConstrainedDatabase:
        clauses = []
        while not self.at_end():
            clauses.append(self.parse_clause(require_period=True))
        return ConstrainedDatabase(clauses)

    def parse_clause(self, require_period: bool = False) -> Clause:
        head = self.parse_atom()
        constraint_parts: List[Constraint] = []
        body: List[Atom] = []
        if self._at("<-"):
            self._next()
            constraint_parts, body = self._parse_rule_body()
        if self._at("."):
            self._next()
        elif require_period:
            token = self._peek()
            where = f" at offset {token.position}" if token else " at end of input"
            raise ParseError(f"expected '.' to end the clause{where}")
        # A clause scopes its negations: the head, the body atoms and the
        # other conjuncts name the outer variables.
        outer = head.variables().union(*(atom.variables() for atom in body))
        constraint = scope_negations(conjoin(*constraint_parts), outer)
        return Clause(head, constraint, tuple(body))

    def _parse_rule_body(self) -> Tuple[List[Constraint], List[Atom]]:
        constraints: List[Constraint] = []
        body: List[Atom] = []
        while True:
            item = self._parse_body_item()
            if isinstance(item, Atom):
                body.append(item)
            else:
                constraints.append(item)
            if self._at("&") or self._at(",") or self._at("||"):
                self._next()
                continue
            break
        return constraints, body

    def _parse_body_item(self) -> Union[Constraint, Atom]:
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of input in clause body")
        if token.kind == "name" and token.text == "in":
            return self._parse_membership()
        if token.kind == "name" and token.text == "not":
            return self._parse_negation()
        if token.kind == "name" and token.text == "true":
            self._next()
            return TRUE
        if token.kind == "name" and token.text == "false":
            self._next()
            return FALSE
        # Could be a comparison (term op term) or a body atom.
        if self._looks_like_atom():
            return self.parse_atom()
        left = self._parse_term()
        operator = self._next()
        if operator.text not in ("=", "!=", "<", "<=", ">", ">="):
            raise ParseError(
                f"expected a comparison operator at offset {operator.position}, "
                f"found {operator.text!r}"
            )
        right = self._parse_term()
        return Comparison(left, operator.text, right)

    def _looks_like_atom(self) -> bool:
        token = self._peek()
        following = self._peek(1)
        if token is None or token.kind != "name":
            return False
        if token.text in _KEYWORDS:
            return False
        if following is None or following.text != "(":
            return False
        # ``name(`` could still be a comparison operand only if the name were
        # a function call, which the term grammar does not have; treat as atom.
        return True

    def parse_atom(self) -> Atom:
        token = self._next()
        if token.kind != "name" or token.text in _KEYWORDS:
            raise ParseError(
                f"expected a predicate name at offset {token.position}, found {token.text!r}"
            )
        predicate = token.text
        args: List[Term] = []
        if self._at("("):
            self._next()
            if not self._at(")"):
                args.append(self._parse_term())
                while self._at(","):
                    self._next()
                    args.append(self._parse_term())
            self._expect(")")
        return Atom(predicate, tuple(args))

    def _parse_membership(self) -> Membership:
        self._expect("in")
        self._expect("(")
        element = self._parse_term()
        self._expect(",")
        call = self._parse_domain_call()
        self._expect(")")
        return Membership(element, call)

    def _parse_domain_call(self) -> DomainCall:
        domain_token = self._next()
        if domain_token.kind != "name":
            raise ParseError(
                f"expected a domain name at offset {domain_token.position}"
            )
        self._expect(":")
        function_token = self._next()
        if function_token.kind != "name":
            raise ParseError(
                f"expected a function name at offset {function_token.position}"
            )
        args: List[Term] = []
        self._expect("(")
        if not self._at(")"):
            args.append(self._parse_term())
            while self._at(","):
                self._next()
                args.append(self._parse_term())
        self._expect(")")
        return DomainCall(domain_token.text, function_token.text, tuple(args))

    def _parse_negation(self) -> Constraint:
        self._expect("not")
        self._expect("(")
        parts: List[Constraint] = []
        while True:
            item = self._parse_body_item()
            if isinstance(item, Atom):
                raise ParseError("not(...) may only contain constraints, not atoms")
            parts.append(item)
            if self._at("&") or self._at(","):
                self._next()
                continue
            break
        self._expect(")")
        return NegatedConjunction(tuple(parts))

    def _parse_term(self) -> Term:
        token = self._next()
        if token.kind == "number":
            text = token.text
            value: object = float(text) if "." in text else int(text)
            return Constant(value)
        if token.kind == "string":
            return Constant(token.text[1:-1])
        if token.kind == "name":
            if token.text in ("true", "false"):
                return Constant(token.text == "true")
            first = token.text[0]
            if first.isupper() or first == "_":
                return Variable(token.text)
            # Record field access such as ``A.streetnum`` is written with an
            # underscore-free dotted name in the paper; the parser keeps the
            # plain lower-case identifier as a symbolic constant.
            return Constant(token.text)
        raise ParseError(f"expected a term at offset {token.position}, found {token.text!r}")

    def _parse_conjunction(self) -> Constraint:
        """A ``&``-separated constraint, its negations not yet scoped."""
        parts: List[Constraint] = []
        while True:
            item = self._parse_body_item()
            if isinstance(item, Atom):
                raise ParseError("expected a constraint, found a body atom")
            parts.append(item)
            if self._at("&") or self._at(","):
                self._next()
                continue
            break
        return conjoin(*parts)

    def parse_constrained_atom(self) -> ConstrainedAtom:
        atom = self.parse_atom()
        constraint: Constraint = TRUE
        if self._at("<-"):
            self._next()
            constraint = scope_negations(self._parse_conjunction(), atom.variables())
        if self._at("."):
            self._next()
        return ConstrainedAtom(atom, constraint)


# ---------------------------------------------------------------------------
# Public helpers
# ---------------------------------------------------------------------------


def parse_program(text: str) -> ConstrainedDatabase:
    """Parse a multi-clause program into a :class:`ConstrainedDatabase`."""
    parser = _Parser(text)
    program = parser.parse_program()
    return program


def parse_clause(text: str) -> Clause:
    """Parse a single clause (trailing period optional)."""
    parser = _Parser(text)
    clause = parser.parse_clause()
    if not parser.at_end():
        raise ParseError(f"trailing input after clause: {text!r}")
    return clause


def parse_atom(text: str) -> Atom:
    """Parse a single atom such as ``seenwith(X, 'Don Corleone')``."""
    parser = _Parser(text)
    atom = parser.parse_atom()
    if not parser.at_end():
        raise ParseError(f"trailing input after atom: {text!r}")
    return atom


def parse_constraint(text: str) -> Constraint:
    """Parse a constraint expression such as ``X >= 3 & X != 6`` (no atom
    in view: only other conjuncts make a negation's variable outer)."""
    parser = _Parser(text)
    constraint = scope_negations(parser._parse_conjunction(), ())
    if not parser.at_end():
        raise ParseError(f"trailing input after constraint: {text!r}")
    return constraint


def parse_constrained_atom(text: str) -> ConstrainedAtom:
    """Parse ``atom`` or ``atom <- constraint`` into a constrained atom."""
    parser = _Parser(text)
    catom = parser.parse_constrained_atom()
    if not parser.at_end():
        raise ParseError(f"trailing input after constrained atom: {text!r}")
    return catom
