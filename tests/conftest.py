"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.constraints import ConstraintSolver
from repro.datalog import compute_tp_fixpoint, parse_program
from repro.domains import Domain, DomainRegistry, make_arithmetic_domain

#: A tier-1 run is a function of the commit: every property test draws the
#: same examples on every run and machine, and no example database carries a
#: failure over from an earlier run.  ``max_examples`` stays per test.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")

#: The paper's Example 4 / Example 5 constrained database.  The scanned paper
#: renders the comparison operators illegibly; the worked example only makes
#: sense with ``>=`` (deleting ``B(X) <- X = 6`` must overlap ``B``'s
#: constraint), which is what the reproduction uses throughout.
EXAMPLE_45_RULES = """
a(X) <- X >= 3.
a(X) <- b(X).
b(X) <- X >= 5.
c(X) <- a(X).
"""

#: The paper's Example 6 recursive constrained database.
EXAMPLE_6_RULES = """
p(X, Y) <- X = 'a' & Y = 'b'.
p(X, Y) <- X = 'a' & Y = 'c'.
p(X, Y) <- X = 'c' & Y = 'd'.
a(X, Y) <- p(X, Y).
a(X, Y) <- p(X, Z), a(Z, Y).
"""

#: Universe large enough to distinguish all constraints in Examples 4/5.
NUMERIC_UNIVERSE = tuple(range(0, 15))


@pytest.fixture
def solver() -> ConstraintSolver:
    """A solver with no external domains."""
    return ConstraintSolver()


@pytest.fixture
def arith_solver() -> ConstraintSolver:
    """A solver that can evaluate ``arith:*`` domain calls."""
    return ConstraintSolver(DomainRegistry([make_arithmetic_domain()]))


@pytest.fixture
def example45_program():
    """The Example 4/5 constrained database."""
    return parse_program(EXAMPLE_45_RULES)


@pytest.fixture
def example45_view(example45_program, solver):
    """The materialized view of Example 5 (with supports)."""
    return compute_tp_fixpoint(example45_program, solver)


@pytest.fixture
def example6_program():
    """The Example 6 recursive constrained database."""
    return parse_program(EXAMPLE_6_RULES)


@pytest.fixture
def example6_view(example6_program, solver):
    """The materialized view of Example 6 (with supports)."""
    return compute_tp_fixpoint(example6_program, solver)


@pytest.fixture
def untracked_sources():
    """``(mediator, shelves, executed)``: two domains, ``book`` and ``shop``,
    whose ``all()`` reads a plain set of *shelves* that no version follows,
    under a mediator-built (call-remembering) registry; ``executed()`` is
    how often each one's function has actually run.  ``listed`` / ``priced``
    are the predicates over them."""
    from repro.mediator import Mediator

    shelves = {"book": {"ann"}, "shop": {"pen"}}
    domains = []
    for name in shelves:
        domain = Domain(name)
        domain.register("all", lambda name=name: set(shelves[name]))
        domains.append(domain)
    mediator = Mediator.from_rules(
        "listed(X) <- in(X, book:all()). priced(X) <- in(X, shop:all()).", domains
    )

    def executed():
        counters = mediator.registry.call_counters()
        return counters["book"]["executed"], counters["shop"]["executed"]

    return mediator, shelves, executed
