"""Quickstart: materialize a constrained view and maintain it incrementally.

This walks through the paper's Examples 4 and 5 using the public API:

1. build a constrained database (four clauses over a numeric constraint),
2. materialize the mediated view with the ``T_P`` fixpoint (every entry is a
   non-ground constrained atom carrying the support of its derivation),
3. delete ``b(X) <- X = 6`` with the Straight Delete algorithm (Algorithm 2,
   no rederivation), and
4. insert a constrained atom and watch the insertion propagate upward.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.mediator import DeletionAlgorithm, Mediator

RULES = """
a(X) <- X >= 3.
a(X) <- b(X).
b(X) <- X >= 5.
c(X) <- a(X).
"""

UNIVERSE = range(0, 12)


def show(title: str, view) -> None:
    """Print a view with its supports, then its ground instances."""
    print(f"--- {title} ---")
    for entry in view.entries():
        print(f"  {entry}")
    for predicate in ("a", "b", "c"):
        values = sorted(value for (value,) in view.query(predicate, universe=UNIVERSE))
        print(f"  [{predicate}] = {values}")
    print()


def main() -> None:
    mediator = Mediator.from_rules(RULES)

    # 1-2. Materialize the mediated view by unfolding the rules (T_P ↑ ω).
    view = mediator.materialize()
    show("initial materialized view (Example 5's table)", view)

    # 3. Delete b(X) <- X = 6 with StDel: the affected entries are narrowed
    #    in place by following supports; no rederivation happens.
    stats = view.delete("b(X) <- X = 6", algorithm=DeletionAlgorithm.STDEL).stats.totals()
    print(f"StDel replaced {stats.replaced_entries} entries, "
          f"removed {stats.removed_entries}, "
          f"P_OUT size {stats.seed_atoms + stats.unfolded_atoms}")
    show("after deleting b(X) <- X = 6 (note: a keeps 6 via the X >= 3 rule)", view)

    # 4. Insert a constrained atom: b gains the interval [0, 2] and the
    #    insertion propagates to a and c through the rules.
    insertion = view.insert("b(X) <- X >= 0 & X <= 2").stats.totals()
    print(f"insertion added {insertion.rederived_entries} view entries")
    show("after inserting b(X) <- 0 <= X <= 2", view)


if __name__ == "__main__":
    main()
