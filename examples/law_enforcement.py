"""The law-enforcement mediator (paper Example 1 / Figure 1), end to end.

The mediator integrates five heterogeneous sources -- a face-extraction
package, a background face database, a PARADOX phone/address book, a spatial
data manager and a DBASE employee list -- to answer: *who has been seen with
Don Corleone, lives within 100 miles of Washington DC, and works for the
front company "ABC Corp"?*

The script then exercises all three kinds of updates the paper studies:

* **atom deletion** (Example 3): the photograph placing John with the Don is
  found to be a forgery, so ``seenwith('Don Corleone', John)`` is deleted
  from the view, and the derived ``swlndc`` / ``suspect`` facts disappear
  with it -- without recomputing the view;
* **atom insertion**: a policeman reports having seen a new pair together,
  which is inserted even though no photograph supports it -- unfolded
  against the program the deletion rewrote, so the forged pair's
  consequences stay deleted;
* **external change**: new surveillance photographs arrive
  (``facextract:segmentface`` now returns more faces); under the ``W_P``
  reading the materialized view needs **no maintenance at all** -- the next
  query simply sees the new suspects.

Run with::

    python examples/law_enforcement.py
"""

from __future__ import annotations

from repro.mediator import DeletionAlgorithm
from repro.workloads import make_law_enforcement_scenario


def kingpin_suspects(view, kingpin: str):
    """The answers to the paper's query suspect(kingpin, Y)."""
    return sorted(person for witness, person in view.query("suspect") if witness == kingpin)


def main() -> None:
    scenario = make_law_enforcement_scenario(
        num_people=12, photo_count=8, people_per_photo=3, seed=7
    )
    mediator = scenario.mediator
    print("Integrated domains:", ", ".join(mediator.registry.domain_names()))
    print("Mediator rules:")
    for clause in mediator.program:
        print(f"  [{clause.number}] {clause.head} <- ...")
    print()

    # Materialize by unfolding the view definition (W_P: solvability of the
    # domain-call constraints is deferred to query time).
    view = mediator.materialize(operator="wp")
    print(f"Materialized mediated view: {len(view)} non-ground entries")

    suspects = kingpin_suspects(view, scenario.kingpin)
    print(f"suspect({scenario.kingpin!r}, Y) = {suspects}")
    assert suspects == [p for _, p in scenario.expected_kingpin_suspects()]
    print()

    # ------------------------------------------------------------------
    # Update of the first kind: deletion (Example 3 -- the forged photo).
    # ------------------------------------------------------------------
    if suspects:
        framed = suspects[0]
        print(f"External evidence: the photo of {framed!r} with the Don is a forgery.")
        stats = view.delete(
            f"seenwith(X, Y) <- X = '{scenario.kingpin}' & Y = '{framed}'",
            algorithm=DeletionAlgorithm.STDEL,
        ).stats.totals()
        print(
            f"  StDel touched {stats.replaced_entries} entries "
            f"(no rederivation step was needed)"
        )
        print(f"  suspects now: {kingpin_suspects(view, scenario.kingpin)}")
        print()

    # ------------------------------------------------------------------
    # Update of the first kind: insertion (the policeman's report).
    # ------------------------------------------------------------------
    witness = scenario.people[1]
    reported = scenario.people[2]
    print(f"A policeman reports seeing {reported!r} with {witness!r}.")
    insertion = view.insert(f"seenwith(X, Y) <- X = '{witness}' & Y = '{reported}'")
    print(f"  insertion added {insertion.stats.totals().rederived_entries} entries")
    print(f"  seenwith now contains the reported pair: "
          f"{(witness, reported) in view.query('seenwith')}")
    print()

    # ------------------------------------------------------------------
    # Update of the second kind: the surveillance dataset grows.
    # ------------------------------------------------------------------
    before = set(view.query("suspect"))
    new_companions = [
        person
        for person in scenario.near_dc
        if person in scenario.abc_employees
    ][:2]
    if new_companions:
        print(f"New surveillance photo shows the Don with {new_companions}.")
        scenario.face_scenario.add_photo(
            "surveillancedata", [scenario.kingpin] + new_companions
        )
        # W_P: no maintenance action at all -- just query again.
        after = set(view.query("suspect"))
        gained = sorted(after - before)
        print(f"  without any view maintenance, the next query gains: {gained}")


if __name__ == "__main__":
    main()
