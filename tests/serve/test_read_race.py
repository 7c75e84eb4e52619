"""Reads racing a source change: the per-source call memo and the instance
memo must never serve a result computed under a version that has passed."""

from __future__ import annotations

import asyncio
import sys

from repro.serve import ServeOptions
from repro.stream import ExternalChangeNotice
from repro.workloads import make_law_enforcement_scenario

READERS = 4
TOGGLES = 15  # odd: the race ends with the row gone


def test_reads_racing_one_employee_toggle():
    scenario = make_law_enforcement_scenario(num_people=10, photo_count=6)
    table = scenario.dbase.database.table("empl_abc")

    def truth() -> frozenset:
        employed = {row["name"] for row in table.rows()}
        return frozenset(
            pair for pair in scenario.expected_suspects() if pair[1] in employed
        )

    with_row = truth()
    person = sorted(with_row)[0][1]
    without_row = frozenset(pair for pair in with_row if pair[1] != person)
    assert without_row < with_row

    def toggle() -> None:
        if table.delete_eq("name", person) == 0:
            table.insert((person, "analyst"))

    async def main():
        service = scenario.mediator.serve(ServeOptions(read_workers=READERS))
        answers = []
        writing = True

        async def reader():
            while writing:
                answers.append(await service.query("suspect"))

        async def writer():
            nonlocal writing
            try:
                for _ in range(TOGGLES):
                    # The row changes on another thread, under the reads ...
                    await asyncio.to_thread(toggle)
                    # ... and the notice follows, as the change log sends it.
                    await service.submit(ExternalChangeNotice("dbase"))
                    await asyncio.sleep(0.01)
            finally:
                writing = False

        async with service:
            assert await service.query("suspect") == with_row
            await asyncio.wait_for(
                asyncio.gather(writer(), *(reader() for _ in range(READERS))), 120
            )
            await asyncio.wait_for(service.drained(), 30)
            settled = await service.query("suspect")
        return answers, settled

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        answers, settled = asyncio.run(main())
    finally:
        sys.setswitchinterval(interval)
    # A read that straddles a toggle may see either state call by call, so
    # mid-race only the bounds hold: nobody else's pair is ever lost, and
    # nothing appears that the row's presence does not explain.
    assert len(answers) >= READERS
    for answer in answers:
        assert without_row <= answer <= with_row
    # Once the last notice is flushed the answer is the table's.
    assert settled == truth() == without_row
