"""In-memory relational engine.

Simulates the relational sources HERMES integrates (PARADOX, DBASE, INGRES):
typed tables with hash indexes, a database catalog and change logging for
version diffs.  The mediator reaches a table only through the relational
domain's equality selections (``Table.select_eq``).
"""

from repro.reldb.changelog import Change, ChangeKind, ChangeLog
from repro.reldb.database import Database
from repro.reldb.index import HashIndex
from repro.reldb.rows import Row
from repro.reldb.schema import Column, Schema
from repro.reldb.table import Table

__all__ = [
    "Change",
    "ChangeKind",
    "ChangeLog",
    "Column",
    "Database",
    "HashIndex",
    "Row",
    "Schema",
    "Table",
]
