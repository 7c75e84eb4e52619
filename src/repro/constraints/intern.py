"""Hash-consing substrate for the constraint language.

Every term and constraint node is *interned* at construction: the class's
``__new__`` builds a structural key (whose elements are themselves already
interned, so hashing is a few cached-int mixes and equality is pointer
comparison) and consults a per-class :class:`InternTable`.  Structurally
equal nodes therefore ARE the same Python object, ``__eq__`` degenerates to
identity, and every hash is computed exactly once, at construction.

This is the discipline decision-diagram libraries (the ddd/sdd CTL-checker
exemplar) use to make fixpoint comparison O(1); here it makes view-entry
keys, solver memo probes and maintenance dedup pointer lookups.

Thread-safety and lifetime:

* Each table holds a :class:`weakref.WeakValueDictionary` guarded by one
  lock.  The critical section is a dict probe plus, on a miss, allocating
  the node -- builders never re-enter the same table (children are interned
  *before* the key exists), so the lock order is trivially acyclic and the
  serve layer's read threads and its writer thread can construct from any
  thread.
* Entries are weak: a node lives exactly as long as something outside the
  table references it.  Per-node memo slots (canonical form, satisfiability,
  simplification -- see :mod:`repro.constraints.ast`) share that lifetime,
  which is the size policy that replaced the old module-global
  ``_CANONICAL_CACHE``: drop the last reference to a constraint and every
  cached fact about it goes too.

Statistics: each table counts hits/misses under its lock (exact); the
module-level :data:`EVENTS` counters (identity short-circuits, canonical
memo traffic) are plain ints bumped without a lock -- under the GIL a rare
lost increment is acceptable for telemetry, and the benchmark harness runs
single-threaded where they are exact.
"""

from __future__ import annotations

import threading
import weakref
from typing import Callable, Dict, Hashable, TypeVar

_NodeT = TypeVar("_NodeT")


class InternTable:
    """One weak-valued hash-consing table (one per node class)."""

    __slots__ = ("name", "_lock", "_nodes", "hits", "misses")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._nodes: "weakref.WeakValueDictionary[Hashable, object]" = (
            weakref.WeakValueDictionary()
        )
        self.hits = 0
        self.misses = 0

    def intern(self, key: Hashable, build: Callable[[], _NodeT]) -> _NodeT:
        """Return the canonical node for *key*, building it on first use.

        *build* must allocate the node and fully initialise its slots; it is
        called under the table lock (it performs no interning itself -- the
        key's children are interned before the call) so that two threads
        racing on the same key observe exactly one canonical node.
        """
        with self._lock:
            node = self._nodes.get(key)
            if node is not None:
                self.hits += 1
                return node  # type: ignore[return-value]
            node = build()
            self._nodes[key] = node
            self.misses += 1
            return node

    def __len__(self) -> int:
        return len(self._nodes)


#: Registry of every intern table, keyed by its metrics label.
_TABLES: Dict[str, InternTable] = {}
_TABLES_LOCK = threading.Lock()


def table(name: str) -> InternTable:
    """Create-or-get the intern table labelled *name* (import-time only)."""
    with _TABLES_LOCK:
        existing = _TABLES.get(name)
        if existing is None:
            existing = _TABLES[name] = InternTable(name)
        return existing


class _EventCounters:
    """Lock-free telemetry for identity fast paths and canonical memos."""

    __slots__ = (
        "identity_subsumptions",
        "identity_subtractions",
        "canonical_hits",
        "canonical_misses",
        "sat_node_hits",
        "simplify_node_hits",
    )

    def __init__(self) -> None:
        self.identity_subsumptions = 0
        self.identity_subtractions = 0
        self.canonical_hits = 0
        self.canonical_misses = 0
        self.sat_node_hits = 0
        self.simplify_node_hits = 0

    def as_dict(self) -> Dict[str, int]:
        return {slot: getattr(self, slot) for slot in self.__slots__}


#: Process-global event counters (see module docstring for accuracy notes).
EVENTS = _EventCounters()


def intern_stats() -> Dict[str, object]:
    """Snapshot of every intern table plus the event counters.

    Shape::

        {"tables": {name: {"hits": int, "misses": int, "size": int}},
         "events": {...},
         "hits": int, "misses": int, "size": int}   # totals
    """
    tables: Dict[str, Dict[str, int]] = {}
    total_hits = total_misses = total_size = 0
    with _TABLES_LOCK:
        registry = dict(_TABLES)
    for name, entry in sorted(registry.items()):
        with entry._lock:
            hits, misses, size = entry.hits, entry.misses, len(entry)
        tables[name] = {"hits": hits, "misses": misses, "size": size}
        total_hits += hits
        total_misses += misses
        total_size += size
    return {
        "tables": tables,
        "events": EVENTS.as_dict(),
        "hits": total_hits,
        "misses": total_misses,
        "size": total_size,
    }
