"""Derivation supports (Section 3.1.2 of the paper).

Each constrained atom in a materialized view built under duplicate semantics
is "indexed" by the *support* of its derivation: the clause number of the
clause that produced it, followed by the supports of the body atoms used,
i.e. ``spt(A) = <Cn(C), spt(B1), ..., spt(Bk)>``.

Lemma 1 of the paper: two constraint atoms with the same support are the same
atom -- supports uniquely identify derivations.  The Straight Delete
algorithm (Algorithm 2) uses supports to find exactly the view entries whose
derivation used a deleted entry, which is what lets it skip DRed's
rederivation step.

A fact inserted by Algorithm 3 was produced by no program clause: its leaf
carries, as *origin*, the text of the ``Add`` atom it inserted
(:func:`repro.maintenance.common.external_support`, the one place such a
leaf is built), so the lemma holds for inserted facts too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.errors import ProgramError


@dataclass(frozen=True)
class Support:
    """A derivation tree recorded as nested clause numbers."""

    clause_number: int
    children: Tuple["Support", ...] = field(default_factory=tuple)
    #: What an inserted fact's leaf inserted (``None`` on every other support).
    origin: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.clause_number, int) or self.clause_number < 0:
            raise ProgramError(
                f"support clause number must be a non-negative int: {self.clause_number!r}"
            )
        object.__setattr__(self, "children", tuple(self.children))
        for child in self.children:
            if not isinstance(child, Support):
                raise ProgramError(f"support child is not a Support: {child!r}")
        if self.origin is not None and (self.children or not isinstance(self.origin, str)):
            raise ProgramError(f"only a leaf has an origin, a string: {self.origin!r}")
        # Supports key the view's per-support and child-support tables, which
        # hash every key on every operation: computed here, once, from the
        # children's stored hashes instead of recursively per lookup.
        object.__setattr__(
            self, "_hash", hash((self.clause_number, self.children, self.origin))
        )

    def __hash__(self) -> int:
        return self._hash

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def is_leaf(self) -> bool:
        """True for supports of base derivations (facts / body-free clauses)."""
        return not self.children

    def __str__(self) -> str:
        if not self.children:
            origin = "" if self.origin is None else f": {self.origin}"
            return f"<{self.clause_number}{origin}>"
        inner = ", ".join(str(child) for child in self.children)
        return f"<{self.clause_number}, {inner}>"


def leaf(clause_number: int) -> Support:
    """Support of a derivation that used a single body-free clause."""
    return Support(clause_number)


def derived(clause_number: int, premises: Tuple[Support, ...]) -> Support:
    """Support of a derivation by *clause_number* from premise supports."""
    return Support(clause_number, tuple(premises))
