"""The fixpoint operators ``T_P`` (Gabbrielli–Levi) and ``W_P``.

``T_P`` (paper Section 2.3) derives, from an interpretation ``I`` (a set of
constrained atoms), every constrained atom obtainable by one clause
application whose combined constraint is *solvable*.  Iterating from the
empty interpretation yields the non-ground materialized mediated view.

``W_P`` (paper Section 4) is the same operator with the solvability check
removed: derived entries are kept even when their constraint is currently
unsolvable, because solvability may change when external domain functions
change.  Theorem 4: the ``W_P`` view is syntactically invariant under such
changes; Corollary 1: its instances, evaluated at any time point, coincide
with the ``T_P`` view at that time point.

Both operators run under *duplicate semantics*: each derivation produces its
own view entry, indexed by its support.  The engine iterates semi-naively
(each round only considers clause applications using at least one entry that
is new since the previous round), which enumerates every derivation exactly
once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.constraints.solver import ConstraintSolver
from repro.datalog.join import (
    DeltaJoinKernel,
    DeltaRound,
    EngineOptions,
    MAX_FIXPOINT_ROUNDS,
    MAX_VIEW_ENTRIES,
    Seed,
    derived_entry,
    make_fresh_factory,
)
from repro.datalog.program import ConstrainedDatabase
from repro.datalog.view import MaterializedView, ViewEntry
from repro.errors import FixpointDivergenceError


@dataclass
class FixpointStats:
    """Operation counters of one fixpoint computation.

    ``derivation_attempts`` counts premise combinations actually enumerated;
    under semi-naive evaluation it is proportional to the per-round deltas
    (``O(|Δ| · |view|^(k-1))`` per clause of body arity ``k``), not to the
    full ``O(|view|^k)`` Cartesian product a naive round would consider.
    """

    #: Rounds executed until the fixpoint was reached.
    iterations: int = 0
    #: Premise combinations enumerated (clause applications attempted).
    derivation_attempts: int = 0
    #: Entries actually added to the view.
    entries_added: int = 0
    #: Clause evaluations skipped by the body-predicate dependency index
    #: (clause considered in a round times no body predicate had a delta).
    clauses_skipped: int = 0
    #: Argument-index probes issued by the hash-join enumeration.
    index_probes: int = 0
    #: Clause applications and the solvability checks they ran.  The join
    #: kernel counts them for every caller; :meth:`merge_into` leaves them
    #: out, as DRed has never reported its rederivation's checks.
    clause_applications: int = 0
    solver_calls: int = 0
    #: Per-round delta sizes (number of entries new since the last round).
    round_delta_sizes: List[int] = field(default_factory=list)
    #: Per-round derivation attempts (aligned with ``round_delta_sizes``).
    round_attempts: List[int] = field(default_factory=list)

    def merge_into(self, stats) -> None:
        """Fold this computation's counters into a ``MaintenanceStats``.

        The maintenance algorithms embed fixpoint computations (DRed's
        rederivation, batched recomputation baselines) and report the engine
        counters under their own stats object; this is the single place that
        mapping lives.
        """
        stats.fixpoint_iterations += self.iterations
        stats.derivation_attempts += self.derivation_attempts
        stats.index_probes += self.index_probes



class FixpointEngine:
    """Computes ``T_P ↑ ω`` / ``W_P ↑ ω`` for a constrained database."""

    def __init__(
        self,
        program: ConstrainedDatabase,
        solver: Optional[ConstraintSolver] = None,
        options: EngineOptions = EngineOptions(),
        check_solvability: bool = True,
    ) -> None:
        self._program = program
        self._solver = solver or ConstraintSolver()
        self._options = options
        #: The operator: ``T_P`` checks solvability, ``W_P`` (``False``)
        #: does not.  The ``P_OUT`` / ``P_ADD`` unfoldings always check.
        self._check_solvability = check_solvability
        self._stats = FixpointStats()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def stats(self) -> FixpointStats:
        """Counters of the most recent :meth:`compute` / :meth:`step` call."""
        return self._stats

    def compute(
        self,
        initial: Optional[MaterializedView] = None,
        initial_delta: Optional[Sequence[ViewEntry]] = None,
    ) -> MaterializedView:
        """Compute the least fixpoint, optionally seeded with *initial*.

        With no seed this is ``T_P ↑ ω(∅)`` (or ``W_P ↑ ω(∅)``).  With a seed
        it is the inflationary iteration ``T_P ↑ ω(M')`` used by the
        rederivation step of the Extended DRed algorithm.

        *initial_delta*, when given, restricts the round-0 delta to those
        seed entries (they must be members of *initial*; others are ignored).
        Entries outside the delta are treated as already-stable: no clause
        application drawing **all** premises from them is enumerated.  The
        caller asserts that such applications cannot derive anything missing
        from *initial* -- the delta-aware rederivation of Extended DRed
        passes the over-deleted entries plus their direct premises, which is
        exactly the set whose derivations the over-deletion disturbed.
        """
        # Copy-on-write: the computation shares the seed's per-predicate
        # shards and only clones the shards its derivations actually touch,
        # instead of re-indexing the whole seed view entry by entry.
        view = initial.copy() if initial is not None else MaterializedView()
        kernel = self._new_kernel(view)

        # Round 0: body-free clauses, plus the seed entries, form the delta.
        # Seed entries count as delta (they can fire clauses) but not as
        # *added*: entries_added only counts entries this computation put in.
        delta: List[ViewEntry] = []
        if initial_delta is None:
            delta.extend(view.entries)
        else:
            seen_keys = set()
            for entry in initial_delta:
                key = entry.key()
                if key in seen_keys or entry not in view:
                    continue
                seen_keys.add(key)
                delta.append(entry)
        for entry in self._derive_facts(kernel):
            if view.add(entry):
                delta.append(entry)
                self._stats.entries_added += 1

        iteration = 0
        while delta:
            iteration += 1
            if iteration > MAX_FIXPOINT_ROUNDS:
                raise FixpointDivergenceError(MAX_FIXPOINT_ROUNDS)
            self._stats.iterations = iteration
            self._stats.round_delta_sizes.append(len(delta))
            attempts_before = self._stats.derivation_attempts
            produced = self._derive_round(kernel, view, delta, Seed.IN_VIEW)
            self._stats.round_attempts.append(
                self._stats.derivation_attempts - attempts_before
            )
            new_delta: List[ViewEntry] = []
            for entry in produced:
                if view.add(entry):
                    new_delta.append(entry)
                    self._stats.entries_added += 1
            if len(view) > MAX_VIEW_ENTRIES:
                raise FixpointDivergenceError(
                    iteration,
                    f"fixpoint exceeded {MAX_VIEW_ENTRIES} view entries",
                )
            delta = new_delta
        return view

    def step(self, interpretation: MaterializedView) -> MaterializedView:
        """One application of the operator: ``T_P(I)`` (not inflationary).

        Returns exactly the entries derivable by one clause application from
        *interpretation*, mirroring the paper's definition of the operator
        (the result does not include ``I`` itself).
        """
        kernel = self._new_kernel(interpretation)
        result = MaterializedView()
        for entry in self._derive_facts(kernel):
            result.add(entry)
        # Every entry of the interpretation counts as "delta": one operator
        # application enumerates the full product, which the delta-join does
        # too once the old pools are empty.
        for entry in self._derive_round(
            kernel, interpretation, list(interpretation), Seed.ALL_DELTA
        ):
            result.add(entry)
        return result

    # ------------------------------------------------------------------
    # Derivation helpers
    # ------------------------------------------------------------------
    def _new_kernel(self, view: MaterializedView) -> DeltaJoinKernel:
        """Reset the stats and bind a kernel avoiding every name in use."""
        self._stats = FixpointStats()
        return DeltaJoinKernel(
            self._program,
            self._solver,
            self._options,
            make_fresh_factory(self._program, view),
            self._stats,
            check_solvability=self._check_solvability,
        )

    def _derive_facts(self, kernel: DeltaJoinKernel) -> List[ViewEntry]:
        """The entries of the body-free clauses (round 0)."""
        entries: List[ViewEntry] = []
        for clause in self._program:
            if clause.is_fact_clause:
                derived = kernel.apply_clause(clause)
                if derived is not None:
                    entries.append(derived_entry(clause, (), derived))
        return entries

    def _derive_round(
        self,
        kernel: DeltaJoinKernel,
        view: MaterializedView,
        delta: Sequence[ViewEntry],
        seed: Seed,
    ) -> List[ViewEntry]:
        """Every entry one kernel round derives (before dedup / ``add``)."""
        round_ = DeltaRound(kernel, view, delta, seed)
        self._stats.clauses_skipped += len(self._program.rule_clauses) - len(
            round_.clauses
        )
        return [
            derived_entry(clause, premises, derived)
            for clause, premises, derived in round_
        ]


# ---------------------------------------------------------------------------
# Convenience wrappers
# ---------------------------------------------------------------------------


def compute_tp_fixpoint(
    program: ConstrainedDatabase,
    solver: Optional[ConstraintSolver] = None,
    initial: Optional[MaterializedView] = None,
    options: Optional[EngineOptions] = None,
) -> MaterializedView:
    """Compute ``T_P ↑ ω`` (the paper's materialized mediated view)."""
    return FixpointEngine(program, solver, options or EngineOptions()).compute(initial)


def compute_wp_fixpoint(
    program: ConstrainedDatabase,
    solver: Optional[ConstraintSolver] = None,
    initial: Optional[MaterializedView] = None,
    options: Optional[EngineOptions] = None,
) -> MaterializedView:
    """Compute ``W_P ↑ ω`` (no solvability check; paper Section 4)."""
    engine = FixpointEngine(
        program, solver, options or EngineOptions(), check_solvability=False
    )
    return engine.compute(initial)
