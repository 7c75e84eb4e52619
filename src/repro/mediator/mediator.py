"""The mediator: rules + integrated domains + materialized mediated views.

A :class:`Mediator` bundles what HERMES calls a mediator program -- a set of
constrained clauses whose constraints reach external sources through
``in(X, domain:function(args))`` -- with the registry of those sources, and
exposes the operations the paper studies:

* materialization by unfolding (``T_P`` or ``W_P`` fixpoints),
* view updates of the first kind (constrained-atom deletion via Extended
  DRed or StDel, constrained-atom insertion), each a one-request batch on
  the view's :class:`~repro.stream.StreamScheduler`, and
* view maintenance under updates of the second kind (source changes),
  either by re-materialization (``T_P``) or by doing nothing (``W_P``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Optional, Sequence, Tuple, Union

from repro.analysis import ProgramReport, analyze_program
from repro.constraints.solver import ConstraintSolver
from repro.datalog.atoms import ConstrainedAtom
from repro.datalog.fixpoint import compute_tp_fixpoint, compute_wp_fixpoint
from repro.datalog.join import EngineOptions
from repro.datalog.parser import parse_constrained_atom, parse_program
from repro.datalog.program import ConstrainedDatabase
from repro.datalog.view import MaterializedView
from repro.domains.base import Domain, DomainRegistry
from repro.errors import MediatorError
from repro.maintenance.requests import DeletionRequest, InsertionRequest
from repro.stream import BatchResult, StreamOptions, StreamScheduler


class MaterializationOperator(enum.Enum):
    """Which fixpoint operator materializes the view."""

    TP = "tp"
    WP = "wp"


class DeletionAlgorithm(enum.Enum):
    """Which deletion algorithm maintains the view."""

    STDEL = "stdel"
    DRED = "dred"


@dataclass
class MediatedView:
    """A materialized mediated view bound to the mediator that produced it.

    Updates of the first kind go through one in-memory
    :class:`~repro.stream.StreamScheduler`, built over this view at its
    first update: a deletion rewrites the scheduler's program (Section
    3.1), and a later insertion's ``P_ADD`` unfolds against the rewritten
    one.
    """

    mediator: "Mediator"
    view: MaterializedView
    operator: MaterializationOperator
    _scheduler: Optional[StreamScheduler] = field(
        default=None, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.view)

    def entries(self):
        """The underlying view entries."""
        return self.view.entries

    def query(
        self, predicate: str, universe: Optional[Iterable[object]] = None
    ) -> FrozenSet[Tuple[object, ...]]:
        """Ground tuples of *predicate* according to the view.

        For a ``W_P`` view this evaluates constraint solvability *now*
        (deferred evaluation, Corollary 1); for a ``T_P`` view the
        constraints were already filtered at materialization time but DCA
        atoms are still evaluated against the current sources.
        """
        return self.view.instances_for(
            predicate, solver=self.mediator.solver, universe=universe
        )

    def instances(
        self, universe: Optional[Iterable[object]] = None
    ) -> FrozenSet[Tuple[str, Tuple[object, ...]]]:
        """All ground instances ``[M]`` of the view."""
        return self.view.instances(solver=self.mediator.solver, universe=universe)

    # -- updates of the first kind ------------------------------------
    def delete(
        self,
        atom: Union[str, ConstrainedAtom],
        algorithm: DeletionAlgorithm = DeletionAlgorithm.STDEL,
    ) -> BatchResult:
        """Delete a constrained atom from this view (returns the batch result).

        The view object is updated in place to the batch's published view.
        The first update fixes the view's deletion algorithm: StDel records
        no deletion rewrite, so a DRed pass after it could rederive what
        StDel removed, and naming the other algorithm later raises
        :class:`~repro.errors.MediatorError`.
        """
        request = DeletionRequest(self.mediator.parse_update_atom(atom))
        return self._apply(request, algorithm)

    def insert(self, atom: Union[str, ConstrainedAtom]) -> BatchResult:
        """Insert a constrained atom into this view (returns the batch result).

        As a first update it fixes the default deletion algorithm, StDel.
        """
        request = InsertionRequest(self.mediator.parse_update_atom(atom))
        return self._apply(request, None)

    def _apply(
        self,
        request: Union[DeletionRequest, InsertionRequest],
        algorithm: Optional[DeletionAlgorithm],
    ) -> BatchResult:
        """Apply *request* as a one-request batch on the view's scheduler.

        A pass is attempted once; a failure raises :class:`~repro.errors.MediatorError` and leaves the view and
        the scheduler's programs as they were.
        """
        if self._scheduler is None:
            self._scheduler = self.mediator._new_scheduler(
                self.view,
                deletion_algorithm=(algorithm or DeletionAlgorithm.STDEL).value,
            )
        elif algorithm is not None and (
            algorithm.value != self._scheduler.options.deletion_algorithm
        ):
            raise MediatorError(
                "this view is maintained with "
                f"{self._scheduler.options.deletion_algorithm}; refresh() it "
                f"before deleting with {algorithm.value}"
            )
        result = self._scheduler.apply_batch((request,))
        if not result.ok:
            raise MediatorError(
                f"update failed: {request} ({result.error})"
            )
        self.view = result.view
        return result

    # -- updates of the second kind ------------------------------------
    def refresh(self) -> "MediatedView":
        """Re-materialize (only meaningful for ``T_P`` views).

        Under ``W_P`` this is unnecessary by Theorem 4; the method still
        recomputes and returns a fresh view for comparison purposes.  The
        updates applied so far are dropped with the view's scheduler.
        """
        refreshed = self.mediator.materialize(self.operator)
        self.view = refreshed.view
        self._scheduler = None
        return self


class Mediator:
    """A HERMES-style mediator over a registry of external domains."""

    def __init__(
        self,
        program: ConstrainedDatabase,
        registry: Optional[DomainRegistry] = None,
        options: Optional[EngineOptions] = None,
    ) -> None:
        self._program = program
        self._registry = registry or DomainRegistry()
        self._solver = ConstraintSolver(self._registry)
        #: Set by :meth:`open`: the recovered durable scheduler over the
        #: mediator's data directory (``None`` for in-memory mediators).
        self._durable_scheduler = None
        # Static analysis once per mediator: the report's interval-position
        # table is threaded into the engine configuration (unless the caller
        # pinned one), so range postings stop probing positions that can
        # never carry a non-degenerate interval.  Diagnostics are not gated
        # here -- the builder fails fast on them; direct construction stays
        # permissive for experiments.
        self._report = analyze_program(program, self._registry)
        self._options = (options or EngineOptions()).with_report(self._report)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_rules(
        cls,
        rules: str,
        domains: Sequence[Domain] = (),
        **kwargs,
    ) -> "Mediator":
        """Build a mediator from rule text and a list of domains."""
        program = parse_program(rules)
        registry = DomainRegistry(domains, cache_calls=True)
        return cls(program, registry, **kwargs)

    @classmethod
    def open(
        cls,
        path,
        domains: Sequence[Domain] = (),
        rules: Optional[str] = None,
        stream_options=None,
        durability_options=None,
        **kwargs,
    ) -> "Mediator":
        """Open (or initialize) a durable mediator over a data directory.

        Recovery is the persistence layer's contract: the newest valid
        snapshot is loaded (checksums and program hash verified loudly),
        the WAL tail is replayed through the ordinary scheduler pipeline,
        and fresh transaction ids continue above the persisted high-water
        mark.  *rules* is required the first time (an empty directory has
        no program to recover) and optional afterwards -- when given, it
        must hash-identically match the program the directory was built
        from.  :meth:`streaming` returns the durable scheduler, and
        :meth:`serve` picks it up automatically.
        Without *stream_options* it runs with the mediator's engine options,
        like the scheduler :meth:`streaming` builds.
        """
        from repro.persist import open_scheduler
        from repro.persist.manager import DurabilityOptions
        from repro.persist.snapshot import SnapshotStore

        program = parse_program(rules) if rules is not None else None
        if program is None:
            # Recover the program from the manifest so the mediator can be
            # constructed before the scheduler (shared solver/registry).
            state = SnapshotStore(path).load_current()
            if state is None:
                raise MediatorError(
                    f"data directory {str(path)!r} holds no snapshot; "
                    "pass rules to initialize it"
                )
            program = state.program
        registry = DomainRegistry(domains, cache_calls=True)
        mediator = cls(program, registry, **kwargs)
        mediator._durable_scheduler = open_scheduler(
            path,
            program,
            solver=mediator._solver,
            options=(
                stream_options
                if stream_options is not None
                else StreamOptions(engine=mediator._options)
            ),
            durability_options=(
                durability_options
                if durability_options is not None
                else DurabilityOptions()
            ),
        )
        return mediator

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def program(self) -> ConstrainedDatabase:
        """The mediator's constrained database (rules)."""
        return self._program

    @property
    def registry(self) -> DomainRegistry:
        """The registry of integrated domains."""
        return self._registry

    @property
    def solver(self) -> ConstraintSolver:
        """The constraint solver bound to the domain registry."""
        return self._solver

    @property
    def report(self) -> ProgramReport:
        """The static-analysis report computed at construction time."""
        return self._report

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def materialize(
        self,
        operator: Union[str, MaterializationOperator] = MaterializationOperator.TP,
    ) -> MediatedView:
        """Materialize the mediated view by unfolding the rule set."""
        resolved = (
            operator
            if isinstance(operator, MaterializationOperator)
            else MaterializationOperator(operator)
        )
        if resolved is MaterializationOperator.TP:
            view = compute_tp_fixpoint(
                self._program, self._solver, options=self._options
            )
        else:
            view = compute_wp_fixpoint(
                self._program, self._solver, options=self._options
            )
        return MediatedView(self, view, resolved)

    # ------------------------------------------------------------------
    # Updates of the first kind
    # ------------------------------------------------------------------
    def parse_update_atom(self, atom: Union[str, ConstrainedAtom]) -> ConstrainedAtom:
        """Accept either rule-text (``"p(X) <- X = 3"``) or a constructed atom."""
        if isinstance(atom, ConstrainedAtom):
            return atom
        if isinstance(atom, str):
            return parse_constrained_atom(atom)
        raise MediatorError(f"cannot interpret update atom: {atom!r}")

    # ------------------------------------------------------------------
    # Streaming & serving
    # ------------------------------------------------------------------
    def streaming(self, options=None, view: Optional[MaterializedView] = None):
        """A :class:`~repro.stream.StreamScheduler` over this mediator.

        The scheduler shares the mediator's solver (and therefore its
        domain registry and memo discipline); *view* defaults to a fresh
        ``T_P`` materialization.  Batched updates submitted to the
        scheduler's log maintain the same view the mediator would.  Without
        *options* the scheduler runs with the mediator's engine options,
        the ones :meth:`materialize` uses.

        A mediator built by :meth:`open` hands out its recovered durable
        scheduler instead (options/view arguments then must be left unset:
        both were decided by recovery).
        """
        if self._durable_scheduler is not None:
            if options is not None or view is not None:
                raise MediatorError(
                    "a durable mediator's scheduler was configured at open() "
                    "time; streaming() takes no options/view here"
                )
            return self._durable_scheduler
        return self._new_scheduler(view, options)

    def _new_scheduler(
        self,
        view: Optional[MaterializedView],
        options: Optional[StreamOptions] = None,
        **fields,
    ) -> StreamScheduler:
        """An in-memory scheduler over this mediator's program and solver.

        Without *options* it runs with the mediator's engine options and
        the given :class:`~repro.stream.StreamOptions` *fields*.
        """
        if options is None:
            options = StreamOptions(engine=self._options, **fields)
        return StreamScheduler(self._program, self._solver, view=view, options=options)

    def serve(
        self,
        serve_options=None,
        stream_options=None,
        view: Optional[MaterializedView] = None,
    ):
        """A :class:`~repro.serve.MediatorService` over this mediator.

        Returns the (not yet started) asyncio service: concurrent snapshot
        reads, one writer thread flushing the update log, watermark
        backpressure.  Callers ``await service.start()`` (or use it as an
        async context manager) from their event loop.
        """
        from repro.serve import MediatorService, ServeOptions

        return MediatorService(
            self.streaming(stream_options, view=view),
            serve_options if serve_options is not None else ServeOptions(),
        )
