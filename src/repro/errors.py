"""Exception hierarchy shared by every subpackage of :mod:`repro`.

All library-raised exceptions derive from :class:`ReproError`, so callers can
catch a single base class at API boundaries.  Subpackages raise the most
specific subclass that applies; none of them ever raise bare ``Exception``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by the :mod:`repro` library."""


class ConstraintError(ReproError):
    """A constraint expression is malformed or used in an unsupported way."""


class TermError(ConstraintError):
    """A term (variable/constant) is malformed, e.g. an invalid variable name."""


class SolverError(ConstraintError):
    """The constraint solver cannot decide a constraint it was handed."""


class EvaluationError(ReproError):
    """A domain call could not be evaluated (bad arguments, missing function)."""


class UnknownDomainError(EvaluationError):
    """A domain-call atom refers to a domain that is not registered."""


class UnknownFunctionError(EvaluationError):
    """A domain-call atom refers to a function its domain does not define."""


class ParseError(ReproError):
    """The rule/constraint text parser rejected its input."""


class ProgramError(ReproError):
    """A constrained database (program) is malformed (e.g. unbound head vars)."""


class WriteScopeError(ProgramError):
    """A view write targeted a predicate outside the active checkout scope.

    Raised by :meth:`~repro.datalog.view.MaterializedView._writable_shard`
    when a maintenance step mutates a predicate outside the write scope
    its batch was checked out to (the union of its write closures).  Subclasses :class:`ProgramError` so
    pre-existing callers that catch the broader class keep working.
    """


class ShardSanitizerError(ProgramError):
    """The shard-write sanitizer detected an illegal shard mutation.

    Only raised when ``REPRO_SHARD_SANITIZER=1``: mutating a shard that a
    published (shared) view still references, or publishing a unit whose
    result view touched shards outside its declared write closure, both
    corrupt concurrent readers silently -- the sanitizer turns them into
    loud failures naming the offending predicate."""


class FixpointDivergenceError(ReproError):
    """A fixpoint iteration exceeded its configured iteration budget."""

    def __init__(self, iterations: int, message: str = "") -> None:
        detail = message or (
            "fixpoint iteration did not converge within "
            f"{iterations} iterations"
        )
        super().__init__(detail)
        self.iterations = iterations


class MaintenanceError(ReproError):
    """A view-maintenance algorithm was invoked on unsupported input."""


class CountingDivergenceError(MaintenanceError):
    """The counting baseline detected an infinite derivation count.

    The paper (Section 3.1.2 and Section 6) points out that the counting
    algorithm of Gupta, Katiyar and Mumick can produce infinite counts on
    recursive programs; this exception reproduces that failure mode in a
    controlled way instead of looping forever.
    """


class RelationalError(ReproError):
    """Base class for errors raised by the in-memory relational engine."""


class SchemaError(RelationalError):
    """A row or query does not match the table schema."""


class UnknownTableError(RelationalError):
    """A query referenced a table that does not exist."""


class UnknownColumnError(RelationalError):
    """A query referenced a column that does not exist."""


class PersistError(ReproError):
    """Base class for errors raised by the durability layer (:mod:`repro.persist`)."""


class CodecError(PersistError):
    """A persisted payload is malformed: unknown format version, unknown
    structural tag, truncated or bit-flipped bytes.  Decoders raise this --
    never return a partially-decoded or wrong view."""


class SnapshotIntegrityError(PersistError):
    """A snapshot failed validation at recovery time: a shard file's checksum
    does not match the manifest, or the manifest references a missing file.
    Recovery fails loudly instead of serving a corrupt view."""


class ProgramHashMismatchError(PersistError):
    """The program on disk is not the program the caller opened the data
    directory with (or the analyzer's report digest changed), so replaying
    the WAL through the current pipeline would not reproduce the view."""


class WalError(PersistError):
    """The write-ahead log is corrupt in a way torn-tail recovery cannot
    explain (e.g. non-monotonic transaction ids in decoded records)."""


class RecoveryError(PersistError):
    """Recovery could not produce a scheduler (empty directory without a
    program, unreadable manifest, replay failure)."""


class MediatorError(ReproError):
    """The mediator was configured or queried incorrectly."""


class WorkloadError(ReproError):
    """A synthetic workload generator received invalid parameters."""
