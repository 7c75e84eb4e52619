"""View-maintenance algorithms (the paper's core contribution).

* :mod:`repro.maintenance.delete_dred` -- Algorithm 1, Extended DRed,
* :mod:`repro.maintenance.delete_stdel` -- Algorithm 2, Straight Delete,
* :mod:`repro.maintenance.insert` -- Algorithm 3, constrained-atom insertion,
* :mod:`repro.maintenance.external` -- Section 4, source changes under
  ``T_P`` vs ``W_P``,
* :mod:`repro.maintenance.declarative` -- the rewrites giving each update its
  declarative semantics (the correctness yardstick),
* :mod:`repro.maintenance.baselines` -- from-scratch recomputation,
* :mod:`repro.maintenance.counting` -- the counting-algorithm baseline.

Every algorithm takes the one :class:`~repro.datalog.join.EngineOptions`
(re-exported here) and runs its unfolding through the shared delta-join
kernel of :mod:`repro.datalog.join`.  The options choose fast paths only;
what the paper fixes is fixed here too: the view keeps one entry per
derivation (duplicate semantics), an insertion's ``Add`` set excludes the
instances already present, and a deletion drops the entries its narrowing
left unsolvable (StDel's step 4, DRed's final sweep).
"""

from repro.datalog.join import EngineOptions
from repro.maintenance.baselines import (
    RecomputationResult,
    full_recompute,
    recompute_after_deletion,
    recompute_after_insertion,
)
from repro.maintenance.common import EXTERNAL_CLAUSE_NUMBER
from repro.maintenance.counting import (
    CountingDeletionResult,
    CountingMaintenance,
    CountingView,
)
from repro.maintenance.declarative import (
    build_add_set,
    deletion_rewrite,
    insertion_rewrite,
)
from repro.maintenance.delete_dred import (
    DRedResult,
    ExtendedDRed,
    delete_with_dred,
)
from repro.maintenance.delete_stdel import (
    POutPair,
    StDelResult,
    StraightDelete,
    delete_with_stdel,
)
from repro.maintenance.external import (
    ExternalChangeReport,
    TpExternalMaintenance,
    WpExternalMaintenance,
    collect_function_deltas,
)
from repro.maintenance.insert import (
    ConstrainedAtomInsertion,
    InsertionResult,
    insert_atom,
)
from repro.maintenance.requests import (
    DeletionRequest,
    InsertionRequest,
    MaintenanceStats,
)

__all__ = [
    "ConstrainedAtomInsertion",
    "CountingDeletionResult",
    "CountingMaintenance",
    "CountingView",
    "DRedResult",
    "DeletionRequest",
    "EXTERNAL_CLAUSE_NUMBER",
    "EngineOptions",
    "ExtendedDRed",
    "ExternalChangeReport",
    "InsertionRequest",
    "InsertionResult",
    "MaintenanceStats",
    "POutPair",
    "RecomputationResult",
    "StDelResult",
    "StraightDelete",
    "TpExternalMaintenance",
    "WpExternalMaintenance",
    "build_add_set",
    "collect_function_deltas",
    "delete_with_dred",
    "delete_with_stdel",
    "deletion_rewrite",
    "full_recompute",
    "insert_atom",
    "insertion_rewrite",
    "recompute_after_deletion",
    "recompute_after_insertion",
]
