"""Which public entry points are timed, and the per-layer metrics they give.

Layers are the packages under ``src/repro/``.  A layer is attributed by
*call boundary*: time spent inside ``ConstraintSolver.is_satisfiable``
belongs to ``constraints`` whichever file called it.  ``obs`` is not a
measured layer: every run uses the default disabled ``Observability``.
"""

from __future__ import annotations

import importlib
from typing import Dict, List, Mapping, Tuple

from tracing import Tracer

#: ``(trace name, module, class or None, attribute, coarse)``.  Coarse calls
#: (a few per batch) record spans; leaf calls only ``(count, total)``.
ENTRY_POINTS: Tuple[Tuple[str, str, object, str, bool], ...] = (
    ("constraints.sat", "repro.constraints.solver", "ConstraintSolver", "is_satisfiable", False),
    ("constraints.subsume", "repro.constraints.solver", "ConstraintSolver", "subsumes_instances", False),
    ("constraints.simplify", "repro.constraints.simplify", None, "simplify", False),
    # ``enumerate_solutions`` is a generator; its eager caller is the call
    # boundary every instance enumeration goes through.
    ("constraints.solutions", "repro.constraints.solutions", None, "solution_set", False),
    ("datalog.fixpoint", "repro.datalog.fixpoint", "FixpointEngine", "compute", True),
    ("datalog.view_copy", "repro.datalog.view", "MaterializedView", "copy", False),
    ("datalog.shard_clone", "repro.datalog.view", "PredicateShard", "copy", False),
    ("datalog.prune", "repro.datalog.view", "MaterializedView", "prune_unsolvable", True),
    ("datalog.name_scan", "repro.datalog.view", "MaterializedView", "all_variable_names", True),
    ("datalog.query", "repro.datalog.view", "MaterializedView", "instances_for", True),
    ("maintenance.stdel", "repro.maintenance.delete_stdel", "StraightDelete", "delete_many", True),
    ("maintenance.dred", "repro.maintenance.delete_dred", "ExtendedDRed", "delete_many", True),
    ("maintenance.insert", "repro.maintenance.insert", "ConstrainedAtomInsertion", "insert_many", True),
    ("maintenance.rewrite", "repro.maintenance.declarative", None, "deletion_rewrite", True),
    ("maintenance.rewrite", "repro.maintenance.declarative", None, "insertion_rewrite", True),
    ("maintenance.rewrite", "repro.maintenance.declarative", None, "build_add_set", True),
    ("analysis.analyze", "repro.analysis.analyzer", None, "analyze_program", True),
    ("stream.coalesce", "repro.stream.coalesce", "Coalescer", "coalesce", True),
    ("stream.prepare", "repro.stream.scheduler", "StreamScheduler", "prepare_batch", True),
    ("stream.apply", "repro.stream.scheduler", "StreamScheduler", "apply_prepared", True),
    ("serve.dispatch", "repro.serve.routing", "RequestRouter", "dispatch", True),
    ("serve.parse", "repro.datalog.parser", None, "parse_constrained_atom", False),
    ("serve.query", "repro.serve.service", "MediatorService", "query", True),
    ("serve.submit", "repro.serve.service", "MediatorService", "submit", True),
    ("persist.wal_append", "repro.persist.wal", "WriteAheadLog", "append", True),
    ("persist.checkpoint", "repro.persist.snapshot", "SnapshotStore", "write_checkpoint", True),
    ("persist.encode", "repro.persist.codec", None, "encode_shard", False),
    ("persist.load", "repro.persist.snapshot", "SnapshotStore", "load_current", True),
    ("persist.open", "repro.persist.manager", None, "open_scheduler", True),
    ("domains.call", "repro.domains.base", "DomainRegistry", "evaluate_call", False),
)

LAYERS = (
    "constraints", "datalog", "maintenance", "analysis", "stream", "serve",
    "persist", "domains",
)


def install(tracer: Tracer) -> None:
    """Patch every entry point; call before the program objects are built."""
    # Import the whole tree first so every ``from x import f`` binding that
    # a function patch must replace already exists.
    for name in ("repro.serve", "repro.persist", "repro.mediator", "repro.workloads"):
        importlib.import_module(name)
    for trace_name, module_name, cls_name, attr, coarse in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        if cls_name is None:
            tracer.patch_function(getattr(module, attr), trace_name, coarse)
        else:
            tracer.patch_method(getattr(module, cls_name), attr, trace_name, coarse)


def layer_self_seconds(calls: Mapping[str, Tuple[int, float, float]]) -> Dict[str, float]:
    """Self time summed per layer (the prefix of the trace name)."""
    totals = {layer: 0.0 for layer in LAYERS}
    for name, (_, self_s, _) in calls.items():
        totals[name.split(".", 1)[0]] += self_s
    return totals


def top_self_times(
    calls: Mapping[str, Tuple[int, float, float]], limit: int = 5
) -> List[Tuple[str, float]]:
    """The *limit* entry points with the largest self time."""
    ranked = sorted(((name, c[1]) for name, c in calls.items()), key=lambda p: -p[1])
    return ranked[:limit]
