"""The analyzer driver: run every pass once, assemble the ProgramReport.

``analyze_program`` is deliberately cheap -- linear passes over the clause
set plus one SCC/closure computation -- so callers can afford to run it on
every mediator build (``mediator/builder.py`` does, failing fast on safety
and stratification errors) and on every scheduler construction (the
precomputed closures replace the runtime dependency walks).
"""

from __future__ import annotations

from typing import Optional

from repro.datalog.program import ConstrainedDatabase
from repro.domains.base import DomainRegistry

from repro.analysis.closures import compute_closures
from repro.analysis.report import ProgramReport
from repro.analysis.safety import run_safety_pass
from repro.analysis.signatures import run_signature_pass
from repro.analysis.stratification import run_stratification_pass


def analyze_program(
    program: ConstrainedDatabase,
    registry: Optional[DomainRegistry] = None,
) -> ProgramReport:
    """Statically analyze *program* (optionally against *registry*).

    Without a registry the domain-dependent checks (unknown domains /
    functions, declared arities, ``index_interval`` hook presence) are
    skipped or answered conservatively; everything else is registry-free.
    """
    components = program.predicate_sccs()
    stratum = {
        predicate: index
        for index, component in enumerate(components)
        for predicate in component
    }

    diagnostics = list(run_safety_pass(program))
    strat_diagnostics, not_delta, negated_guards = run_stratification_pass(
        program, components, stratum
    )
    diagnostics.extend(strat_diagnostics)
    signature_diagnostics, signatures, interval_positions = run_signature_pass(
        program, registry
    )
    diagnostics.extend(signature_diagnostics)

    write_closures, read_closures, external_closures = compute_closures(program)

    return ProgramReport(
        diagnostics=tuple(diagnostics),
        predicates=tuple(sorted(write_closures)),
        components=components,
        stratum=stratum,
        write_closures=write_closures,
        read_closures=read_closures,
        external_closures=external_closures,
        signatures=signatures,
        interval_positions=interval_positions,
        not_delta_conjuncts=not_delta,
        negated_guard_conjuncts=negated_guards,
    )
