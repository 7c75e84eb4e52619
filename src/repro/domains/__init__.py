"""External-domain layer.

Domains abstract the heterogeneous sources the mediator integrates; each is
reachable only through ``in(X, domain:function(args))`` constraints.  This
subpackage provides the domain/registry machinery plus concrete domains:
arithmetic (constraint databases), relational sources, spatial reasoning,
face recognition and time-versioned domains for Section 4.
"""

from repro.domains.arithmetic import make_arithmetic_domain
from repro.domains.base import (
    Domain,
    DomainFunction,
    DomainRegistry,
    IntensionalResultSet,
    coerce_result,
)
from repro.domains.face import (
    FaceDbDomain,
    FaceExtractDomain,
    FaceScenario,
    make_face_scenario,
)
from repro.domains.relational import RelationalDomain, make_relational_domain
from repro.domains.spatial import MapRegion, SpatialDomain, make_spatial_domain
from repro.domains.versioned import (
    DomainClock,
    FunctionDelta,
    VersionedDomain,
    VersionedFunction,
    add_rem_sets,
    function_delta,
)

__all__ = [
    "Domain",
    "DomainClock",
    "DomainFunction",
    "DomainRegistry",
    "FaceDbDomain",
    "FaceExtractDomain",
    "FaceScenario",
    "FunctionDelta",
    "IntensionalResultSet",
    "MapRegion",
    "RelationalDomain",
    "SpatialDomain",
    "VersionedDomain",
    "VersionedFunction",
    "add_rem_sets",
    "coerce_result",
    "function_delta",
    "make_arithmetic_domain",
    "make_face_scenario",
    "make_relational_domain",
    "make_spatial_domain",
]
