"""The serving layer: the mediator as a long-lived concurrent service.

The paper's setting is a *mediator* answering queries over a materialized
view while the integrated sources change underneath it.  This package is
that setting made operational:

* :mod:`repro.serve.service` -- :class:`MediatorService`, the asyncio
  core: snapshot reads on a thread pool (never blocked by maintenance), a
  writer pipeline splitting each drained batch into the stream scheduler's
  prepare / apply stages (batch ``n+1`` coalesces while ``n`` applies;
  one batch applies at a time, in stream order), and watermark
  backpressure on the update log.  :class:`SnapshotLease` pins an
  atomically consistent (view, effective program) pair for multi-query
  read sessions.
* :mod:`repro.serve.routing` -- :class:`RequestRouter`, the wire-format
  dispatch (query / insert / delete / notice / flush / stats).
* :mod:`repro.serve.server` -- :class:`MediatorServer`, a stdlib-only
  JSON-lines TCP front end (``repro serve`` on the command line).
"""

from repro.serve.routing import RequestRouter
from repro.serve.server import MediatorServer
from repro.serve.service import MediatorService, ServeOptions, SnapshotLease

__all__ = [
    "MediatorServer",
    "MediatorService",
    "RequestRouter",
    "ServeOptions",
    "SnapshotLease",
]
