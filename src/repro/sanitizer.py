"""Opt-in shard-write sanitizer gate.

Setting ``REPRO_SHARD_SANITIZER=1`` arms instrumentation in the view layer
and the stream scheduler that turns three silent-corruption bug classes
into loud :class:`~repro.errors.ShardSanitizerError` /
:class:`~repro.errors.WriteScopeError` failures:

* mutating a shard that a published (shared) view still references,
* writing a predicate outside a stratum unit's declared write closure,
* committing a batch whose view leaked writes past its written closures
  (a torn publish: a write no unit declared) or changed a container it
  shares with the published view.

The gate reads the environment on every call so tests can toggle it with
``monkeypatch.setenv``; it is only consulted on shard-sharing events
(``copy`` / commit), never on per-entry mutations --
those check a plain boolean flag the sharing events set.
"""

from __future__ import annotations

import os

_TRUTHY = frozenset({"1", "true", "yes", "on"})


def sanitizer_enabled() -> bool:
    """True when ``REPRO_SHARD_SANITIZER`` is set to a truthy value."""
    return os.environ.get("REPRO_SHARD_SANITIZER", "").strip().lower() in _TRUTHY
