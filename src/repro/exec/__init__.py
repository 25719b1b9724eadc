"""``repro.exec`` — fleet-stage outcomes, digests and the stage cache.

The CosmicDance pipeline's per-satellite stage (clean → detect →
assess) consumes live :class:`~repro.tle.catalog.SatelliteHistory`\\ s
and produces :class:`SatelliteOutcome`\\ s in one in-process loop.
:class:`StageMemo` memoizes stage outcomes by (history digest, config
digest) — each history owns and caches its digest — so a re-``run()``
after incremental ingest only recomputes dirty satellites.  See
``docs/EXECUTION.md`` for the determinism guarantees and
cache-invalidation rules.
"""

from __future__ import annotations

from repro.exec.base import SATELLITE_SPAN, SatelliteOutcome
from repro.exec.digests import (
    EXECUTION_FIELDS,
    cache_key,
    config_digest,
    history_digest,
    result_digest,
)
from repro.exec.memo import StageMemo

__all__ = [
    "EXECUTION_FIELDS",
    "SATELLITE_SPAN",
    "SatelliteOutcome",
    "StageMemo",
    "cache_key",
    "config_digest",
    "history_digest",
    "result_digest",
]
