"""Content digests keying the stage-memoization cache.

A satellite's stage output is a pure function of (its raw element sets,
the analysis config).  Both halves get a stable SHA-256 digest:

* :func:`history_digest` hashes the raw field values of every element
  set — any added, removed, or changed record changes the digest, which
  is exactly the "dirty satellite" signal incremental ingest needs.  It
  lives with :class:`~repro.tle.catalog.SatelliteHistory`, which caches
  it as ``history.digest``, and is re-exported here;
* :func:`config_digest` hashes the *analysis* fields of the config.
  Execution-only knobs (``strict``, ``cache_stages``, ``trace``)
  cannot change results and are excluded, so toggling them never
  invalidates the cache.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields
from typing import TYPE_CHECKING

from repro.core.config import CosmicDanceConfig
from repro.tle.catalog import history_digest  # noqa: F401  (re-exported)

if TYPE_CHECKING:
    from repro.core.pipeline import PipelineResult

#: Config fields that select *how* the pipeline runs, not *what* it
#: computes — excluded from the config digest.  ``trace`` belongs here:
#: observability must never invalidate a cache.
EXECUTION_FIELDS: frozenset[str] = frozenset({"strict", "cache_stages", "trace"})


def config_digest(config: CosmicDanceConfig) -> str:
    """SHA-256 over the analysis-relevant config fields."""
    parts = [
        f"{field.name}={getattr(config, field.name)!r}"
        for field in fields(config)
        if field.name not in EXECUTION_FIELDS
    ]
    return hashlib.sha256(";".join(parts).encode("utf-8")).hexdigest()


def result_digest(result: "PipelineResult") -> str:
    """SHA-256 over everything scientifically meaningful in one
    :class:`~repro.core.pipeline.PipelineResult`.

    Two runs over the same inputs must share a digest regardless of
    cache temperature (cold vs warm), tracing, or streaming chunking —
    the seed-determinism property the parity suite pins.  Execution
    bookkeeping (stage timings, cache hit/miss counts, metrics) is
    deliberately excluded; the quarantine ledger text is included
    because degradation *is* part of the result.
    """
    digest = hashlib.sha256()
    for part in (
        repr(result.storm_episodes),
        repr(result.trajectory_events),
        repr(result.associations),
        repr(sorted(result.decay_assessments.items())),
        repr(sorted(result.cleaned.items())),
        repr(result.cleaning_report),
        repr(result.event_threshold_nt),
        result.health.ledger_text(),
    ):
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def cache_key(history_digest_hex: str, config_digest_hex: str) -> str:
    """Filesystem-safe joint key for one (history, config) pair.

    128 bits of history digest + 64 of config digest — far beyond
    collision risk for any real constellation, short enough for a
    file name.
    """
    return f"{history_digest_hex[:32]}-{config_digest_hex[:16]}"
