"""The one-shot public API: :func:`analyze`, :func:`replay`, :func:`serve`.

Most callers want exactly one thing — "here is space-weather data and a
TLE archive; tell me what the storms did to the fleet".  That is this
module.  The incremental machinery underneath (:class:`~repro.core.
pipeline.CosmicDance`, :class:`~repro.core.ingest.IngestState`, the
stage cache) stays available for the fetch-loop use case, but
it is no longer the front door::

    from repro import analyze

    result = analyze(dst, elements)
    result.storm_episodes       # detected solar events
    result.associations         # trajectory shifts closely after them
    result.permanently_decayed  # the paper's service-hole alarm

Both inputs accept either parsed objects or raw text (coerced through
:mod:`repro.inputs`, the shared input-shape contract), so the two
lines of I/O most scripts start with can be skipped entirely::

    result = analyze(
        pathlib.Path("dst.wdc").read_text(),
        pathlib.Path("starlink.tle").read_text(),
    )

For continuous operation — many consumers, incremental data, warm
caches — hold the long-lived service instead::

    with repro.serve() as service:
        service.call(service.request("ingest-delta", dst_text=...))
        response = service.call(service.request("refresh"))

See ``docs/API.md`` for the full public-surface reference and the
stability policy.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Iterable

from repro.core.config import CosmicDanceConfig
from repro.core.pipeline import CosmicDance, PipelineResult
from repro.exec import StageMemo
from repro.inputs import coerce_dst, ingest_elements
from repro.spaceweather.dst import DstIndex
from repro.tle.catalog import SatelliteCatalog
from repro.tle.elements import MeanElements

if TYPE_CHECKING:
    from repro.core.triggers import TriggerThresholds
    from repro.io.store import DataStore
    from repro.obs.tracer import Tracer
    from repro.serve.service import AnalysisService
    from repro.stream.monitor import StreamMonitor, StreamUpdate

__all__ = ["analyze", "replay", "serve"]


def analyze(
    dst: DstIndex | str,
    elements: "Iterable[MeanElements] | SatelliteCatalog | str",
    *,
    config: CosmicDanceConfig | None = None,
    memo: StageMemo | None = None,
    tracer: "Tracer | None" = None,
) -> PipelineResult:
    """Run the full CosmicDance pipeline once over the given data.

    *dst* is a parsed :class:`~repro.spaceweather.dst.DstIndex` or raw
    text in either WDC exchange format or the repository's CSV layout.
    *elements* is an iterable of :class:`~repro.tle.elements.
    MeanElements`, a :class:`~repro.tle.catalog.SatelliteCatalog`, or
    raw TLE text (2LE/3LE).  Both are coerced through
    :mod:`repro.inputs`; a shape neither recognises raises
    :class:`~repro.errors.InputError`.

    *config* tunes thresholds and execution; *memo* injects a shared
    stage cache — see ``docs/EXECUTION.md``.  *tracer* (or ``config.trace``) turns on the
    observability subsystem: pass a live :class:`~repro.obs.Tracer` and
    read its spans back after the call — see ``docs/OBSERVABILITY.md``.
    Returns the :class:`~repro.core.pipeline.PipelineResult`; post-run
    delegates (Fig. 4 curves, re-entry predictions, ...) need a held
    :class:`~repro.core.pipeline.CosmicDance` instead.
    """
    pipeline = CosmicDance(config, memo=memo, tracer=tracer)
    pipeline.ingest.add_dst(coerce_dst(dst))
    ingest_elements(pipeline.ingest, elements, source="analyze()")
    return pipeline.run()


def replay(
    dst: DstIndex | str,
    elements: "Iterable[MeanElements] | SatelliteCatalog | str",
    *,
    chunk_hours: float = 24.0,
    run_every: int | None = None,
    config: CosmicDanceConfig | None = None,
    memo: StageMemo | None = None,
    tracer: "Tracer | None" = None,
    thresholds: "TriggerThresholds | None" = None,
) -> "tuple[StreamMonitor, list[StreamUpdate]]":
    """Replay a batch dataset through the streaming monitor.

    The dataset is sliced into *chunk_hours*-wide feed chunks
    (:func:`repro.stream.split_feed`) and fed through a fresh
    :class:`~repro.stream.StreamMonitor` — online storm detection and
    alerting run chunk by chunk, and an analysis refresh runs every
    *run_every* chunks (``None``: once, at end of feed).  Returns the
    monitor (holding the final result, the alert journal, and the warm
    stage cache) and the per-chunk updates.

    The final result's :func:`~repro.exec.result_digest` is identical
    to :func:`analyze` over the same data — chunking changes cost,
    never results.  See ``docs/STREAMING.md``.
    """
    from repro.stream.chunks import split_feed
    from repro.stream.monitor import StreamMonitor

    # The staging pipeline exists only to coerce/ingest the batch
    # inputs, but it must still see the caller's config: ingest-
    # affecting knobs (strictness, thresholds) would otherwise be
    # silently dropped on this path.
    staging = CosmicDance(config)
    staging.ingest.add_dst(coerce_dst(dst))
    ingest_elements(staging.ingest, elements, source="replay()")
    catalog, dst_index = staging.ingest.require_ready()

    monitor = StreamMonitor(
        config,
        memo=memo,
        tracer=tracer,
        thresholds=thresholds,
        run_every=run_every,
    )
    updates = monitor.replay(
        split_feed(dst_index, catalog, chunk_hours=chunk_hours)
    )
    return monitor, updates


def serve(
    *,
    store: "DataStore | str | os.PathLike | None" = None,
    config: CosmicDanceConfig | None = None,
    max_sessions: int = 8,
    queue_limit: int = 64,
    workers: int = 1,
    run_every: int | None = None,
) -> "AnalysisService":
    """Start a long-lived, multi-session analysis service.

    The returned :class:`~repro.serve.service.AnalysisService` holds
    warm state — a shared :class:`~repro.exec.StageMemo`, per-session
    :class:`~repro.stream.StreamMonitor` ingest watermarks, open storm
    episodes, and alert journals — and answers typed
    :class:`~repro.serve.protocol.ServeRequest` messages
    (``ingest-delta``, ``refresh``, ``query-episodes``,
    ``query-alerts``, ``trace-report``, ``health``) through a bounded
    queue with backpressure; concurrent ``refresh`` requests against
    the same dirty set coalesce into one recompute.

    *store* (a :class:`~repro.io.store.DataStore` or directory path)
    persists the stage cache and scopes one sub-store per session for
    alert journals; *max_sessions* bounds resident sessions (LRU
    eviction); *queue_limit*/*workers* size the request broker;
    *run_every* sets each session's automatic refresh cadence.

    The service starts accepting immediately and is a context manager —
    leaving the ``with`` block drains and stops it.  See
    ``docs/API.md``.
    """
    from repro.serve.service import AnalysisService

    service = AnalysisService(
        config,
        store=store,
        max_sessions=max_sessions,
        queue_limit=queue_limit,
        workers=workers,
        run_every=run_every,
    )
    service.start()
    return service
