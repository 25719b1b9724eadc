"""``repro.stream`` — the online monitoring subsystem.

Turns the batch pipeline into an always-on incremental monitor (the
operational shape CosmicDancePro-style continuous measurement needs):

* :class:`FeedChunk` / :func:`split_feed` — the unit of arrival, and
  the bridge that replays a batch dataset as the chunked feed a live
  monitor would have seen;
* :class:`StreamIngestor` — arbitrary-order chunk ingestion with
  watermark tracking and idempotent dedup, over the existing
  :class:`~repro.core.ingest.IngestState` buffers;
* :class:`OnlineStormDetector` — open-episode state across chunks,
  parity-equal to :func:`~repro.spaceweather.storms.detect_episodes`;
* :class:`DeltaPlanner` — maps ingest deltas to the minimal dirty
  (satellite, stage) set; with each history caching its own digest,
  warm-path cost scales with the delta;
* :class:`AlertEngine` — typed, deduplicated alert events journaled to
  the DataStore and metered through ``repro.obs``;
* :class:`StreamMonitor` — the composition, driven by the ``watch``
  and ``replay`` CLI subcommands and the :func:`repro.replay` facade.

Guarantee: replaying any chunking of a dataset through a monitor ends
at the same :func:`~repro.exec.digests.result_digest` as the one-shot
batch run.  See ``docs/STREAMING.md``.
"""

from __future__ import annotations

from repro.stream.alerts import Alert, AlertEngine, AlertKind
from repro.stream.chunks import FeedChunk, split_feed
from repro.stream.detector import OnlineStormDetector, StormDelta
from repro.stream.ingestor import IngestDelta, StreamIngestor, Watermarks
from repro.stream.monitor import StreamMonitor, StreamUpdate
from repro.stream.planner import DeltaPlanner, ReplanPlan

__all__ = [
    "Alert",
    "AlertEngine",
    "AlertKind",
    "DeltaPlanner",
    "FeedChunk",
    "IngestDelta",
    "OnlineStormDetector",
    "ReplanPlan",
    "StormDelta",
    "StreamIngestor",
    "StreamMonitor",
    "StreamUpdate",
    "Watermarks",
    "split_feed",
]
