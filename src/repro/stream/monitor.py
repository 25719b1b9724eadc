"""The streaming monitor: chunks in, analyses and alerts out.

:class:`StreamMonitor` composes the streaming subsystem around one
long-lived :class:`~repro.core.pipeline.CosmicDance`:

* chunks flow through the :class:`~repro.stream.ingestor.StreamIngestor`
  into the pipeline's own ingest buffers;
* Dst deltas drive the :class:`~repro.stream.detector.
  OnlineStormDetector` (append path) or a rebuild (late data), and the
  resulting episode transitions alert immediately — storm alerting
  never waits for an analysis run;
* the :class:`~repro.stream.planner.DeltaPlanner` accumulates dirty
  satellites and predicts each refresh's dirty (satellite, stage)
  pairs; a :meth:`refresh` recomputes exactly those — everything else
  is a StageMemo hit, keyed by the digest each history caches;
* each refresh's trajectory triggers pass through the
  :class:`~repro.stream.alerts.AlertEngine` (deduplicated, journaled,
  metered).

Because the pipeline's science stages always run from the *complete*
ingested buffers, a replayed feed ends at the same
:func:`~repro.exec.digests.result_digest` as the one-shot batch run —
chunking changes cost, never results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.core.config import CosmicDanceConfig
from repro.core.pipeline import CosmicDance, PipelineResult
from repro.core.triggers import TriggerThresholds, trajectory_triggers
from repro.errors import StreamError
from repro.stream.alerts import Alert, AlertEngine
from repro.stream.chunks import FeedChunk
from repro.stream.detector import OnlineStormDetector, StormDelta
from repro.stream.ingestor import IngestDelta, StreamIngestor, Watermarks
from repro.stream.planner import DeltaPlanner, ReplanPlan

if TYPE_CHECKING:
    from repro.exec import StageMemo
    from repro.io.store import DataStore
    from repro.obs.tracer import NullTracer, Tracer

__all__ = ["StreamMonitor", "StreamUpdate"]


@dataclass(frozen=True, slots=True)
class StreamUpdate:
    """Everything one monitor step produced."""

    #: The chunk's ingest delta (None for a bare :meth:`refresh`).
    delta: IngestDelta | None
    #: Episode transitions the chunk caused (Dst chunks only).
    storm_delta: StormDelta | None
    #: The dirty-work plan of the refresh this step ran (if it ran one).
    plan: ReplanPlan | None
    #: The refreshed analysis result (None when no run happened).
    result: PipelineResult | None
    #: Alerts newly emitted during this step.
    alerts: tuple[Alert, ...] = ()
    watermarks: Watermarks | None = None

    @property
    def ran(self) -> bool:
        """Whether this step included an analysis refresh."""
        return self.result is not None


class StreamMonitor:
    """An always-on incremental CosmicDance.

    ``run_every`` sets the analysis cadence: after that many
    non-duplicate chunks (once both modalities are present) a
    :meth:`refresh` runs automatically inside :meth:`step`.  ``None``
    (the default) means refreshes are manual / end-of-replay only —
    storm alerting from the online detector works either way.
    """

    def __init__(
        self,
        config: CosmicDanceConfig | None = None,
        *,
        memo: "StageMemo | None" = None,
        tracer: "Tracer | NullTracer | None" = None,
        store: "DataStore | None" = None,
        detector: OnlineStormDetector | None = None,
        thresholds: TriggerThresholds | None = None,
        run_every: int | None = None,
        alert_log: str = "alerts",
    ) -> None:
        if run_every is not None and run_every < 1:
            raise StreamError(f"run_every must be at least 1: {run_every}")
        self.config = config or CosmicDanceConfig()
        self.planner = DeltaPlanner()
        self.pipeline = CosmicDance(self.config, memo=memo, tracer=tracer)
        self.ingestor = StreamIngestor(self.pipeline.ingest)
        self.detector = detector or OnlineStormDetector()
        self.alerts = AlertEngine(
            store, metrics=self.pipeline.metrics, log_name=alert_log
        )
        self.thresholds = thresholds or TriggerThresholds()
        self.run_every = run_every
        self._since_refresh = 0
        self._refreshed_once = False

    # --- state ------------------------------------------------------------
    @property
    def watermarks(self) -> Watermarks:
        return self.ingestor.watermarks

    @property
    def result(self) -> PipelineResult:
        """The latest refresh's result (raises before the first)."""
        return self.pipeline.result

    def ready(self) -> bool:
        """Whether both data modalities have arrived."""
        state = self.ingestor.state
        return (
            state.dst is not None
            and len(state.dst) > 0
            and len(state.catalog) > 0
        )

    # --- the chunk path ---------------------------------------------------
    def offer(self, chunk: FeedChunk) -> StreamUpdate:
        """Ingest one chunk and run the hot path (detector + storm
        alerts) — no analysis refresh."""
        tracer = self.pipeline.tracer
        metrics = self.pipeline.metrics
        with tracer.span("stream:chunk") as span:
            delta = self.ingestor.offer(chunk)
            metrics.counter("stream.chunks").inc()
            storm_delta: StormDelta | None = None
            alerts: list[Alert] = []
            if delta.duplicate:
                metrics.counter("stream.duplicates").inc()
            else:
                if delta.late:
                    metrics.counter("stream.late").inc()
                self.planner.note(delta)
                self._since_refresh += 1
                if delta.kind == "dst":
                    if delta.late:
                        # Backfill invalidates forward-only run state:
                        # re-derive it from the merged series.
                        storm_delta = self.detector.rebuild(
                            self.ingestor.state.dst
                        )
                    else:
                        assert delta.dst_block is not None
                        storm_delta = self.detector.observe(delta.dst_block)
                    alerts = self.alerts.emit(
                        self.alerts.from_storm_delta(storm_delta)
                    )
            if tracer.enabled:
                span.set(
                    chunk=chunk.chunk_id,
                    kind=chunk.kind,
                    duplicate=delta.duplicate,
                    late=delta.late,
                    alerts=len(alerts),
                )
        return StreamUpdate(
            delta=delta,
            storm_delta=storm_delta,
            plan=None,
            result=None,
            alerts=tuple(alerts),
            watermarks=self.ingestor.watermarks,
        )

    def step(self, chunk: FeedChunk) -> StreamUpdate:
        """Offer one chunk, refreshing per the ``run_every`` cadence."""
        update = self.offer(chunk)
        if (
            self.run_every is not None
            and self._since_refresh >= self.run_every
            and self.ready()
        ):
            refresh = self.refresh()
            update = StreamUpdate(
                delta=update.delta,
                storm_delta=update.storm_delta,
                plan=refresh.plan,
                result=refresh.result,
                alerts=update.alerts + refresh.alerts,
                watermarks=update.watermarks,
            )
        return update

    # --- analysis refresh -------------------------------------------------
    def refresh(self) -> StreamUpdate:
        """Run the analysis over everything ingested so far.

        The plan is computed first (a pure memo probe), so the update
        records exactly which (satellite, stage) pairs the run then
        recomputed; the planner commits only after the run succeeds.
        """
        catalog, _ = self.ingestor.state.require_ready()
        plan = self.planner.plan(
            catalog, memo=self.pipeline.memo, config=self.config
        )
        result = self.pipeline.run()
        self.planner.commit()
        self._since_refresh = 0
        self._refreshed_once = True
        self.pipeline.metrics.counter("stream.refreshes").inc()
        triggers = trajectory_triggers(
            result.trajectory_events,
            result.decay_assessments.values(),
            self.thresholds,
        )
        alerts = self.alerts.emit(self.alerts.from_triggers(triggers))
        return StreamUpdate(
            delta=None,
            storm_delta=None,
            plan=plan,
            result=result,
            alerts=tuple(alerts),
            watermarks=self.ingestor.watermarks,
        )

    def replay(self, chunks: "Iterable[FeedChunk]") -> list[StreamUpdate]:
        """Feed every chunk through :meth:`step`, guaranteeing a final
        refresh so the last update carries the complete-feed result —
        the batch-parity anchor."""
        updates = [self.step(chunk) for chunk in chunks]
        if self.ready() and (self._since_refresh > 0 or not self._refreshed_once):
            updates.append(self.refresh())
        return updates
