"""The CosmicDance pipeline orchestrator — the library's front door.

**Preferred API** — the one-shot facade :func:`repro.api.analyze`::

    from repro import analyze

    result = analyze(dst_index, tle_records)
    result.storm_episodes          # detected solar events
    result.associations            # trajectory changes closely after them

Hold a :class:`CosmicDance` instead when you need the incremental-fetch
loop (ingest more data, ``run()`` again) or the post-run analysis
delegates::

    from repro import CosmicDance

    cd = CosmicDance()
    cd.ingest.add_dst(dst_index)
    cd.ingest.add_elements(tle_records)
    result = cd.run()
    cd.post_event_curves(event)    # Fig. 4-style window analysis

The pipeline is deliberately stage-wise and recomputable: ``run()`` can
be called again after more data arrives (the incremental-fetch pattern
of the original tool).  The per-satellite fleet stage (clean → detect →
assess) runs in one in-process loop, and its outcomes are memoized per
satellite by content digest (``config.cache_stages``) so a re-run only
recomputes satellites whose ingested records changed.  See
``docs/EXECUTION.md``.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.analysis import (
    AltitudeChangeSample,
    DragChangeSample,
    FleetDragDay,
    altitude_change_samples,
    drag_change_samples,
    fleet_drag_daily,
    quiet_epochs,
)
from repro.core.cleaning import (
    CleanedHistory,
    CleaningReport,
    clean_catalog,
    clean_history,
)
from repro.core.config import CosmicDanceConfig
from repro.core.decay import DecayAssessment, DecayState, assess_decay
from repro.core.ingest import IngestState
from repro.core.ordering import SatelliteTimeline, satellite_timeline
from repro.core.relations import (
    Association,
    TrajectoryEvent,
    associate,
    detect_decay_onsets,
    detect_drag_spikes,
)
from repro.core.windows import AltitudeChangeCurves, post_event_curves
from repro.errors import PipelineError
from repro.exec import SATELLITE_SPAN, SatelliteOutcome, StageMemo, config_digest
from repro.obs.metrics import NULL_METRICS, MetricsRegistry, NullMetrics
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer
from repro.robustness.health import QuarantineLedger, RunHealth, StageHealth
from repro.spaceweather.dst import DstIndex
from repro.spaceweather.storms import StormEpisode, detect_episodes
from repro.time import Epoch
from repro.tle.catalog import SatelliteCatalog, SatelliteHistory

if TYPE_CHECKING:
    from repro.core.attribution import StormImpact
    from repro.core.conjunction import ConjunctionReport
    from repro.core.geography import BandExposure
    from repro.core.prediction import ReentryPrediction
    from repro.core.triggers import MeasurementCampaign, TriggerPolicy
    from repro.orbits.shells import Shell


logger = logging.getLogger("repro.core.pipeline")

__all__ = [
    "CosmicDance",
    "PipelineResult",
    "process_satellite",
]


@dataclass(frozen=True, slots=True)
class PipelineResult:
    """Everything one ``run()`` produced."""

    config: CosmicDanceConfig
    dst: DstIndex
    cleaned: dict[int, CleanedHistory]
    cleaning_report: CleaningReport
    #: Dst threshold for the event percentile (the paper's -63 nT line).
    event_threshold_nt: float
    #: Storm episodes at/below the event threshold.
    storm_episodes: list[StormEpisode]
    #: Detected per-satellite trajectory events.
    trajectory_events: list[TrajectoryEvent]
    #: happens-closely-after pairs.
    associations: list[Association]
    #: End-of-record decay assessment per satellite.
    decay_assessments: dict[int, DecayAssessment]
    #: Degradation record: what was quarantined where, and why.
    health: RunHealth = field(default_factory=RunHealth.empty)

    @property
    def permanently_decayed(self) -> list[DecayAssessment]:
        """Satellites in permanent decay at end of record — the service-
        hole corner case CosmicDance is built to flag."""
        return [
            a
            for a in self.decay_assessments.values()
            if a.state is DecayState.PERMANENT_DECAY
        ]


def process_satellite(
    history: SatelliteHistory, config: CosmicDanceConfig, *, capture: bool = True
) -> SatelliteOutcome:
    """The per-satellite stage over one live history: clean → detect → assess.

    :meth:`CosmicDance.run` looks this name up in the module globals at
    call time, and detection/assessment go through this module's
    globals too, on purpose: the robustness suite's fault-injection
    seam monkeypatches them here.

    With ``capture=True`` an exception becomes the outcome's ``error``
    fields (the pipeline quarantines the satellite); ``capture=False``
    lets it propagate — strict mode's fail-fast.
    """
    number = history.catalog_number
    stage = "clean"
    report: CleaningReport | None = None
    try:
        cleaned = clean_history(history, config)
        report = cleaned.report
        if not len(cleaned):
            # Every record filtered out: a valid (cacheable) outcome,
            # matching clean_catalog's silent drop of empty histories.
            return SatelliteOutcome(
                catalog_number=number,
                cleaned=None,
                events=(),
                assessment=None,
                report=report,
            )
        stage = "detect"
        events = list(detect_drag_spikes(cleaned, config))
        events.extend(detect_decay_onsets(cleaned, config))
        stage = "assess"
        assessment = assess_decay(cleaned, config)
    except Exception as exc:
        if not capture:
            raise
        if report is None:
            report = CleaningReport(len(history), 0, 0, 0)
        return SatelliteOutcome(
            catalog_number=number,
            cleaned=None,
            events=(),
            assessment=None,
            report=report,
            error=f"{type(exc).__name__}: {exc}",
            error_stage=stage,
        )
    return SatelliteOutcome(
        catalog_number=number,
        cleaned=cleaned,
        events=tuple(events),
        assessment=assessment,
        report=report,
    )


class CosmicDance:
    """The measurement pipeline (paper §3).

    ``memo`` overrides the per-instance stage cache (pass a shared
    :class:`~repro.exec.StageMemo` to pool memoization across
    pipelines, or rely on ``config.cache_stages`` for the default);
    ``tracer`` overrides the one implied by ``config.trace`` (pass a
    live :class:`~repro.obs.Tracer` to capture spans across several
    runs, or rely on the flag — off means the null tracer and zero
    observability overhead).
    """

    def __init__(
        self,
        config: CosmicDanceConfig | None = None,
        *,
        memo: StageMemo | None = None,
        tracer: "Tracer | NullTracer | None" = None,
    ) -> None:
        self.config = config or CosmicDanceConfig()
        self.ingest = IngestState()
        if memo is not None:
            self.memo: StageMemo | None = memo
        else:
            self.memo = StageMemo() if self.config.cache_stages else None
        if tracer is not None:
            self.tracer = tracer
        else:
            self.tracer = Tracer() if self.config.trace else NULL_TRACER
        self.metrics: MetricsRegistry | NullMetrics = (
            MetricsRegistry() if self.tracer.enabled else NULL_METRICS
        )
        if self.tracer.enabled and self.memo is not None and self.memo.metrics is None:
            self.memo.metrics = self.metrics
        self._result: PipelineResult | None = None

    @property
    def ledger(self) -> QuarantineLedger:
        """The shared ingest-time quarantine ledger (hydrators append
        storage skips here; each ``run()`` folds a snapshot of it into
        that run's ``PipelineResult.health``)."""
        return self.ingest.ledger

    # --- orchestration ------------------------------------------------------
    def run(self) -> PipelineResult:
        """Clean, detect storms, extract relations; returns the result."""
        catalog, dst = self.ingest.require_ready()
        logger.info(
            "run: %d satellites, %d TLE records, %d Dst hours",
            len(catalog), catalog.total_records(), len(dst),
        )
        # Per-run ledger: starts from a snapshot of everything ingestion
        # quarantined so far, then collects this run's own entries.
        # Folding a *snapshot* (not the live ledger) keeps repeated
        # run() calls from double-counting earlier runs' entries.
        run_ledger = QuarantineLedger(self.ingest.ledger.snapshot())
        with self.tracer.span("run", satellites=len(catalog)):
            return self._run_stages(catalog, dst, run_ledger)

    def _run_stages(
        self,
        catalog: "SatelliteCatalog",
        dst: DstIndex,
        run_ledger: QuarantineLedger,
    ) -> PipelineResult:
        """One run's stage sequence (fleet → storms → associate), inside
        the caller's open ``run`` span."""
        # Fleet stage: clean → detect → assess, one isolated unit per
        # satellite.  One history tripping an exception must not abort
        # the fleet: failures quarantine the satellite (or, with
        # config.strict, re-raise).
        with self.tracer.span("stage:fleet") as fleet_span:
            fleet_started = time.perf_counter()
            # Sorted by catalog number so results (event order, digests)
            # are independent of ingestion order — chunked/streaming
            # ingest must land on the same bytes as a one-shot batch.
            histories = [catalog.get(number) for number in catalog.catalog_numbers]
            cfg_digest = config_digest(self.config)
            outcomes: dict[int, SatelliteOutcome] = {}
            dirty: list[SatelliteHistory] = []
            cache_quarantined: list[str] = []
            if self.memo is not None:
                for history in histories:
                    hit = self.memo.get(
                        history, cfg_digest, quarantined=cache_quarantined
                    )
                    if hit is None:
                        dirty.append(history)
                        continue
                    outcomes[history.catalog_number] = hit
                    # An instantaneous marker span: the stage never runs
                    # for a hit, and the memo lookup just happened.
                    with self.tracer.span(
                        SATELLITE_SPAN,
                        catalog_number=history.catalog_number,
                        records=len(history),
                        cache="hit",
                    ):
                        pass
                cache_hits, cache_misses = len(outcomes), len(dirty)
            else:
                dirty = histories
                cache_hits = cache_misses = 0
            # process_satellite is resolved from the module globals on
            # every call, so anything that rebinds it (fault injection,
            # profiling wrappers) takes effect.
            capture = not self.config.strict
            for history in dirty:
                with self.tracer.span(
                    SATELLITE_SPAN,
                    catalog_number=history.catalog_number,
                    records=len(history),
                    cache="miss",
                ) as span:
                    outcome = process_satellite(history, self.config, capture=capture)
                    if outcome.error is not None:
                        span.set(
                            quarantined=True,
                            error_stage=outcome.error_stage,
                            reason=outcome.error,
                        )
                if self.memo is not None:
                    self.memo.put(history, cfg_digest, outcome)
                outcomes[history.catalog_number] = outcome

            events: list[TrajectoryEvent] = []
            assessments: dict[int, DecayAssessment] = {}
            cleaned: dict[int, CleanedHistory] = {}
            report = CleaningReport(0, 0, 0, 0)
            quarantined = 0
            # Catalog order again: memo hits and recomputes interleave.
            for number in sorted(outcomes):
                outcome = outcomes[number]
                if outcome.report is not None:
                    report = report + outcome.report
                if outcome.error is not None:
                    quarantined += 1
                    run_ledger.quarantine_satellite(
                        number, outcome.error_stage or "detect", outcome.error
                    )
                    logger.warning(
                        "quarantined satellite %d in %s: %s",
                        number, outcome.error_stage, outcome.error,
                    )
                    continue
                if outcome.cleaned is None:
                    continue
                cleaned[number] = outcome.cleaned
                events.extend(outcome.events)
                assessments[number] = outcome.assessment
            fleet_elapsed = time.perf_counter() - fleet_started
            fleet_span.set(
                attempted=len(histories),
                quarantined=quarantined,
                cache_hits=cache_hits,
                cache_misses=cache_misses,
                cache_quarantined=len(cache_quarantined),
            )
        logger.info(
            "cleaning: kept %d/%d records (%d gross errors, %d orbit-raising)",
            report.kept, report.total_records,
            report.gross_errors, report.orbit_raising,
        )
        if quarantined:
            logger.warning(
                "fleet stage quarantined %d/%d satellite(s)",
                quarantined, len(histories),
            )
        if cache_hits:
            logger.info(
                "stage cache: %d hit(s), %d recompute(s)",
                cache_hits, cache_misses,
            )

        with self.tracer.span("stage:storms") as storms_span:
            storms_started = time.perf_counter()
            threshold = dst.intensity_percentile(self.config.event_percentile)
            episodes = detect_episodes(dst, threshold)
            storms_elapsed = time.perf_counter() - storms_started
            storms_span.set(
                episodes=len(episodes), threshold_nt=round(threshold, 3)
            )
        logger.info(
            "storms: %d episodes at/below %.1f nT", len(episodes), threshold
        )

        with self.tracer.span("stage:associate") as associate_span:
            associate_started = time.perf_counter()
            associations = associate(episodes, events, self.config)
            associate_elapsed = time.perf_counter() - associate_started
            associate_span.set(
                events=len(events), associations=len(associations)
            )
        logger.info(
            "relations: %d trajectory events, %d happen closely after storms",
            len(events), len(associations),
        )
        metrics = self.metrics
        metrics.counter("fleet.satellites").inc(len(histories))
        metrics.counter("fleet.quarantined").inc(quarantined)
        metrics.counter("fleet.cache_hits").inc(cache_hits)
        metrics.counter("fleet.cache_misses").inc(cache_misses)
        metrics.gauge("stage.fleet.elapsed_s").set(fleet_elapsed)
        metrics.gauge("stage.storms.elapsed_s").set(storms_elapsed)
        metrics.gauge("stage.associate.elapsed_s").set(associate_elapsed)
        decayed = [
            a for a in assessments.values()
            if a.state is DecayState.PERMANENT_DECAY
        ]
        if decayed:
            logger.warning(
                "permanent decay flagged for %d satellite(s): %s",
                len(decayed),
                ", ".join(str(a.catalog_number) for a in decayed[:10]),
            )
        health = RunHealth.from_ledger(
            stages=(
                StageHealth(
                    stage="fleet",
                    attempted=len(histories),
                    succeeded=len(histories) - quarantined,
                    quarantined=quarantined,
                    elapsed_s=fleet_elapsed,
                ),
                StageHealth(
                    stage="storms",
                    attempted=1,
                    succeeded=1,
                    quarantined=0,
                    elapsed_s=storms_elapsed,
                ),
                StageHealth(
                    stage="associate",
                    attempted=1,
                    succeeded=1,
                    quarantined=0,
                    elapsed_s=associate_elapsed,
                ),
            ),
            ledger=run_ledger,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            cache_quarantined=len(cache_quarantined),
            metrics=self.metrics.snapshot(),
        )
        self._result = PipelineResult(
            config=self.config,
            dst=dst,
            cleaned=cleaned,
            cleaning_report=report,
            event_threshold_nt=threshold,
            storm_episodes=episodes,
            trajectory_events=events,
            associations=associations,
            decay_assessments=assessments,
            health=health,
        )
        return self._result

    @property
    def result(self) -> PipelineResult:
        """The latest run's result (raises before the first run)."""
        if self._result is None:
            raise PipelineError("call run() before reading results")
        return self._result

    # --- analyses on the latest result -------------------------------------
    def post_event_curves(
        self,
        event: Epoch,
        *,
        window_days: float | None = None,
        affected_only: bool = True,
    ) -> AltitudeChangeCurves:
        """Fig. 4-style altitude deviation curves after *event*."""
        return post_event_curves(
            self.result.cleaned,
            event,
            config=self.config,
            window_days=window_days,
            affected_only=affected_only,
        )

    def altitude_changes(
        self, events: list[Epoch], *, window_days: float | None = None
    ) -> list[AltitudeChangeSample]:
        """Fig. 5/6-style altitude-change samples over *events*."""
        return altitude_change_samples(
            self.result.cleaned, events, config=self.config, window_days=window_days
        )

    def drag_changes(
        self, events: list[Epoch], *, window_days: float = 7.0
    ) -> list[DragChangeSample]:
        """Fig. 5(c)/6(c)-style drag-change samples over *events*."""
        return drag_change_samples(
            self.result.cleaned, events, config=self.config, window_days=window_days
        )

    def quiet_epochs(self, *, count: int = 10, seed: int = 0) -> list[Epoch]:
        """Baseline epochs with no storms around."""
        return quiet_epochs(self.result.dst, config=self.config, count=count, seed=seed)

    def fleet_drag(self, start: Epoch, end: Epoch) -> list[FleetDragDay]:
        """Fig. 7-style daily fleet drag and tracked-count rows."""
        return fleet_drag_daily(self.result.cleaned, self.result.dst, start, end)

    def timeline(self, catalog_number: int) -> SatelliteTimeline:
        """Fig. 3-style merged timeline of one satellite."""
        cleaned = self.result.cleaned.get(catalog_number)
        if cleaned is None:
            raise PipelineError(
                f"satellite {catalog_number} absent from cleaned data"
            )
        return satellite_timeline(cleaned, self.result.dst)

    def storm_impacts(self) -> list["StormImpact"]:
        """Per-storm impact ledger (relations rolled up in aggregate)."""
        from repro.core.attribution import storm_impact_ledger

        result = self.result
        return storm_impact_ledger(
            result.cleaned,
            result.storm_episodes,
            result.associations,
            config=self.config,
        )

    def reentry_predictions(self) -> list["ReentryPrediction"]:
        """Re-entry date estimates for permanently decaying satellites."""
        from repro.core.prediction import predict_fleet_reentries

        return predict_fleet_reentries(self.result.cleaned, config=self.config)

    def band_exposure(
        self,
        *,
        edges: tuple[float, ...] | None = None,
        step_minutes: float = 20.0,
        max_satellites: int | None = None,
    ) -> "BandExposure":
        """§6 extension: storm exposure by absolute-latitude band.

        Keyword-only: *edges* (absolute-latitude band boundaries [deg];
        default :data:`~repro.core.geography.DEFAULT_BAND_EDGES`),
        *step_minutes* (propagation sampling grid), *max_satellites*
        (cost cap for large fleets).
        """
        from repro.core.geography import DEFAULT_BAND_EDGES, storm_band_exposure

        return storm_band_exposure(
            self.result.cleaned,
            self.result.storm_episodes,
            edges=edges if edges is not None else DEFAULT_BAND_EDGES,
            step_minutes=step_minutes,
            max_satellites=max_satellites,
        )

    def conjunctions(
        self,
        *,
        shells: tuple["Shell", ...] | None = None,
        half_width_km: float = 2.5,
    ) -> "ConjunctionReport":
        """§6 extension: shell-trespass and conjunction-pressure report.

        Keyword-only: *shells* (the slot layout to test against;
        default :data:`~repro.orbits.shells.STARLINK_SHELLS`),
        *half_width_km* (slot half-width).
        """
        from repro.core.conjunction import conjunction_report
        from repro.orbits.shells import STARLINK_SHELLS

        return conjunction_report(
            self.result.cleaned,
            shells=shells if shells is not None else STARLINK_SHELLS,
            half_width_km=half_width_km,
        )

    def measurement_campaigns(
        self, policy: "TriggerPolicy | None" = None
    ) -> list["MeasurementCampaign"]:
        """§6 extension: LEOScope-style storm-triggered campaign schedule."""
        from repro.core.triggers import schedule_campaigns

        return schedule_campaigns(self.result.storm_episodes, policy)

    def storm_triggers(self, *, threshold_nt: float | None = None) -> list[StormEpisode]:
        """Storm episodes usable as measurement triggers.

        This is the integration hook the paper proposes for LEOScope:
        active network measurements can be scheduled off these events.
        When *threshold_nt* is omitted the event-percentile threshold of
        the latest run is used.
        """
        if threshold_nt is None:
            return list(self.result.storm_episodes)
        return detect_episodes(self.result.dst, threshold_nt)
