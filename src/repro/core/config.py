"""Pipeline configuration.

Defaults mirror the paper's empirically set values: the 650 km
gross-error altitude cut (§A.2), the 5 km already-decaying threshold
(§3, "empirically set; configurable"), the 30-day post-event window and
15-day quiet window (Fig. 4), and the percentile markers used
throughout §4-5.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PipelineError


@dataclass(frozen=True, slots=True)
class CosmicDanceConfig:
    """All tunables of the CosmicDance pipeline."""

    #: TLEs implying altitudes above this are tracking errors (§A.2).
    max_valid_altitude_km: float = 650.0
    #: ... and below this the object is re-entering, not orbiting.
    min_valid_altitude_km: float = 150.0
    #: Tolerance for declaring orbit raising finished [km].
    orbit_raising_tolerance_km: float = 5.0
    #: A satellite whose pre-event altitude sits more than this far
    #: below its long-term median has started decaying already and is
    #: excluded from post-event analyses [km].
    already_decaying_threshold_km: float = 5.0
    #: Post-event observation window (Fig. 4(a)) [days].
    post_event_window_days: float = 30.0
    #: Quiet-case observation window (Fig. 4(b)) [days].
    quiet_window_days: float = 15.0
    #: Percentile of intensity below which an epoch counts as quiet.
    quiet_percentile: float = 80.0
    #: No hour in a quiet window may reach this Dst level (the WDC's
    #: "geomagnetic activity is high below -50 nT" convention).
    quiet_active_threshold_nt: float = -50.0
    #: Percentile above which an event is high-intensity (Fig. 5).
    high_percentile: float = 95.0
    #: Percentile defining the storm-event threshold (Fig. 6, red lines
    #: in Fig. 3; the paper's marker sits at -63 nT).
    event_percentile: float = 99.0
    #: Maximum lag for a trajectory change to count as happening
    #: *closely after* a solar event [hours].
    association_window_hours: float = 72.0
    #: Altitude drop that flags permanent decay [km].
    permanent_decay_threshold_km: float = 15.0
    #: B* spike factor over the rolling baseline that flags a drag event.
    drag_spike_factor: float = 2.5
    #: Rolling baseline window for B* spikes [days].
    drag_baseline_days: float = 30.0
    #: Fail fast: re-raise the first per-satellite failure inside
    #: ``run()`` instead of quarantining the satellite and continuing
    #: (see ``docs/ROBUSTNESS.md``).
    strict: bool = False
    #: Memoize per-satellite stage outcomes by (history digest, config
    #: digest) so re-runs after incremental ingest only recompute dirty
    #: satellites.
    cache_stages: bool = True
    #: Record a span tree (run → stage → satellite) plus run metrics
    #: through :mod:`repro.obs`.  Off by default: the null tracer makes
    #: every instrumentation point a no-op and no ``obs/`` I/O happens
    #: (see ``docs/OBSERVABILITY.md``).
    trace: bool = False

    def __post_init__(self) -> None:
        if self.max_valid_altitude_km <= self.min_valid_altitude_km:
            raise PipelineError("altitude validity range is empty")
        if self.already_decaying_threshold_km <= 0:
            raise PipelineError("already-decaying threshold must be positive")
        if not 0 < self.quiet_percentile <= self.high_percentile <= self.event_percentile <= 100:
            raise PipelineError(
                "percentiles must satisfy 0 < quiet <= high <= event <= 100"
            )
        if self.association_window_hours <= 0:
            raise PipelineError("association window must be positive")
