"""Happens-closely-after relations between solar and trajectory events.

This module is the paper's central device: it never claims causality —
space systems have too many unknowns — but extracts temporally ordered
pairs (solar event A, trajectory change B) with B starting within a
bounded window after A, i.e. *B happens closely after A*.

Trajectory events come in two kinds, matching the only orbital
elements the paper found responsive to storms:

* **drag spike** — the fitted B* rises well above its rolling baseline;
* **decay onset** — the altitude starts dropping below the satellite's
  long-term median beyond the already-decaying threshold.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass

import numpy as np

from repro.core.cleaning import CleanedHistory
from repro.core.config import CosmicDanceConfig
from repro.core.decay import long_term_median_altitude
from repro.spaceweather.storms import StormEpisode
from repro.time import Epoch
from repro.timeseries.runs import runs


class TrajectoryEventKind(enum.Enum):
    """Kind of satellite trajectory change."""

    DRAG_SPIKE = "drag-spike"
    DECAY_ONSET = "decay-onset"


@dataclass(frozen=True, slots=True)
class TrajectoryEvent:
    """One detected trajectory change of one satellite."""

    catalog_number: int
    kind: TrajectoryEventKind
    epoch: Epoch
    #: Magnitude: B* ratio over baseline for drag spikes; altitude
    #: deficit below the long-term median [km] for decay onsets.
    magnitude: float


@dataclass(frozen=True, slots=True)
class Association:
    """A trajectory event happening closely after a storm episode."""

    episode: StormEpisode
    event: TrajectoryEvent
    #: Hours from episode start to the trajectory event.
    lag_hours: float


def detect_drag_spikes(
    cleaned: CleanedHistory,
    config: CosmicDanceConfig | None = None,
) -> list[TrajectoryEvent]:
    """B* excursions above the rolling baseline.

    The baseline is a trailing median over ``drag_baseline_days``; a
    spike event is emitted at the first record of each excursion run
    exceeding ``drag_spike_factor`` times the baseline.  Real TLEs can
    carry negative B*: a record whose baseline is <= 0 has no defined
    ratio and ends any open excursion, so the next spike after it is a
    new event.
    """
    config = config or CosmicDanceConfig()
    elements = cleaned.elements
    if len(elements) < 3:
        return []
    times = np.array([e.epoch.unix for e in elements])
    bstars = np.array([e.bstar for e in elements])
    window_s = config.drag_baseline_days * 86400.0
    window_start = np.searchsorted(times, times - window_s, side="left")
    baseline = _trailing_median(bstars, window_start)
    defined = baseline > 0
    ratio = np.divide(bstars, baseline, out=np.zeros_like(bstars), where=defined)
    first, _ = runs(defined & (ratio >= config.drag_spike_factor))
    return [
        TrajectoryEvent(
            catalog_number=cleaned.catalog_number,
            kind=TrajectoryEventKind.DRAG_SPIKE,
            epoch=elements[i].epoch,
            magnitude=float(ratio[i]),
        )
        for i in first.tolist()
    ]


def _trailing_median(values: np.ndarray, window_start: np.ndarray) -> np.ndarray:
    """``np.median(values[window_start[i] : i + 1])`` for every ``i``.

    *window_start* never decreases, so one sorted window slides forward:
    each record's value goes in, the values that left the window come
    out, and the median is read from the middle (for an even count the
    mean of the two middle values, as ``np.median`` computes it).
    """
    values = values.tolist()
    window: list[float] = []
    medians = []
    lo = 0
    for i, start in enumerate(window_start.tolist()):
        for gone in values[lo:start]:
            del window[bisect.bisect_left(window, gone)]
        lo = start
        bisect.insort(window, values[i])
        mid, odd = divmod(len(window), 2)
        medians.append(window[mid] if odd else (window[mid - 1] + window[mid]) / 2)
    return np.array(medians)


def detect_decay_onsets(
    cleaned: CleanedHistory,
    config: CosmicDanceConfig | None = None,
    *,
    min_consecutive: int = 3,
) -> list[TrajectoryEvent]:
    """Onsets of sustained altitude loss below the long-term median.

    A decay onset is the first record of a run of at least
    *min_consecutive* records sitting more than the already-decaying
    threshold below the satellite's long-term median — one TLE alone
    can be noise; a sustained run is a trajectory change.
    """
    config = config or CosmicDanceConfig()
    elements = cleaned.elements
    if len(elements) < min_consecutive:
        return []
    median = long_term_median_altitude(cleaned)
    deficits = np.array([median - e.altitude_km for e in elements])
    first, last = runs(deficits > config.already_decaying_threshold_km)
    return [
        TrajectoryEvent(
            catalog_number=cleaned.catalog_number,
            kind=TrajectoryEventKind.DECAY_ONSET,
            epoch=elements[i].epoch,
            magnitude=float(deficits[i : j + 1].max()),
        )
        for i, j in zip(first.tolist(), last.tolist())
        if j - i + 1 >= min_consecutive
    ]


def associate(
    episodes: list[StormEpisode],
    events: list[TrajectoryEvent],
    config: CosmicDanceConfig | None = None,
) -> list[Association]:
    """Pair trajectory events with the storm they closely follow.

    An event is associated with an episode when it occurs between the
    episode's start and ``association_window_hours`` after its end.
    When several episodes qualify, the most recent one (smallest lag)
    wins — the conservative choice for a happens-closely-after claim.
    """
    config = config or CosmicDanceConfig()
    window_h = config.association_window_hours
    ordered = sorted(episodes, key=lambda e: e.start.unix)
    associations: list[Association] = []
    for event in events:
        best: Association | None = None
        for episode in ordered:
            if episode.start.unix > event.epoch.unix:
                break
            lag_h = event.epoch.hours_since(episode.start)
            lag_after_end_h = event.epoch.hours_since(episode.end)
            if lag_after_end_h <= window_h:
                candidate = Association(episode=episode, event=event, lag_hours=lag_h)
                if best is None or candidate.lag_hours < best.lag_hours:
                    best = candidate
        if best is not None:
            associations.append(best)
    return associations
