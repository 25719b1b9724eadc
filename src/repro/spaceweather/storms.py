"""Storm-episode detection and duration statistics (paper §4, Fig. 2).

An **episode** is a maximal run of contiguous hours whose Dst is at or
below a threshold.  Short gaps (the index briefly recovering above the
threshold) can be merged so a single physical storm with a double main
phase counts once — the paper's duration figures count contiguous hours,
so merging defaults to off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import SpaceWeatherError
from repro.spaceweather.dst import HOUR_S, DstIndex
from repro.spaceweather.scales import (
    StormLevel,
    classify_dst,
    g_scale_for_level,
)
from repro.time import Epoch
from repro.timeseries.runs import runs


@dataclass(frozen=True, slots=True)
class StormEpisode:
    """One contiguous storm: a run of hours at/below a threshold."""

    #: First hour at/below the threshold.
    start: Epoch
    #: First hour after the episode (half-open interval).
    end: Epoch
    #: Most negative Dst reached [nT].
    peak_nt: float
    #: Hour count of the episode.
    duration_hours: int

    @property
    def level(self) -> StormLevel:
        """Storm level implied by the episode's peak intensity."""
        return classify_dst(self.peak_nt)

    @property
    def peak_epoch_bounds(self) -> tuple[Epoch, Epoch]:
        """The episode's time bounds (alias for readability at call sites)."""
        return self.start, self.end

    def contains(self, when: Epoch) -> bool:
        """Whether *when* falls inside the episode."""
        return self.start <= when < self.end

    @classmethod
    def spanning(cls, first_t: float, last_t: float, peak_nt: float) -> "StormEpisode":
        """The episode whose first and last storm hours begin at Unix
        times *first_t* and *last_t*, peaking at *peak_nt*."""
        return cls(
            start=Epoch.from_unix(first_t),
            end=Epoch.from_unix(last_t + HOUR_S),
            peak_nt=peak_nt,
            duration_hours=int(round((last_t - first_t) / HOUR_S)) + 1,
        )


def episode_row(episode: StormEpisode) -> dict[str, Any]:
    """One episode as a JSON-ready row — the shape shared by the CLI's
    ``--json`` output and the service's ``query-episodes`` op."""
    scale = g_scale_for_level(episode.level)
    return {
        "start": episode.start.isoformat(),
        "end": episode.end.isoformat(),
        "peak_nt": episode.peak_nt,
        "duration_hours": episode.duration_hours,
        "level": episode.level.name,
        "g_scale": scale.name if scale is not None else None,
    }


def detect_episodes(
    dst: DstIndex,
    threshold_nt: float,
    *,
    merge_gap_hours: int = 0,
) -> list[StormEpisode]:
    """Detect storm episodes at/below *threshold_nt*.

    Hours with missing data (NaN) break an episode unless bridged by
    *merge_gap_hours*.  Episodes separated by at most *merge_gap_hours*
    quiet hours are merged into one.
    """
    if merge_gap_hours < 0:
        raise SpaceWeatherError(f"merge gap must be non-negative: {merge_gap_hours}")
    series = dst.series
    with np.errstate(invalid="ignore"):
        below = np.isfinite(series.values) & (series.values <= threshold_nt)
    spans = episode_spans(series.times, series.values, below, max_gap=merge_gap_hours)
    return [StormEpisode.spanning(*span) for span in spans]


def episode_spans(
    times: np.ndarray,
    values: np.ndarray,
    storm: np.ndarray,
    *,
    max_gap: int = 0,
) -> list[tuple[float, float, float]]:
    """``(first_t, last_t, peak_nt)`` of every maximal run of *storm*
    hours, merging runs at most *max_gap* hours apart; the peak is the
    lowest of the run's storm-hour *values*."""
    first, last = runs(storm, times, HOUR_S, max_gap=max_gap)
    peaks = np.minimum.reduceat(np.where(storm, values, np.inf), first)
    return list(zip(times[first].tolist(), times[last].tolist(), peaks.tolist()))


@dataclass(frozen=True, slots=True)
class DurationStats:
    """Duration statistics of a set of episodes (Fig. 2 rows)."""

    count: int
    median_hours: float
    p95_hours: float
    p99_hours: float
    max_hours: float


def duration_stats(episodes: list[StormEpisode]) -> DurationStats:
    """Median/95th/99th/max duration across *episodes*."""
    if not episodes:
        nan = float("nan")
        return DurationStats(0, nan, nan, nan, nan)
    durations = np.array([e.duration_hours for e in episodes], dtype=np.float64)
    return DurationStats(
        count=len(episodes),
        median_hours=float(np.median(durations)),
        p95_hours=float(np.percentile(durations, 95)),
        p99_hours=float(np.percentile(durations, 99)),
        max_hours=float(durations.max()),
    )


def episodes_by_level(dst: DstIndex) -> dict[StormLevel, list[StormEpisode]]:
    """Band-restricted episodes per storm level (Fig. 2's categories).

    The paper's per-category durations count contiguous hours spent
    *within* a category's own intensity band — its lone severe storm
    "lasted for 3 contiguous hours" because exactly 3 hours sat in the
    severe band, even though the surrounding hours were still stormy.
    Accordingly, an episode here is a maximal run of hours classified
    at exactly one level.
    """
    series = dst.series
    values = series.values
    finite = np.isfinite(values)
    levels = np.full(values.shape, -1)  # NaN hours get no level
    levels[finite] = [classify_dst(value) for value in values[finite].tolist()]
    return {
        level: [
            StormEpisode.spanning(*span)
            for span in episode_spans(series.times, values, levels == level)
        ]
        for level in StormLevel
        if level is not StormLevel.QUIET
    }
