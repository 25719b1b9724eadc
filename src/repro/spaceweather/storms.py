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
    if not len(series):
        return []

    times = series.times
    values = series.values
    with np.errstate(invalid="ignore"):
        below = np.isfinite(values) & (values <= threshold_nt)

    episodes: list[StormEpisode] = []
    run_start: int | None = None
    last_below: int | None = None
    for i in range(len(values) + 1):
        is_storm_hour = i < len(values) and bool(below[i])
        if is_storm_hour:
            if run_start is None:
                run_start = i
            elif last_below is not None:
                # Merge across the gap only when it is short *and* the
                # samples are truly consecutive hours (no data hole).
                gap_hours = round((times[i] - times[last_below]) / HOUR_S) - 1
                if gap_hours > merge_gap_hours:
                    episodes.append(_make_episode(times, values, below, run_start, last_below))
                    run_start = i
            last_below = i
        elif i == len(values) and run_start is not None and last_below is not None:
            episodes.append(_make_episode(times, values, below, run_start, last_below))
    return episodes


def _make_episode(
    times: np.ndarray,
    values: np.ndarray,
    below: np.ndarray,
    start_idx: int,
    end_idx: int,
) -> StormEpisode:
    storm_values = values[start_idx : end_idx + 1]
    mask = below[start_idx : end_idx + 1]
    peak = float(storm_values[mask].min())
    duration = int(round((times[end_idx] - times[start_idx]) / HOUR_S)) + 1
    return StormEpisode(
        start=Epoch.from_unix(float(times[start_idx])),
        end=Epoch.from_unix(float(times[end_idx]) + HOUR_S),
        peak_nt=peak,
        duration_hours=duration,
    )


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
    by_level: dict[StormLevel, list[StormEpisode]] = {
        level: [] for level in StormLevel if level is not StormLevel.QUIET
    }
    if not len(series):
        return by_level

    times = series.times
    values = series.values
    run_level: StormLevel | None = None
    run_start = 0
    run_peak = 0.0
    last_idx = 0

    def _flush(end_idx: int) -> None:
        if run_level is None or run_level is StormLevel.QUIET:
            return
        duration = int(round((times[end_idx] - times[run_start]) / HOUR_S)) + 1
        by_level[run_level].append(
            StormEpisode(
                start=Epoch.from_unix(float(times[run_start])),
                end=Epoch.from_unix(float(times[end_idx]) + HOUR_S),
                peak_nt=run_peak,
                duration_hours=duration,
            )
        )

    for i in range(len(values)):
        value = float(values[i])
        level = classify_dst(value) if np.isfinite(value) else None
        contiguous = (
            run_level is not None
            and i > 0
            and round((times[i] - times[last_idx]) / HOUR_S) == 1
        )
        if level is run_level and contiguous:
            run_peak = min(run_peak, value)
        else:
            if run_level is not None:
                _flush(last_idx)
            run_level = level
            run_start = i
            run_peak = value if level is not None else 0.0
        last_idx = i
    if run_level is not None:
        _flush(last_idx)
    return by_level
