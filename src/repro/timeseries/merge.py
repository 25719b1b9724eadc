"""Multi-modal time-ordered merge — the "Ordering in time" step of §3.

The pipeline repeatedly needs to (a) align an irregular series (TLE
observations) onto a regular clock (hourly Dst) and (b) interleave
events from several sources into one ordered stream.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import TimeSeriesError
from repro.timeseries.series import TimeSeries


def align_to(
    series: TimeSeries,
    reference_times: np.ndarray | Sequence[float],
    *,
    max_age_s: float | None = None,
) -> TimeSeries:
    """Sample *series* at *reference_times* with last-observation-carried-forward.

    Reference timestamps that precede the first sample — or whose most
    recent sample is older than *max_age_s* — get NaN.  This is how TLE
    state (refreshed every <1 h … 154 h) is aligned to the hourly Dst
    clock without inventing trajectory data.
    """
    ref = np.asarray(reference_times, dtype=np.float64)
    if ref.ndim != 1:
        raise TimeSeriesError("reference_times must be one-dimensional")
    if ref.size > 1 and not np.all(np.diff(ref) > 0):
        raise TimeSeriesError("reference_times must be strictly increasing")
    if not len(series):
        return TimeSeries(ref, np.full(ref.shape, np.nan))

    idx = np.searchsorted(series.times, ref, side="right") - 1
    values = np.where(idx >= 0, series.values[np.clip(idx, 0, None)], np.nan)
    if max_age_s is not None:
        age = ref - series.times[np.clip(idx, 0, None)]
        values = np.where((idx >= 0) & (age <= max_age_s), values, np.nan)
    return TimeSeries(ref, values)


def merge_series(a: TimeSeries, b: TimeSeries) -> TimeSeries:
    """Union-merge two series; where both have a sample, *b* wins.

    Used to splice incrementally fetched TLE history onto a cached
    series (the paper's incremental-ingest behaviour).
    """
    times = np.union1d(a.times, b.times)
    values = np.empty_like(times)
    values[np.searchsorted(times, a.times)] = a.values
    values[np.searchsorted(times, b.times)] = b.values
    return TimeSeries(times, values)


def interleave(
    streams: Iterable[tuple[str, TimeSeries]],
) -> list[tuple[float, str, float]]:
    """Interleave labelled series into one ordered event list.

    Returns ``(unix_time, label, value)`` tuples sorted by time; ties
    are broken by label so the output is deterministic.
    """
    events: list[tuple[float, str, float]] = []
    for label, series in streams:
        events.extend((t, label, v) for t, v in series)
    events.sort(key=lambda e: (e[0], e[1]))
    return events


def common_window(series: Sequence[TimeSeries]) -> tuple[float, float] | None:
    """``(start, end)`` Unix seconds where all series overlap, or None."""
    nonempty = [s for s in series if len(s)]
    if not nonempty or len(nonempty) != len(series):
        return None
    start = max(float(s.times[0]) for s in nonempty)
    end = min(float(s.times[-1]) for s in nonempty)
    if start > end:
        return None
    return start, end
