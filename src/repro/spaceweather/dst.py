"""The :class:`DstIndex` container: hourly geomagnetic intensity.

Wraps a :class:`~repro.timeseries.TimeSeries` of hourly Dst samples
[nT] with the domain operations the paper's analyses need: intensity
percentiles (99th-ptile = -63 nT in the paper's window), band counting
(720 mild hours, 74 moderate hours), and high-intensity zone masks.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import SpaceWeatherError
from repro.spaceweather.scales import StormLevel, classify_dst
from repro.time import Epoch
from repro.timeseries import TimeSeries

HOUR_S = 3600.0


class DstIndex:
    """Hourly Dst index series."""

    __slots__ = ("_series",)

    def __init__(self, series: TimeSeries) -> None:
        """Wrap an hourly series of Dst samples.

        Timestamps must be whole hours apart, give or take one second
        (gaps are allowed; NaN samples mark missing hours).
        """
        if len(series) > 1:
            steps = np.diff(series.times)
            remainder = steps % HOUR_S
            # Modular closeness: dust can land just below the hour too.
            on_grid = (remainder < 1.0) | (remainder > HOUR_S - 1.0)
            if not on_grid.all():
                raise SpaceWeatherError("Dst samples must be on an hourly grid")
            # A step that rounds to zero hours would count one hour twice.
            if (np.rint(steps / HOUR_S) < 1).any():
                raise SpaceWeatherError("Dst samples must be at least one hour apart")
        self._series = series

    @classmethod
    def from_hourly(cls, start: Epoch, values_nt: "np.ndarray | list[float]") -> "DstIndex":
        """Build from a contiguous block of hourly values starting at *start*."""
        values = np.asarray(values_nt, dtype=np.float64)
        times = start.unix + HOUR_S * np.arange(values.size)
        return cls(TimeSeries(times, values))

    # --- basic protocol --------------------------------------------------
    @property
    def series(self) -> TimeSeries:
        """The underlying hourly time series."""
        return self._series

    def __len__(self) -> int:
        return len(self._series)

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(self._series)

    @property
    def start(self) -> Epoch:
        return self._series.start

    @property
    def end(self) -> Epoch:
        return self._series.end

    def value_at(self, when: Epoch) -> float:
        """Dst at the hour containing *when* (NaN when missing)."""
        return self._series.value_at(when, max_age_s=HOUR_S)

    def slice(self, start: Epoch | None = None, end: Epoch | None = None) -> "DstIndex":
        """Sub-index over ``[start, end)``."""
        return DstIndex(self._series.slice(start, end))

    def merge(self, other: "DstIndex") -> "DstIndex":
        """Splice another Dst block in (other wins on overlap)."""
        from repro.timeseries import merge_series

        return DstIndex(merge_series(self._series, other._series))

    # --- the paper's statistics --------------------------------------------
    def min_nt(self) -> float:
        """Peak (most negative) Dst in the window."""
        return self._series.min()

    def intensity_percentile(self, q: float) -> float:
        """Dst value such that *q* percent of hours are less intense.

        Intensity means "more negative Dst", so the 99th-ptile intensity
        is the 1st percentile of the raw Dst distribution — the paper's
        99th-ptile marker sits at -63 nT.
        """
        if not 0.0 <= q <= 100.0:
            raise SpaceWeatherError(f"percentile out of range: {q}")
        finite = self._series.values[np.isfinite(self._series.values)]
        if finite.size == 0:
            return float("nan")
        return float(np.percentile(finite, 100.0 - q))

    def hours_at_level(self, level: StormLevel) -> int:
        """Number of hours whose sample falls in *level*'s band."""
        finite = self._series.values[np.isfinite(self._series.values)]
        return sum(1 for v in finite if classify_dst(float(v)) is level)

    def level_hour_counts(self) -> dict[StormLevel, int]:
        """Hours per storm level across the whole window (Fig. 1 stats)."""
        counts = {level: 0 for level in StormLevel}
        finite = self._series.values[np.isfinite(self._series.values)]
        for v in finite:
            counts[classify_dst(float(v))] += 1
        return counts

    def high_intensity_mask(self, threshold_nt: float) -> np.ndarray:
        """Boolean mask of hours at/below *threshold_nt* (storm zones)."""
        with np.errstate(invalid="ignore"):
            return self._series.values <= threshold_nt

    def storm_hours(self, threshold_nt: float) -> TimeSeries:
        """Sub-series of hours at/below *threshold_nt*."""
        return self._series.where(self.high_intensity_mask(threshold_nt))

    def missing_hours(self) -> int:
        """Count of NaN (missing) samples."""
        return int(np.sum(~np.isfinite(self._series.values)))
