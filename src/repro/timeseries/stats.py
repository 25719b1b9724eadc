"""Statistics used by the paper's analyses: percentiles and CDFs.

The paper reasons almost exclusively in percentiles of the observed Dst
distribution (80th/95th/99th-ptile intensity zones) and empirical CDFs
of altitude/drag changes, so those primitives live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import TimeSeriesError
from repro.timeseries.series import TimeSeries


def percentile(data: TimeSeries | np.ndarray | Sequence[float], q: float) -> float:
    """NaN-ignoring percentile ``q`` in [0, 100]."""
    values = data.values if isinstance(data, TimeSeries) else np.asarray(data, dtype=np.float64)
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return float("nan")
    return float(np.percentile(finite, q))


@dataclass(frozen=True, slots=True)
class CDF:
    """An empirical CDF: sorted sample points and cumulative probabilities."""

    xs: np.ndarray
    ps: np.ndarray

    def __len__(self) -> int:
        return int(self.xs.size)

    def quantile(self, p: float) -> float:
        """Inverse CDF at probability *p* in [0, 1]."""
        if not 0.0 <= p <= 1.0:
            raise TimeSeriesError(f"probability out of range: {p}")
        if not len(self):
            return float("nan")
        idx = int(np.searchsorted(self.ps, p, side="left"))
        return float(self.xs[min(idx, len(self) - 1)])

    def prob_at(self, x: float) -> float:
        """P(X <= x)."""
        if not len(self):
            return float("nan")
        idx = int(np.searchsorted(self.xs, x, side="right"))
        return 0.0 if idx == 0 else float(self.ps[idx - 1])

    def rows(self, probs: Sequence[float] = (0.05, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1.0)) -> list[tuple[float, float]]:
        """``(probability, quantile)`` rows for text rendering of a CDF plot."""
        return [(p, self.quantile(p)) for p in probs]


def empirical_cdf(data: TimeSeries | np.ndarray | Sequence[float]) -> CDF:
    """Empirical CDF of the finite samples of *data*."""
    values = data.values if isinstance(data, TimeSeries) else np.asarray(data, dtype=np.float64)
    finite = np.sort(values[np.isfinite(values)])
    if finite.size == 0:
        return CDF(np.empty(0), np.empty(0))
    ps = np.arange(1, finite.size + 1, dtype=np.float64) / finite.size
    return CDF(finite, ps)
