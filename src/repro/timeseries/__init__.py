"""Numpy-backed time-series substrate (pandas replacement).

The CosmicDance pipeline merges two multi-modal data streams — hourly
Dst samples and irregular TLE observations — into one time-ordered
representation.  This package provides the ordered-series container and
the merge, run-finding and statistics helpers that operation needs.
"""

from repro.timeseries.correlate import LagCorrelation, lag_correlation
from repro.timeseries.merge import align_to, interleave, merge_series
from repro.timeseries.series import TimeSeries
from repro.timeseries.stats import empirical_cdf, percentile

__all__ = [
    "LagCorrelation",
    "TimeSeries",
    "align_to",
    "lag_correlation",
    "empirical_cdf",
    "interleave",
    "merge_series",
    "percentile",
]
