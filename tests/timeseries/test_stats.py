"""Unit tests for percentile/CDF statistics."""

import numpy as np
import pytest

from repro.errors import TimeSeriesError
from repro.timeseries import TimeSeries, empirical_cdf, percentile


class TestPercentile:
    def test_median(self):
        assert percentile([1.0, 2.0, 3.0], 50) == pytest.approx(2.0)

    def test_ignores_nan(self):
        assert percentile([1.0, float("nan"), 3.0], 50) == pytest.approx(2.0)

    def test_on_series(self):
        s = TimeSeries([0.0, 1.0, 2.0], [5.0, 10.0, 15.0])
        assert percentile(s, 100) == 15.0

    def test_empty_is_nan(self):
        assert np.isnan(percentile([], 50))


class TestEmpiricalCdf:
    def test_monotone(self):
        cdf = empirical_cdf([3.0, 1.0, 2.0])
        assert list(cdf.xs) == [1.0, 2.0, 3.0]
        assert list(cdf.ps) == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_quantile(self):
        cdf = empirical_cdf([1.0, 2.0, 3.0, 4.0])
        assert cdf.quantile(0.5) == 2.0
        assert cdf.quantile(1.0) == 4.0

    def test_quantile_out_of_range(self):
        cdf = empirical_cdf([1.0])
        with pytest.raises(TimeSeriesError):
            cdf.quantile(1.5)

    def test_prob_at(self):
        cdf = empirical_cdf([1.0, 2.0, 3.0])
        assert cdf.prob_at(0.5) == 0.0
        assert cdf.prob_at(2.0) == pytest.approx(2 / 3)
        assert cdf.prob_at(10.0) == 1.0

    def test_rows(self):
        cdf = empirical_cdf(np.arange(100.0))
        rows = cdf.rows(probs=(0.5, 1.0))
        assert rows[0][0] == 0.5
        assert rows[1][1] == 99.0

    def test_empty(self):
        cdf = empirical_cdf([])
        assert len(cdf) == 0
        assert np.isnan(cdf.quantile(0.5))
