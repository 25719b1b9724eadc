"""Unit tests for the DstIndex container."""

import numpy as np
import pytest

from repro.errors import InputError, SpaceWeatherError
from repro.inputs import coerce_dst
from repro.spaceweather import DstIndex, StormLevel
from repro.time import Epoch
from repro.timeseries import TimeSeries


class TestConstruction:
    def test_from_hourly(self):
        dst = DstIndex.from_hourly(Epoch.from_calendar(2023, 1, 1), [-10.0, -20.0])
        assert len(dst) == 2
        assert dst.start == Epoch.from_calendar(2023, 1, 1)

    def test_rejects_off_grid_samples(self):
        series = TimeSeries([0.0, 1800.0], [-10.0, -20.0])
        with pytest.raises(SpaceWeatherError):
            DstIndex(series)

    def test_rejects_samples_under_half_an_hour_apart(self):
        # 0.5 s is within the grid's one-second dust, but the two samples
        # would count one hour twice (one 2-hour episode of 3 storm hours).
        series = TimeSeries([0.0, 0.5, 3600.5], [-60.0, -70.0, -80.0])
        with pytest.raises(SpaceWeatherError, match="at least one hour apart"):
            DstIndex(series)

    def test_sub_second_steps_in_text_are_input_errors(self):
        text = (
            "timestamp,dst_nt\n"
            "2023-01-01T00:00:00,-60\n"
            "2023-01-01T00:00:00.5,-70\n"
            "2023-01-01T01:00:00.5,-80\n"
        )
        with pytest.raises(InputError, match="at least one hour apart"):
            coerce_dst(text)

    def test_allows_gaps_of_whole_hours(self):
        series = TimeSeries([0.0, 7200.0], [-10.0, -20.0])
        assert len(DstIndex(series)) == 2


class TestAccess:
    def test_value_at_within_hour(self):
        dst = DstIndex.from_hourly(Epoch.from_calendar(2023, 1, 1), [-10.0, -20.0])
        at = Epoch.from_calendar(2023, 1, 1, 0, 30)
        assert dst.value_at(at) == -10.0

    def test_value_at_gap_is_nan(self):
        series = TimeSeries([0.0, 7200.0], [-10.0, -20.0])
        dst = DstIndex(series)
        assert np.isnan(dst.value_at(Epoch.from_unix(3600.0 + 10)))

    def test_slice(self):
        dst = DstIndex.from_hourly(Epoch.from_calendar(2023, 1, 1), [-1.0] * 48)
        day2 = dst.slice(Epoch.from_calendar(2023, 1, 2), None)
        assert len(day2) == 24

    def test_merge_other_wins(self):
        a = DstIndex.from_hourly(Epoch.from_calendar(2023, 1, 1), [-1.0, -1.0])
        b = DstIndex.from_hourly(Epoch.from_calendar(2023, 1, 1), [-9.0, -9.0])
        assert a.merge(b).series.values[0] == -9.0


class TestStatistics:
    def test_min_nt(self, small_dst):
        assert small_dst.min_nt() == -130.0

    def test_intensity_percentile_inverts(self, small_dst):
        # 100th-percentile intensity is the most negative sample.
        assert small_dst.intensity_percentile(100) == -130.0
        assert small_dst.intensity_percentile(0) == small_dst.series.max()

    def test_intensity_percentile_monotone(self, small_dst):
        p90 = small_dst.intensity_percentile(90)
        p99 = small_dst.intensity_percentile(99)
        assert p99 <= p90

    def test_intensity_percentile_range_check(self, small_dst):
        with pytest.raises(SpaceWeatherError):
            small_dst.intensity_percentile(101)

    def test_hours_at_level(self, small_dst):
        # Storm hours: -60 (minor), -100/-130/-120 and recovery values.
        assert small_dst.hours_at_level(StormLevel.MODERATE) >= 3
        assert small_dst.hours_at_level(StormLevel.SEVERE) == 0

    def test_level_hour_counts_total(self, small_dst):
        counts = small_dst.level_hour_counts()
        assert sum(counts.values()) == len(small_dst)

    def test_storm_hours(self, small_dst):
        # -100, -130, -120 plus the first recovery hour (-120*e^-1/8).
        stormy = small_dst.storm_hours(-100.0)
        assert len(stormy) == 4
        assert stormy.values.max() <= -100.0

    def test_high_intensity_mask(self, small_dst):
        mask = small_dst.high_intensity_mask(-50.0)
        assert mask.sum() > 0
        assert mask.dtype == bool

    def test_missing_hours(self):
        dst = DstIndex.from_hourly(
            Epoch.from_calendar(2023, 1, 1), [-1.0, float("nan"), -2.0]
        )
        assert dst.missing_hours() == 1
