"""Unit tests for storm-episode detection."""

import numpy as np
import pytest

from repro.errors import SpaceWeatherError
from repro.spaceweather import DstIndex, StormLevel, detect_episodes, duration_stats
from repro.spaceweather.storms import episodes_by_level
from repro.time import Epoch
from repro.timeseries import TimeSeries

START_UNIX = Epoch.from_calendar(2023, 1, 1).unix


def dst_from(values):
    return DstIndex.from_hourly(Epoch.from_calendar(2023, 1, 1), values)


class TestDetectEpisodes:
    def test_single_episode(self):
        dst = dst_from([-10, -60, -80, -60, -10])
        episodes = detect_episodes(dst, -50.0)
        assert len(episodes) == 1
        assert episodes[0].duration_hours == 3
        assert episodes[0].peak_nt == -80.0

    def test_episode_bounds_half_open(self):
        dst = dst_from([-10, -60, -10])
        ep = detect_episodes(dst, -50.0)[0]
        assert ep.start == Epoch.from_calendar(2023, 1, 1, 1)
        assert ep.end == Epoch.from_calendar(2023, 1, 1, 2)
        assert ep.contains(Epoch.from_calendar(2023, 1, 1, 1, 30))
        assert not ep.contains(ep.end)

    def test_two_episodes(self):
        dst = dst_from([-60, -10, -10, -70])
        assert len(detect_episodes(dst, -50.0)) == 2

    def test_merge_gap(self):
        dst = dst_from([-60, -10, -70])
        merged = detect_episodes(dst, -50.0, merge_gap_hours=1)
        assert len(merged) == 1
        assert merged[0].duration_hours == 3
        assert merged[0].peak_nt == -70.0

    def test_merge_gap_not_exceeded(self):
        dst = dst_from([-60, -10, -10, -70])
        assert len(detect_episodes(dst, -50.0, merge_gap_hours=1)) == 2

    def test_nan_hour_merges_under_a_one_hour_merge_gap(self):
        dst = dst_from([-60, float("nan"), -70])
        merged = detect_episodes(dst, -50.0, merge_gap_hours=1)
        assert [(e.duration_hours, e.peak_nt) for e in merged] == [(3, -70.0)]

    def test_two_hour_data_hole_does_not_merge_under_a_one_hour_gap(self):
        times = START_UNIX + 3600.0 * np.array([0.0, 3.0])
        dst = DstIndex(TimeSeries(times, np.array([-60.0, -70.0])))
        assert len(detect_episodes(dst, -50.0, merge_gap_hours=1)) == 2

    def test_nan_breaks_episode(self):
        dst = dst_from([-60, float("nan"), -70])
        assert len(detect_episodes(dst, -50.0)) == 2

    def test_episode_at_series_end(self):
        dst = dst_from([-10, -60, -70])
        episodes = detect_episodes(dst, -50.0)
        assert episodes[0].duration_hours == 2

    def test_no_episodes(self):
        dst = dst_from([-10, -20, -30])
        assert detect_episodes(dst, -50.0) == []

    def test_empty_index(self):
        assert detect_episodes(dst_from([]), -50.0) == []

    def test_rejects_negative_merge_gap(self):
        with pytest.raises(SpaceWeatherError):
            detect_episodes(dst_from([-60.0]), -50.0, merge_gap_hours=-1)

    def test_episode_level_from_peak(self):
        dst = dst_from([-60, -150, -60])
        assert detect_episodes(dst, -50.0)[0].level is StormLevel.MODERATE


class TestDurationStats:
    def test_stats(self):
        dst = dst_from([-60, -10, -60, -60, -10, -60, -60, -60, -60])
        episodes = detect_episodes(dst, -50.0)
        stats = duration_stats(episodes)
        assert stats.count == 3
        assert stats.median_hours == 2.0
        assert stats.max_hours == 4.0

    def test_empty(self):
        stats = duration_stats([])
        assert stats.count == 0
        assert np.isnan(stats.median_hours)


class TestEpisodesByLevel:
    def test_band_restricted_runs(self):
        # A storm passing through mild into moderate and back produces
        # one moderate run and two mild runs.
        dst = dst_from([-10, -60, -120, -130, -60, -55, -10])
        by_level = episodes_by_level(dst)
        assert len(by_level[StormLevel.MODERATE]) == 1
        assert by_level[StormLevel.MODERATE][0].duration_hours == 2
        assert len(by_level[StormLevel.MINOR]) == 2
        assert by_level[StormLevel.MINOR][1].duration_hours == 2

    def test_severe_three_hours(self):
        # Mirror of the paper's 24 Apr 2023 storm: exactly 3 severe hours.
        dst = dst_from([-10, -120, -208, -213, -209, -150, -80, -20])
        by_level = episodes_by_level(dst)
        severe = by_level[StormLevel.SEVERE]
        assert len(severe) == 1
        assert severe[0].duration_hours == 3
        assert severe[0].peak_nt == -213.0

    def test_nan_splits_runs(self):
        dst = dst_from([-60, float("nan"), -60])
        by_level = episodes_by_level(dst)
        assert len(by_level[StormLevel.MINOR]) == 2

    def test_run_touching_the_last_hour_is_counted(self):
        by_level = episodes_by_level(dst_from([-10, -60, -120, -130]))
        moderate = by_level[StormLevel.MODERATE]
        assert [(e.duration_hours, e.peak_nt) for e in moderate] == [(2, -130.0)]
        assert moderate[0].end == Epoch.from_calendar(2023, 1, 1, 4)

    def test_data_hole_splits_runs(self):
        times = START_UNIX + 3600.0 * np.array([0.0, 1.0, 3.0])
        dst = DstIndex(TimeSeries(times, np.array([-60.0, -60.0, -60.0])))
        minor = episodes_by_level(dst)[StormLevel.MINOR]
        assert [e.duration_hours for e in minor] == [2, 1]

    def test_empty(self):
        by_level = episodes_by_level(dst_from([]))
        assert all(v == [] for v in by_level.values())

    def test_quiet_only(self):
        by_level = episodes_by_level(dst_from([-10, -20, -5]))
        assert all(v == [] for v in by_level.values())
