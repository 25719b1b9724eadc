"""Batch-parity and transition tests for the online storm detector.

The core guarantee under test: after consuming any prefix of an hourly
Dst series — in any chunk sizes — ``episodes()`` equals
``detect_episodes`` over that prefix.
"""

import numpy as np
import pytest

from repro.spaceweather.dst import HOUR_S, DstIndex
from repro.spaceweather.scales import StormLevel
from repro.spaceweather.storms import detect_episodes
from repro.stream import OnlineStormDetector
from repro.time import Epoch
from repro.timeseries import TimeSeries

from tests.stream.conftest import START, hourly


def prefix(dst: DstIndex, n: int) -> DstIndex:
    series = dst.series
    return DstIndex(TimeSeries(series.times[:n].copy(), series.values[:n].copy()))


def random_series(rng, hours=400, nan_fraction=0.05, hole_fraction=0.02) -> DstIndex:
    """A jagged synthetic Dst series with NaNs and missing hours."""
    values = rng.normal(-30.0, 60.0, size=hours)
    values[rng.random(hours) < nan_fraction] = np.nan
    keep = rng.random(hours) >= hole_fraction
    keep[0] = True
    times = START.unix + HOUR_S * np.arange(hours)
    return DstIndex(TimeSeries(times[keep], values[keep]))


def assert_same_episodes(online, batch):
    assert len(online) == len(batch)
    for a, b in zip(online, batch):
        assert a.start == b.start
        assert a.end == b.end
        assert a.duration_hours == b.duration_hours
        assert a.peak_nt == b.peak_nt or (
            np.isnan(a.peak_nt) and np.isnan(b.peak_nt)
        )


class TestBatchParity:
    @pytest.mark.parametrize("merge_gap", [0, 1, 3])
    def test_hour_by_hour_equals_batch_at_every_prefix(self, merge_gap):
        rng = np.random.default_rng(7)
        dst = random_series(rng, hours=200)
        detector = OnlineStormDetector(-50.0, merge_gap_hours=merge_gap)
        for n in range(1, len(dst) + 1):
            detector.observe(prefix(dst, n))
            batch = detect_episodes(
                prefix(dst, n), -50.0, merge_gap_hours=merge_gap
            )
            assert_same_episodes(detector.episodes(), batch)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    @pytest.mark.parametrize("threshold", [-30.0, -50.0, -100.0])
    def test_random_chunk_sizes_equal_batch(self, seed, threshold):
        rng = np.random.default_rng(seed)
        dst = random_series(rng)
        for merge_gap in (0, 2):
            detector = OnlineStormDetector(threshold, merge_gap_hours=merge_gap)
            cursor = 0
            while cursor < len(dst):
                size = int(rng.integers(1, 48))
                block = DstIndex(
                    TimeSeries(
                        dst.series.times[cursor : cursor + size].copy(),
                        dst.series.values[cursor : cursor + size].copy(),
                    )
                )
                detector.observe(block)
                cursor += size
            batch = detect_episodes(dst, threshold, merge_gap_hours=merge_gap)
            assert_same_episodes(detector.episodes(), batch)

    def test_data_hole_splits_like_batch(self):
        # 3 storm hours, a 5-hour hole, 2 more storm hours.
        times = np.concatenate(
            [
                START.unix + HOUR_S * np.arange(3),
                START.unix + HOUR_S * (8 + np.arange(2)),
            ]
        )
        values = np.array([-80.0, -90.0, -70.0, -60.0, -65.0])
        dst = DstIndex(TimeSeries(times, values))
        for merge_gap in (0, 4, 5):
            detector = OnlineStormDetector(-50.0, merge_gap_hours=merge_gap)
            detector.observe(dst)
            assert_same_episodes(
                detector.episodes(),
                detect_episodes(dst, -50.0, merge_gap_hours=merge_gap),
            )

    def test_rebuild_equals_batch_after_backfill(self):
        late = hourly([-120.0] * 4)
        current = hourly([-10.0] * 3 + [-70.0] * 2, START.add_days(1.0))
        detector = OnlineStormDetector(-50.0)
        detector.observe(current)
        # Backfill arrived: merge and rebuild, as the monitor does.
        merged_times = np.concatenate([late.series.times, current.series.times])
        merged_values = np.concatenate([late.series.values, current.series.values])
        merged = DstIndex(TimeSeries(merged_times, merged_values))
        detector.rebuild(merged)
        assert_same_episodes(detector.episodes(), detect_episodes(merged, -50.0))

    def test_negative_merge_gap_rejected(self):
        with pytest.raises(ValueError):
            OnlineStormDetector(merge_gap_hours=-1)


class TestTransitions:
    def test_onset_reported_once(self, stormy_dst):
        detector = OnlineStormDetector(-50.0)
        delta = detector.observe(stormy_dst)
        assert len(delta.opened) == 2
        # Consuming the same data again reports nothing new.
        again = detector.observe(stormy_dst)
        assert not again.any

    def test_overlapping_block_skips_consumed_hours(self, stormy_dst):
        series = stormy_dst.series
        detector = OnlineStormDetector(-50.0)
        deltas = []
        # Hours 0-11 (a G1 onset), then 8-33: the second block re-sends
        # four hours and deepens the open storm into G2.
        for lo, hi in ((0, 12), (8, len(series))):
            block = DstIndex(
                TimeSeries(series.times[lo:hi].copy(), series.values[lo:hi].copy())
            )
            deltas.append(detector.observe(block))
        assert_same_episodes(detector.episodes(), detect_episodes(stormy_dst, -50.0))
        opened = [e.start for d in deltas for e in d.opened]
        closed = [e.start for d in deltas for e in d.closed]
        assert len(opened) == len(set(opened)) == 2
        assert len(closed) == len(set(closed)) == 2
        assert [len(d.upgraded) for d in deltas] == [0, 1]

    def test_upgrade_fires_on_noaa_band_crossing(self):
        detector = OnlineStormDetector(-50.0)
        first = detector.observe(hourly([-10.0, -60.0]))
        assert len(first.opened) == 1
        assert first.opened[0].level is StormLevel.MINOR
        deeper = detector.observe(hourly([-130.0], START.add_hours(2.0)))
        assert len(deeper.upgraded) == 1
        episode, previous = deeper.upgraded[0]
        assert previous is StormLevel.MINOR
        assert episode.level is StormLevel.MODERATE
        # Deepening inside the same band is not an upgrade.
        same_band = detector.observe(hourly([-150.0], START.add_hours(3.0)))
        assert not same_band.upgraded

    def test_end_reported_once_even_across_rebuilds(self, stormy_dst):
        detector = OnlineStormDetector(-50.0)
        delta = detector.observe(stormy_dst)
        assert len(delta.closed) == 2
        rebuilt = detector.rebuild(stormy_dst)
        assert not rebuilt.any

    def test_open_episode_is_provisional(self):
        detector = OnlineStormDetector(-50.0)
        detector.observe(hourly([-10.0, -80.0, -90.0]))
        open_episode = detector.open_episode
        assert open_episode is not None
        assert open_episode.peak_nt == -90.0
        assert detector.episodes() == [open_episode]
        # Quiet hour closes it.
        delta = detector.observe(hourly([-10.0], START.add_hours(3.0)))
        assert len(delta.closed) == 1
        assert detector.open_episode is None
