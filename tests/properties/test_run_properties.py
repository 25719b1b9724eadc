"""Every maximal-run rule against the scalar loop it replaced.

Storm episodes, band episodes, the online detector, drag spikes and
decay onsets all find their runs with :func:`repro.timeseries.runs.runs`.
Each scalar loop they used before lives on here as the oracle, and a
hypothesis property asserts the port returns exactly what it did.  The
drag-spike baseline's sliding window is checked the same way against
``np.median`` over each record's trailing slice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core.cleaning import CleanedHistory, CleaningReport
from repro.core.config import CosmicDanceConfig
from repro.core.decay import long_term_median_altitude
from repro.core.relations import (
    TrajectoryEvent,
    TrajectoryEventKind,
    _trailing_median,
    detect_decay_onsets,
    detect_drag_spikes,
)
from repro.spaceweather.dst import HOUR_S, DstIndex
from repro.spaceweather.scales import StormLevel, classify_dst
from repro.spaceweather.storms import StormEpisode, detect_episodes, episodes_by_level
from repro.stream.detector import OnlineStormDetector
from repro.time import Epoch
from repro.timeseries import TimeSeries
from repro.timeseries.runs import runs

from tests.core.helpers import START, record

# --- oracles: the scalar loops the run kernel replaced -----------------------


def _loop_episode(times, values, below, start_idx, end_idx) -> StormEpisode:
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


def detect_episodes_loop(dst, threshold_nt, merge_gap_hours=0):
    series = dst.series
    if not len(series):
        return []
    times = series.times
    values = series.values
    with np.errstate(invalid="ignore"):
        below = np.isfinite(values) & (values <= threshold_nt)
    episodes = []
    run_start = None
    last_below = None
    for i in range(len(values) + 1):
        is_storm_hour = i < len(values) and bool(below[i])
        if is_storm_hour:
            if run_start is None:
                run_start = i
            elif last_below is not None:
                gap_hours = round((times[i] - times[last_below]) / HOUR_S) - 1
                if gap_hours > merge_gap_hours:
                    episodes.append(_loop_episode(times, values, below, run_start, last_below))
                    run_start = i
            last_below = i
        elif i == len(values) and run_start is not None and last_below is not None:
            episodes.append(_loop_episode(times, values, below, run_start, last_below))
    return episodes


def episodes_by_level_loop(dst):
    series = dst.series
    by_level = {level: [] for level in StormLevel if level is not StormLevel.QUIET}
    if not len(series):
        return by_level
    times = series.times
    values = series.values
    run_level = None
    run_start = 0
    run_peak = 0.0
    last_idx = 0

    def flush(end_idx):
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
                flush(last_idx)
            run_level = level
            run_start = i
            run_peak = value if level is not None else 0.0
        last_idx = i
    if run_level is not None:
        flush(last_idx)
    return by_level


@dataclass(slots=True)
class _OpenRun:
    start_t: float
    last_below_t: float
    peak_nt: float


class LoopStormDetector(OnlineStormDetector):
    """The online detector with its sample-by-sample consume loop.

    The loop keeps the open run as a mutable :class:`_OpenRun`; the
    shared state between blocks is the port's ``(first_t, last_t,
    peak_nt)`` tuple, so the reporting code runs unchanged."""

    def _consume(self, block):
        self._open = _OpenRun(*self._run) if self._run is not None else None
        series = block.series
        times = series.times
        values = series.values
        with np.errstate(invalid="ignore"):
            below = np.isfinite(values) & (values <= self.threshold_nt)
        for i in range(len(values)):
            t = float(times[i])
            if self._last_time is not None and t <= self._last_time:
                continue
            self._last_time = t
            if below[i]:
                self._on_below(t, float(values[i]))
            else:
                self._on_quiet(t)
        run = self._open
        self._run = (
            (run.start_t, run.last_below_t, run.peak_nt) if run is not None else None
        )

    def _episode_of(self, run):
        return StormEpisode(
            start=Epoch.from_unix(run.start_t),
            end=Epoch.from_unix(run.last_below_t + HOUR_S),
            peak_nt=run.peak_nt,
            duration_hours=int(round((run.last_below_t - run.start_t) / HOUR_S)) + 1,
        )

    def _on_below(self, t, value):
        run = self._open
        if run is None:
            self._open = _OpenRun(start_t=t, last_below_t=t, peak_nt=value)
            return
        gap_hours = round((t - run.last_below_t) / HOUR_S) - 1
        if gap_hours > self.merge_gap_hours:
            self._closed.append(self._episode_of(run))
            self._open = _OpenRun(start_t=t, last_below_t=t, peak_nt=value)
        else:
            run.last_below_t = t
            run.peak_nt = min(run.peak_nt, value)

    def _on_quiet(self, t):
        run = self._open
        if run is None:
            return
        gap_now = round((t - run.last_below_t) / HOUR_S) - 1
        if gap_now >= self.merge_gap_hours:
            self._closed.append(self._episode_of(run))
            self._open = None


def detect_drag_spikes_loop(cleaned, config):
    elements = cleaned.elements
    if len(elements) < 3:
        return []
    times = np.array([e.epoch.unix for e in elements])
    bstars = np.array([e.bstar for e in elements])
    window_s = config.drag_baseline_days * 86400.0
    events = []
    in_spike = False
    for i in range(len(elements)):
        lo = int(np.searchsorted(times, times[i] - window_s, side="left"))
        baseline = float(np.median(bstars[lo : i + 1]))
        if baseline <= 0:
            in_spike = False
            continue
        ratio = bstars[i] / baseline
        if ratio >= config.drag_spike_factor:
            if not in_spike:
                events.append(
                    TrajectoryEvent(
                        catalog_number=cleaned.catalog_number,
                        kind=TrajectoryEventKind.DRAG_SPIKE,
                        epoch=elements[i].epoch,
                        magnitude=float(ratio),
                    )
                )
                in_spike = True
        else:
            in_spike = False
    return events


def detect_decay_onsets_loop(cleaned, config, min_consecutive):
    elements = cleaned.elements
    if len(elements) < min_consecutive:
        return []
    median = long_term_median_altitude(cleaned)
    deficits = np.array([median - e.altitude_km for e in elements])
    below = deficits > config.already_decaying_threshold_km
    events = []
    i = 0
    n = len(elements)
    while i < n:
        if not below[i]:
            i += 1
            continue
        j = i
        while j < n and below[j]:
            j += 1
        if j - i >= min_consecutive:
            events.append(
                TrajectoryEvent(
                    catalog_number=cleaned.catalog_number,
                    kind=TrajectoryEventKind.DECAY_ONSET,
                    epoch=elements[i].epoch,
                    magnitude=float(deficits[i:j].max()),
                )
            )
        i = j
    return events


# --- generated inputs ---------------------------------------------------------

NAN = float("nan")
DST_VALUES = st.floats(-500.0, 30.0, allow_nan=False) | st.just(NAN)
THRESHOLDS = st.floats(-300.0, -20.0, allow_nan=False)
MERGE_GAPS = st.integers(0, 5)


@st.composite
def dst_series(draw, max_len=120):
    """Hourly Dst with NaN hours and data holes (steps of 1-7 hours)."""
    n = draw(st.integers(0, max_len))
    steps = draw(st.lists(st.integers(1, 7) | st.just(1), min_size=n, max_size=n))
    values = draw(st.lists(DST_VALUES, min_size=n, max_size=n))
    times = START.unix + HOUR_S * np.cumsum(steps, dtype=np.float64)
    return DstIndex(TimeSeries(times, values))


def block(dst: DstIndex, lo: int, hi: int) -> DstIndex:
    series = dst.series
    return DstIndex(TimeSeries(series.times[lo:hi], series.values[lo:hi]))


BSTARS = st.sampled_from([0.0, -1e-4, 1e-4, 2e-4, 5e-4, 1e-3]) | st.floats(
    -1e-3, 1e-2, allow_nan=False
)
DAY_STEPS = st.sampled_from([0.0, 1.0, 154.0 / 24.0]) | st.floats(0.01, 40.0)
ALTITUDES = st.sampled_from([550.0, 544.0, 530.0]) | st.floats(400.0, 560.0)


@st.composite
def cleaned_histories(draw, max_len=60):
    """Cleaned histories with irregular epochs, repeated, zero and
    negative B*, and altitude or B* runs that can touch either end."""
    n = draw(st.integers(0, max_len))
    days = np.cumsum(draw(st.lists(DAY_STEPS, min_size=n, max_size=n)))
    bstars = draw(st.lists(BSTARS, min_size=n, max_size=n))
    altitudes = draw(st.lists(ALTITUDES, min_size=n, max_size=n))
    elements = tuple(
        record(7, float(day), altitude, bstar=bstar)
        for day, altitude, bstar in zip(days, altitudes, bstars)
    )
    return CleanedHistory(7, elements, None, CleaningReport(n, 0, 0, n))


CONFIGS = st.builds(
    CosmicDanceConfig,
    drag_spike_factor=st.sampled_from([1.5, 2.5, 5.0]),
    drag_baseline_days=st.sampled_from([1.0, 6.0, 30.0]),
    already_decaying_threshold_km=st.sampled_from([2.0, 5.0, 10.0]),
)


# --- properties ----------------------------------------------------------------


class TestRunsKernel:
    @given(st.lists(st.booleans(), max_size=60), st.integers(0, 4))
    def test_runs_are_maximal_and_cover_every_true_position(self, flags, gap):
        mask = np.array(flags, dtype=bool)
        first, last = runs(mask, max_gap=gap)
        covered = np.zeros(mask.size, dtype=bool)
        for a, b in zip(first.tolist(), last.tolist()):
            inside = np.flatnonzero(mask[a : b + 1])
            assert inside[0] == 0 and inside[-1] == b - a
            assert np.all(np.diff(inside) - 1 <= gap)
            covered[a : b + 1] = True
        assert not (mask & ~covered).any()
        # Between runs the split is wider than the allowed gap.
        assert np.all(first[1:] - last[:-1] - 1 > gap)


class TestStormEpisodes:
    @given(dst_series(), THRESHOLDS, MERGE_GAPS)
    def test_detect_episodes_matches_loop(self, dst, threshold, gap):
        assert detect_episodes(dst, threshold, merge_gap_hours=gap) == (
            detect_episodes_loop(dst, threshold, gap)
        )

    @given(dst_series())
    def test_episodes_by_level_matches_loop(self, dst):
        assert episodes_by_level(dst) == episodes_by_level_loop(dst)


@st.composite
def feeds(draw, dst):
    """Blocks of *dst* in feed order: each may re-send up to three hours
    already consumed, and some are a rebuild over everything so far."""
    actions = []
    cursor = 0
    while cursor < len(dst):
        lo = max(0, cursor - draw(st.integers(0, 3)))
        hi = min(len(dst), cursor + draw(st.integers(1, 30)))
        actions.append(("rebuild" if draw(st.integers(0, 5)) == 0 else "observe", lo, hi))
        cursor = hi
    actions.append(("rebuild", 0, len(dst)))
    return actions


class TestOnlineDetector:
    @given(st.data(), dst_series(), THRESHOLDS, MERGE_GAPS)
    def test_every_block_matches_loop(self, data, dst, threshold, gap):
        port = OnlineStormDetector(threshold, merge_gap_hours=gap)
        loop = LoopStormDetector(threshold, merge_gap_hours=gap)
        for action, lo, hi in data.draw(feeds(dst)):
            if action == "rebuild":
                got, want = port.rebuild(block(dst, 0, hi)), loop.rebuild(block(dst, 0, hi))
            else:
                got, want = port.observe(block(dst, lo, hi)), loop.observe(block(dst, lo, hi))
            assert got == want
            assert port.episodes() == loop.episodes()
            assert port.open_episode == loop.open_episode


class TestTrajectoryEvents:
    @given(cleaned_histories(), CONFIGS)
    def test_trailing_median_matches_per_slice_median(self, cleaned, config):
        times = np.array([e.epoch.unix for e in cleaned.elements])
        bstars = np.array([e.bstar for e in cleaned.elements])
        window_s = config.drag_baseline_days * 86400.0
        window_start = np.searchsorted(times, times - window_s, side="left")
        expected = [np.median(bstars[lo : i + 1]) for i, lo in enumerate(window_start)]
        assert np.array_equal(_trailing_median(bstars, window_start), np.array(expected))

    @given(cleaned_histories(), CONFIGS)
    def test_drag_spikes_match_loop(self, cleaned, config):
        assert detect_drag_spikes(cleaned, config) == detect_drag_spikes_loop(
            cleaned, config
        )

    @given(cleaned_histories(), CONFIGS, st.integers(1, 4))
    def test_decay_onsets_match_loop(self, cleaned, config, min_consecutive):
        assert detect_decay_onsets(
            cleaned, config, min_consecutive=min_consecutive
        ) == detect_decay_onsets_loop(cleaned, config, min_consecutive)
