"""Unit tests for happens-closely-after relation extraction."""

import pytest

from repro.core import (
    CosmicDanceConfig,
    associate,
    clean_history,
    detect_decay_onsets,
    detect_drag_spikes,
)
from repro.core.cleaning import CleanedHistory, CleaningReport
from repro.core.relations import TrajectoryEventKind
from repro.spaceweather.storms import StormEpisode
from repro.time import Epoch

from tests.core.helpers import START, history_from_profile, record


def episode(day: float, duration_hours: int = 6, peak: float = -120.0) -> StormEpisode:
    start = START.add_days(day)
    return StormEpisode(
        start=start,
        end=start.add_hours(duration_hours),
        peak_nt=peak,
        duration_hours=duration_hours,
    )


class TestDragSpikes:
    def _history_with_spike(self, factor=5.0):
        profile = [(float(d), 550.0) for d in range(60)]
        bstars = [1e-4] * 60
        for d in range(40, 44):
            bstars[d] = factor * 1e-4
        return clean_history(history_from_profile(1, profile, bstars=bstars))

    def test_spike_detected_once_per_run(self):
        events = detect_drag_spikes(self._history_with_spike())
        assert len(events) == 1
        event = events[0]
        assert event.kind is TrajectoryEventKind.DRAG_SPIKE
        assert event.epoch.days_since(START) == pytest.approx(40.0)
        assert event.magnitude == pytest.approx(5.0, rel=0.05)

    def test_no_spike_in_flat_bstar(self):
        profile = [(float(d), 550.0) for d in range(30)]
        cleaned = clean_history(history_from_profile(1, profile))
        assert detect_drag_spikes(cleaned) == []

    def test_factor_configurable(self):
        config = CosmicDanceConfig(drag_spike_factor=10.0)
        assert detect_drag_spikes(self._history_with_spike(5.0), config) == []

    def test_short_history_no_events(self):
        profile = [(0.0, 550.0), (1.0, 550.0)]
        cleaned = clean_history(history_from_profile(1, profile))
        assert detect_drag_spikes(cleaned) == []

    def test_two_separate_spikes(self):
        profile = [(float(d), 550.0) for d in range(100)]
        bstars = [1e-4] * 100
        for d in (30, 31, 70, 71):
            bstars[d] = 6e-4
        cleaned = clean_history(history_from_profile(1, profile, bstars=bstars))
        assert len(detect_drag_spikes(cleaned)) == 2

    def test_non_positive_baseline_ends_the_excursion(self):
        # Days 43-44 sit alone in their trailing window with a median
        # B* <= 0: no ratio is defined there, so the day-3 excursion
        # ends and the day-45 spike (ratio 10) is a separate event.
        days = [0, 1, 2, 3, 43, 44, 45]
        bstars = [1e-4, 1e-4, 1e-4, 5e-4, -1e-4, 1e-4, 1e-3]
        elements = tuple(
            record(1, float(day), 550.0, bstar=bstar)
            for day, bstar in zip(days, bstars)
        )
        cleaned = CleanedHistory(1, elements, None, CleaningReport(7, 0, 0, 7))
        events = detect_drag_spikes(cleaned)
        assert [e.epoch.days_since(START) for e in events] == pytest.approx(
            [3.0, 45.0]
        )
        assert events[1].magnitude == pytest.approx(10.0)

    def test_excursion_running_to_the_last_record_is_one_event(self):
        profile = [(float(d), 550.0) for d in range(60)]
        bstars = [1e-4] * 57 + [5e-4] * 3
        cleaned = clean_history(history_from_profile(1, profile, bstars=bstars))
        events = detect_drag_spikes(cleaned)
        assert [e.epoch.days_since(START) for e in events] == pytest.approx([57.0])

    def test_pre_gap_records_stay_in_the_baseline_across_a_154h_gap(self):
        # 154 h is the paper's longest TLE refresh gap; the 30-day
        # trailing window still reaches every pre-gap record, so the
        # post-gap B* is judged against their median, not against itself.
        gap_day = 20.0 + 154.0 / 24.0
        profile = [(float(d), 550.0) for d in range(21)] + [(gap_day, 550.0)]
        bstars = [1e-4] * 21 + [5e-4]
        cleaned = clean_history(history_from_profile(1, profile, bstars=bstars))
        events = detect_drag_spikes(cleaned)
        assert [e.epoch.days_since(START) for e in events] == pytest.approx([gap_day])
        assert events[0].magnitude == pytest.approx(5.0)


class TestDecayOnsets:
    def test_onset_detected(self):
        profile = [(float(d), 550.0) for d in range(60)]
        profile += [(60.0 + d, 550.0 - 2.0 * (d + 3)) for d in range(20)]
        cleaned = clean_history(history_from_profile(1, profile))
        events = detect_decay_onsets(cleaned)
        assert len(events) == 1
        assert events[0].kind is TrajectoryEventKind.DECAY_ONSET
        assert events[0].epoch.days_since(START) == pytest.approx(60.0, abs=4.0)

    def test_single_noisy_record_ignored(self):
        profile = [(float(d), 550.0) for d in range(60)]
        profile[30] = (30.0, 540.0)  # one bad record
        cleaned = clean_history(history_from_profile(1, profile))
        assert detect_decay_onsets(cleaned) == []

    def test_steady_history_no_onset(self):
        profile = [(float(d), 550.0) for d in range(60)]
        cleaned = clean_history(history_from_profile(1, profile))
        assert detect_decay_onsets(cleaned) == []

    def test_magnitude_is_max_deficit(self):
        profile = [(float(d), 550.0) for d in range(60)]
        profile += [(60.0 + d, 550.0 - 2.0 * (d + 3)) for d in range(20)]
        cleaned = clean_history(history_from_profile(1, profile))
        events = detect_decay_onsets(cleaned)
        assert events[0].magnitude > 20.0

    @pytest.mark.parametrize("descending, onsets", [(3, 1), (2, 0)])
    def test_history_ending_mid_descent(self, descending, onsets):
        # The record stops while the satellite is still falling (a
        # re-entry): the final run counts once it has min_consecutive
        # records, and not with one fewer.
        profile = [(float(d), 550.0) for d in range(60)]
        profile += [(60.0 + k, 540.0 - 10.0 * k) for k in range(descending)]
        cleaned = clean_history(history_from_profile(1, profile))
        events = detect_decay_onsets(cleaned, min_consecutive=3)
        assert [e.epoch.days_since(START) for e in events] == pytest.approx(
            [60.0] * onsets
        )


class TestAssociate:
    def _decay_event(self, day: float):
        from repro.core.relations import TrajectoryEvent

        return TrajectoryEvent(
            catalog_number=1,
            kind=TrajectoryEventKind.DECAY_ONSET,
            epoch=START.add_days(day),
            magnitude=10.0,
        )

    def test_event_within_window_associated(self):
        episodes = [episode(day=10.0)]
        events = [self._decay_event(day=11.0)]
        pairs = associate(episodes, events)
        assert len(pairs) == 1
        assert pairs[0].lag_hours == pytest.approx(24.0)

    def test_event_outside_window_not_associated(self):
        episodes = [episode(day=10.0)]
        events = [self._decay_event(day=20.0)]
        assert associate(episodes, events) == []

    def test_event_before_storm_not_associated(self):
        episodes = [episode(day=10.0)]
        events = [self._decay_event(day=9.0)]
        assert associate(episodes, events) == []

    def test_most_recent_storm_wins(self):
        episodes = [episode(day=10.0), episode(day=11.0)]
        events = [self._decay_event(day=11.5)]
        pairs = associate(episodes, events)
        assert len(pairs) == 1
        assert pairs[0].episode.start.days_since(START) == pytest.approx(11.0)

    def test_window_configurable(self):
        config = CosmicDanceConfig(association_window_hours=24.0 * 30)
        episodes = [episode(day=10.0)]
        events = [self._decay_event(day=25.0)]
        assert len(associate(episodes, events, config)) == 1

    def test_event_during_episode_associated(self):
        episodes = [episode(day=10.0, duration_hours=48)]
        events = [self._decay_event(day=10.5)]
        pairs = associate(episodes, events)
        assert len(pairs) == 1
        assert pairs[0].lag_hours == pytest.approx(12.0)
