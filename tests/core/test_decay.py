"""Unit tests for decay assessment (the 5 km rule and permanent decay)."""

import pytest

from repro.core import CosmicDanceConfig, assess_decay, clean_history, is_decaying_at, long_term_median_altitude
from repro.core.decay import DecayState, altitude_immediately_before
from repro.errors import PipelineError
from repro.time import Epoch

from tests.core.helpers import START, history_from_profile, steady_history


def cleaned_steady(days=100):
    return clean_history(steady_history(days=days))


def cleaned_decaying(onset_day=60, rate=1.0, days=100):
    profile = [(float(d), 550.0) for d in range(onset_day)]
    profile += [
        (float(onset_day + d), 550.0 - rate * d) for d in range(days - onset_day)
    ]
    return clean_history(history_from_profile(1, profile))


class TestLongTermMedian:
    def test_steady(self):
        assert long_term_median_altitude(cleaned_steady()) == pytest.approx(550.0)

    def test_empty_raises(self):
        from repro.core.cleaning import CleanedHistory, CleaningReport

        empty = CleanedHistory(1, tuple(), None, CleaningReport(0, 0, 0, 0))
        with pytest.raises(PipelineError):
            long_term_median_altitude(empty)


class TestAltitudeImmediatelyBefore:
    def test_finds_latest_before(self):
        cleaned = cleaned_steady(days=10)
        before = altitude_immediately_before(cleaned, START.add_days(5.5))
        assert before == pytest.approx(550.0)

    def test_none_before_first_record(self):
        cleaned = cleaned_steady(days=10)
        assert altitude_immediately_before(cleaned, START.add_days(-1.0)) is None


class TestIsDecayingAt:
    def test_steady_not_decaying(self):
        assert not is_decaying_at(cleaned_steady(), START.add_days(50))

    def test_decayed_satellite_flagged(self):
        cleaned = cleaned_decaying(onset_day=40, rate=2.0)
        # By day 60 it has fallen 40 km below where it started; its
        # median is also dragged down, but the deficit exceeds 5 km.
        assert is_decaying_at(cleaned, START.add_days(99))

    def test_before_onset_not_flagged(self):
        cleaned = cleaned_decaying(onset_day=60, rate=1.0)
        assert not is_decaying_at(cleaned, START.add_days(30))

    def test_no_data_before_event_counts_as_ineligible(self):
        cleaned = cleaned_steady(days=10)
        assert is_decaying_at(cleaned, START.add_days(-5))

    def test_threshold_configurable(self):
        # 7 km below median: decaying under 5 km rule, fine under 10 km.
        profile = [(float(d), 550.0) for d in range(50)]
        profile += [(50.0 + float(d), 543.0) for d in range(5)]
        cleaned = clean_history(history_from_profile(1, profile))
        when = START.add_days(54.9)
        assert is_decaying_at(cleaned, when)
        relaxed = CosmicDanceConfig(already_decaying_threshold_km=10.0)
        assert not is_decaying_at(cleaned, when, relaxed)


class TestAssessDecay:
    def test_station_kept(self):
        assessment = assess_decay(cleaned_steady())
        assert assessment.state is DecayState.STATION_KEPT
        assert assessment.decay_onset is None

    def test_perturbed(self):
        profile = [(float(d), 550.0) for d in range(90)]
        profile += [(90.0 + d, 541.0) for d in range(10)]
        assessment = assess_decay(clean_history(history_from_profile(1, profile)))
        assert assessment.state is DecayState.PERTURBED

    def test_permanent_decay(self):
        assessment = assess_decay(cleaned_decaying(onset_day=60, rate=2.0))
        assert assessment.state is DecayState.PERMANENT_DECAY
        assert assessment.final_deficit_km > 15.0

    def test_decay_onset_near_true_onset(self):
        assessment = assess_decay(cleaned_decaying(onset_day=60, rate=2.0))
        assert assessment.decay_onset is not None
        onset_day = assessment.decay_onset.days_since(START)
        # The median shifts slightly, so allow a few days' slack.
        assert onset_day == pytest.approx(62.0, abs=5.0)

    def test_history_ending_mid_descent(self):
        # A re-entry: the record stops while the satellite is falling.
        # Every descending record is already past the 5 km threshold, so
        # the onset is the first of them.
        profile = [(float(d), 550.0) for d in range(60)]
        profile += [(60.0 + k, 540.0 - 10.0 * k) for k in range(3)]
        cleaned = clean_history(history_from_profile(1, profile))
        assessment = assess_decay(cleaned)
        assert assessment.state is DecayState.PERMANENT_DECAY
        assert assessment.decay_onset == cleaned.elements[60].epoch
        assert assessment.decay_onset.days_since(START) == pytest.approx(60.0)

    def test_final_altitude_recorded(self):
        assessment = assess_decay(cleaned_decaying(onset_day=60, rate=2.0, days=100))
        assert assessment.final_altitude_km == pytest.approx(550.0 - 2.0 * 39, abs=1.0)
