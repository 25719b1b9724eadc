"""Exact round-trip tests for the stage-outcome codec.

An entry stores the ``[start, stop)`` runs of history positions that
cleaning kept and is decoded against the live history it was computed
from, so every case encodes and decodes with that history.
"""

import json

import pytest

from repro.core.config import CosmicDanceConfig
from repro.core.pipeline import process_satellite
from repro.exec.codec import CODEC_VERSION, decode_outcome, encode_outcome

from tests.core.helpers import history_from_profile, steady_history


def computed(history):
    return process_satellite(history, CosmicDanceConfig())


def computed_outcome(catalog=9, days=60):
    history = steady_history(catalog=catalog, days=days)
    return history, computed(history)


def round_trip(history):
    outcome = computed(history)
    text = encode_outcome(outcome, history)
    assert decode_outcome(text, history) == outcome
    return outcome, json.loads(text)


def gross_error_history():
    # Records above the 650 km validity ceiling in the middle: the
    # kept positions are two runs around a hole.
    profile = [(float(d), 550.0) for d in range(40)]
    profile[10:13] = [(float(d), 30000.0) for d in range(10, 13)]
    return history_from_profile(11, profile)


def raising_history():
    # Twenty days climbing from the staging orbit, then on station:
    # the orbit-raising cut drops the climb.
    profile = [(float(d), 350.0 + 10.0 * d) for d in range(20)]
    profile += [(20.0 + d, 550.0) for d in range(40)]
    return history_from_profile(12, profile)


class TestRoundTrip:
    def test_exact_equality(self):
        history, outcome = computed_outcome()
        assert decode_outcome(encode_outcome(outcome, history), history) == outcome

    def test_decaying_satellite_with_events(self):
        # A decaying profile exercises events, onset epochs, and the
        # non-trivial assessment fields.
        profile = [(float(d), 550.0) for d in range(60)]
        profile += [(60.0 + d, 550.0 - 3.0 * (d + 1)) for d in range(40)]
        history = history_from_profile(3, profile)
        outcome, _ = round_trip(history)
        assert outcome.events  # the profile must actually produce some

    def test_emptied_history_round_trips(self):
        # Everything above the validity ceiling: cleaning removes all
        # records, a valid cacheable outcome with cleaned=None.
        history = history_from_profile(4, [(float(d), 10000.0) for d in range(5)])
        outcome, payload = round_trip(history)
        assert outcome.ok and outcome.cleaned is None
        assert payload["kept"] == []

    def test_gross_errors_leave_a_hole_in_the_runs(self):
        outcome, payload = round_trip(gross_error_history())
        assert outcome.report.gross_errors == 3
        assert payload["kept"] == [[0, 10], [13, 40]]

    def test_orbit_raising_cut_starts_the_first_run(self):
        outcome, payload = round_trip(raising_history())
        assert outcome.report.orbit_raising > 0
        start = outcome.report.orbit_raising
        assert payload["kept"] == [[start, 60]]
        assert outcome.cleaned.operational_from == outcome.cleaned.elements[0].epoch

    def test_decoded_records_are_the_live_ones(self):
        history = gross_error_history()
        decoded = decode_outcome(encode_outcome(computed(history), history), history)
        live = list(history)
        assert all(
            any(element is record for record in live)
            for element in decoded.cleaned.elements
        )

    def test_an_equal_history_decodes_the_same_entry(self):
        # The digest key proves content, not identity: a second history
        # object with the same records reads the entry exactly.
        history = raising_history()
        outcome = computed(history)
        text = encode_outcome(outcome, history)
        assert decode_outcome(text, raising_history()) == outcome

    def test_encoding_is_canonical(self):
        history, outcome = computed_outcome()
        assert encode_outcome(outcome, history) == encode_outcome(outcome, history)

    def test_entry_holds_no_elements_and_is_small(self):
        history, outcome = computed_outcome(days=60)
        text = encode_outcome(outcome, history)
        assert len(text.encode("utf-8")) < 1024
        assert "elements" not in json.loads(text)


class TestDecodeRejects:
    def tampered(self, history, edit):
        payload = json.loads(encode_outcome(computed(history), history))
        edit(payload)
        return json.dumps(payload)

    def test_version_mismatch(self):
        # Version 1 is what 3.x wrote under the same keys: only the
        # version turns those entries away.
        history, outcome = computed_outcome()
        payload = json.loads(encode_outcome(outcome, history))
        for version in (1, CODEC_VERSION + 1):
            payload["version"] = version
            with pytest.raises(ValueError, match="version"):
                decode_outcome(json.dumps(payload), history)

    def test_not_json(self):
        history, _ = computed_outcome()
        with pytest.raises(Exception):
            decode_outcome("{ nope", history)

    def test_missing_field(self):
        history, outcome = computed_outcome()
        payload = json.loads(encode_outcome(outcome, history))
        del payload["events"]
        with pytest.raises(KeyError):
            decode_outcome(json.dumps(payload), history)

    def test_run_out_of_range(self):
        history = gross_error_history()

        def past_the_end(payload):
            payload["kept"][-1][1] = len(history) + 1

        with pytest.raises(ValueError, match="out of range"):
            decode_outcome(self.tampered(history, past_the_end), history)

    def test_overlapping_runs(self):
        history = gross_error_history()

        def overlap(payload):
            payload["kept"][1][0] = payload["kept"][0][1] - 2

        with pytest.raises(ValueError, match="order"):
            decode_outcome(self.tampered(history, overlap), history)

    def test_kept_count_disagrees_with_report(self):
        history = gross_error_history()

        def shorter(payload):
            payload["kept"][-1][1] -= 1

        with pytest.raises(ValueError, match="report"):
            decode_outcome(self.tampered(history, shorter), history)

    def test_catalog_mismatch(self):
        history = gross_error_history()
        other = history_from_profile(
            99, [(float(d), 550.0) for d in range(len(history))]
        )
        text = encode_outcome(computed(history), history)
        with pytest.raises(ValueError, match="satellite"):
            decode_outcome(text, other)
