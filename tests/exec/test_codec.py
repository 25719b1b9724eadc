"""Exact round-trip tests for the stage-outcome codec."""

import json

import pytest

from repro.core.config import CosmicDanceConfig
from repro.core.pipeline import process_satellite
from repro.exec.codec import CODEC_VERSION, decode_outcome, encode_outcome

from tests.core.helpers import history_from_profile, steady_history


def computed_outcome(catalog=9, days=60):
    history = steady_history(catalog=catalog, days=days)
    return process_satellite(history, CosmicDanceConfig())


class TestRoundTrip:
    def test_exact_equality(self):
        outcome = computed_outcome()
        assert decode_outcome(encode_outcome(outcome)) == outcome

    def test_decaying_satellite_with_events(self):
        # A decaying profile exercises events, onset epochs, and the
        # non-trivial assessment fields.
        profile = [(float(d), 550.0) for d in range(60)]
        profile += [(60.0 + d, 550.0 - 3.0 * (d + 1)) for d in range(40)]
        history = history_from_profile(3, profile)
        outcome = process_satellite(history, CosmicDanceConfig())
        assert outcome.events  # the profile must actually produce some
        assert decode_outcome(encode_outcome(outcome)) == outcome

    def test_emptied_history_round_trips(self):
        # Everything above the validity ceiling: cleaning removes all
        # records, a valid cacheable outcome with cleaned=None.
        history = history_from_profile(4, [(float(d), 10000.0) for d in range(5)])
        outcome = process_satellite(history, CosmicDanceConfig())
        assert outcome.ok and outcome.cleaned is None
        assert decode_outcome(encode_outcome(outcome)) == outcome

    def test_encoding_is_canonical(self):
        outcome = computed_outcome()
        assert encode_outcome(outcome) == encode_outcome(outcome)


class TestDecodeRejects:
    def test_version_mismatch(self):
        payload = json.loads(encode_outcome(computed_outcome()))
        payload["version"] = CODEC_VERSION + 1
        with pytest.raises(ValueError):
            decode_outcome(json.dumps(payload))

    def test_not_json(self):
        with pytest.raises(Exception):
            decode_outcome("{ nope")

    def test_missing_field(self):
        payload = json.loads(encode_outcome(computed_outcome()))
        del payload["events"]
        with pytest.raises(KeyError):
            decode_outcome(json.dumps(payload))
