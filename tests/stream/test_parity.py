"""Batch-vs-replay parity: the streaming subsystem's acceptance bar.

Replaying the seeded fleet through ``repro.stream`` in hourly chunks
must land on a ``result_digest`` byte-identical to the one-shot batch
run.  Chunking changes cost, never results.
"""

import pytest

from repro import analyze
from repro.exec import result_digest
from repro.stream import StreamMonitor, split_feed


@pytest.fixture(scope="module")
def batch_digest(scenario):
    return result_digest(analyze(scenario.dst, scenario.catalog))


def replay_digest(scenario, *, chunk_hours, run_every=None):
    monitor = StreamMonitor(run_every=run_every)
    updates = monitor.replay(
        split_feed(scenario.dst, scenario.catalog, chunk_hours=chunk_hours)
    )
    assert updates[-1].ran
    return result_digest(updates[-1].result)


class TestReplayParity:
    def test_hourly_serial_replay_matches_batch(self, scenario, batch_digest):
        assert replay_digest(scenario, chunk_hours=1.0) == batch_digest

    def test_mid_feed_refreshes_do_not_disturb_parity(self, scenario, batch_digest):
        # Daily chunks with periodic refreshes: intermediate runs over
        # partial data must not leak into the final result.
        digest = replay_digest(scenario, chunk_hours=24.0, run_every=50)
        assert digest == batch_digest

    def test_chunk_width_is_irrelevant(self, scenario, batch_digest):
        assert replay_digest(scenario, chunk_hours=24.0 * 7) == batch_digest
