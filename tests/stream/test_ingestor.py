"""Unit tests for chunk-at-a-time ingestion."""

import pytest

from repro.errors import StreamError
from repro.stream import FeedChunk, StreamIngestor

from tests.core.helpers import record
from tests.stream.conftest import START, hourly


class TestDedup:
    def test_duplicate_chunk_is_a_recorded_noop(self):
        ingestor = StreamIngestor()
        chunk = FeedChunk.of_dst(hourly([-10.0] * 4))
        first = ingestor.offer(chunk)
        second = ingestor.offer(chunk)
        assert not first.duplicate and first.new_dst_hours == 4
        assert second.duplicate and not second.changed
        marks = ingestor.watermarks
        assert marks.chunks == 2 and marks.duplicates == 1
        assert len(ingestor.state.dst) == 4

    def test_new_chunk_overlapping_old_data_dedups_records(self):
        ingestor = StreamIngestor()
        base = [record(1, 0.0, 550.0), record(1, 1.0, 550.0)]
        first = ingestor.offer_elements(base, chunk_id="batch-a")
        overlap = ingestor.offer_elements(
            base + [record(1, 2.0, 550.0)], chunk_id="batch-b"
        )
        assert first.new_records == 2
        assert not overlap.duplicate
        assert overlap.new_records == 1
        assert overlap.records_by_satellite == ((1, 1),)
        assert len(ingestor.state.catalog.get(1)) == 3

    def test_default_ids_tell_sub_second_chunks_apart(self):
        # Two single-record chunks 0.3 s apart, both with content-derived
        # ids: ``repr(Epoch)`` rounds the difference away, the id must not.
        ingestor = StreamIngestor()
        first = record(1, 0.0, 550.0)
        second = first.with_epoch(first.epoch.add_seconds(0.3))
        deltas = [
            ingestor.offer(FeedChunk.of_elements([element]))
            for element in (first, second)
        ]
        assert [delta.duplicate for delta in deltas] == [False, False]
        assert [delta.new_records for delta in deltas] == [1, 1]
        assert len(ingestor.state.catalog.get(1)) == 2

    def test_empty_chunks_are_rejected(self):
        ingestor = StreamIngestor()
        with pytest.raises(StreamError):
            ingestor.offer_dst(hourly([]))
        with pytest.raises(StreamError):
            ingestor.offer_elements([])


class TestWatermarks:
    def test_high_marks_track_latest_timestamps(self):
        ingestor = StreamIngestor()
        assert ingestor.watermarks.dst_high is None
        assert ingestor.watermarks.tle_high is None
        dst = hourly([-10.0] * 24)
        ingestor.offer_dst(dst)
        ingestor.offer_elements([record(1, 0.0, 550.0), record(1, 3.0, 550.0)])
        marks = ingestor.watermarks
        assert marks.dst_high == dst.end
        assert marks.tle_high == START.add_days(3.0)

    def test_appends_are_not_late(self):
        ingestor = StreamIngestor()
        ingestor.offer_dst(hourly([-10.0] * 24))
        delta = ingestor.offer_dst(hourly([-20.0] * 24, START.add_days(1.0)))
        assert not delta.late
        assert ingestor.watermarks.late == 0

    def test_backfill_is_late_but_never_dropped(self):
        ingestor = StreamIngestor()
        ingestor.offer_dst(hourly([-10.0] * 24, START.add_days(2.0)))
        delta = ingestor.offer_dst(hourly([-60.0] * 24))
        assert delta.late
        assert delta.new_dst_hours == 24
        assert ingestor.watermarks.late == 1
        # The watermark never regresses.
        assert ingestor.watermarks.dst_high.unix >= START.add_days(2.0).unix

    def test_tle_backfill_flagged(self):
        ingestor = StreamIngestor()
        ingestor.offer_elements([record(1, 10.0, 550.0)])
        delta = ingestor.offer_elements([record(2, 1.0, 550.0)])
        assert delta.late
        assert ingestor.watermarks.tle_high == START.add_days(10.0)
