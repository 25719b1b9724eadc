"""Unit tests for the DataStore local cache."""

import pytest

from repro.errors import IngestError
from repro.io import DataStore
from repro.spaceweather import DstIndex
from repro.time import Epoch
from repro.tle import SatelliteCatalog

from tests.core.helpers import record


@pytest.fixture
def store(tmp_path):
    return DataStore(tmp_path / "cache")


def small_catalog():
    catalog = SatelliteCatalog()
    for cat in (44713, 44714):
        for day in range(5):
            catalog.add(record(cat, float(day), 550.0 - day * 0.1))
    return catalog


class TestDstCache:
    def test_missing_returns_none(self, store):
        assert store.load_dst() is None

    def test_round_trip(self, store):
        dst = DstIndex.from_hourly(Epoch.from_calendar(2023, 1, 1), [-10.0, -55.0])
        store.save_dst(dst)
        back = store.load_dst()
        assert back is not None
        assert back.min_nt() == -55.0

    def test_overwrite(self, store):
        store.save_dst(DstIndex.from_hourly(Epoch.from_calendar(2023, 1, 1), [-10.0]))
        store.save_dst(DstIndex.from_hourly(Epoch.from_calendar(2023, 1, 1), [-99.0]))
        assert store.load_dst().min_nt() == -99.0


class TestCatalogNumbers:
    def test_missing_returns_none(self, store):
        assert store.load_catalog_numbers() is None

    def test_round_trip_sorted_unique(self, store):
        store.save_catalog_numbers([5, 1, 5, 3])
        assert store.load_catalog_numbers() == [1, 3, 5]

    def test_corrupt_cache_raises(self, store):
        store.save_catalog_numbers([1])
        (store.root / "catalog_numbers.txt").write_text("not-a-number\n")
        with pytest.raises(IngestError):
            store.load_catalog_numbers()


class TestHistoryCache:
    def test_missing_returns_none(self, store):
        assert store.load_history(12345) is None

    def test_round_trip(self, store):
        catalog = small_catalog()
        store.save_history(catalog.get(44713))
        back = store.load_history(44713)
        assert back is not None
        assert len(back) == 5
        assert back.altitude_series().values[0] == pytest.approx(550.0, abs=0.01)

    def test_corrupt_tle_raises(self, store):
        catalog = small_catalog()
        store.save_history(catalog.get(44713))
        path = store.root / "tles" / "44713.tle"
        text = path.read_text()
        path.write_text(text[:-2] + "9\n")  # break the final checksum
        with pytest.raises(IngestError):
            store.load_history(44713)

    def test_full_catalog_round_trip(self, store):
        catalog = small_catalog()
        store.save_catalog(catalog)
        back = store.load_catalog()
        assert back is not None
        assert back.catalog_numbers == [44713, 44714]
        assert back.total_records() == 10

    def test_load_catalog_skips_missing_histories(self, store):
        store.save_catalog(small_catalog())
        (store.root / "tles" / "44714.tle").unlink()
        back = store.load_catalog()
        assert back.catalog_numbers == [44713]


class TestAtomicWriteDurability:
    def test_no_tmp_left_after_save(self, store):
        store.save_dst(DstIndex.from_hourly(Epoch.from_calendar(2023, 1, 1), [-10.0]))
        assert list(store.root.rglob("*.tmp")) == []

    def test_fsync_called_before_replace(self, store, monkeypatch):
        import os as os_module

        calls = []
        real_fsync = os_module.fsync
        monkeypatch.setattr(
            "repro.io.store.os.fsync",
            lambda fd: (calls.append("fsync"), real_fsync(fd))[1],
        )
        store.save_catalog_numbers([1, 2])
        assert calls == ["fsync"]

    def test_failed_replace_cleans_tmp_and_keeps_target(self, store, monkeypatch):
        store.save_catalog_numbers([1])
        monkeypatch.setattr(
            "repro.io.store.os.replace",
            lambda src, dst: (_ for _ in ()).throw(OSError("disk on fire")),
        )
        with pytest.raises(OSError):
            store.save_catalog_numbers([2])
        monkeypatch.undo()
        assert list(store.root.rglob("*.tmp")) == []
        assert store.load_catalog_numbers() == [1]

    def test_concurrent_writers_use_unique_temp_names(self, store, monkeypatch):
        # Two writers racing on the same target must never share a temp
        # file: capture the temp names os.replace sees.
        import os as os_module

        seen = []
        real_replace = os_module.replace
        monkeypatch.setattr(
            "repro.io.store.os.replace",
            lambda src, dst: (seen.append(str(src)), real_replace(src, dst))[1],
        )
        store.save_catalog_numbers([1])
        store.save_catalog_numbers([2])
        assert len(seen) == 2
        assert seen[0] != seen[1]

    def test_stale_tmp_swept_on_init(self, tmp_path):
        root = tmp_path / "cache"
        (root / "tles").mkdir(parents=True)
        (root / "dst.csv.abc123.tmp").write_text("torn write")
        (root / "tles" / "44713.tle.xyz.tmp").write_text("torn write")
        store = DataStore(root)
        assert list(store.root.rglob("*.tmp")) == []


class TestRetryIntegration:
    def test_transient_read_errors_retried(self, store):
        from repro.robustness import RetryPolicy

        store.save_catalog_numbers([5])
        flaky = DataStore(
            store.root, retry=RetryPolicy(max_attempts=3, sleep=lambda s: None)
        )
        failures = {"left": 2}
        original = DataStore._read_text

        def flaky_read(self, path):
            if failures["left"]:
                failures["left"] -= 1
                raise OSError("transient")
            return original(self, path)

        flaky._read_text = flaky_read.__get__(flaky)
        assert flaky.load_catalog_numbers() == [5]
        assert failures["left"] == 0


class TestSalvageMode:
    def salvage_store(self, store):
        return DataStore(store.root, salvage=True)

    def test_partially_corrupt_history_salvaged_and_healed(self, store):
        catalog = small_catalog()
        store.save_history(catalog.get(44713))
        path = store.root / "tles" / "44713.tle"
        text = path.read_text()
        path.write_text(text[:-2] + "9\n")  # break the final checksum
        salvaging = self.salvage_store(store)
        history = salvaging.load_history(44713)
        assert history is not None
        assert len(history) == 4  # one record lost, four salvaged
        # Original moved aside, cache rewritten clean.
        assert (store.root / "quarantine" / "44713.tle").exists()
        assert DataStore(store.root).load_history(44713) is not None
        entries = salvaging.ledger.entries
        assert len(entries) == 1
        assert entries[0].kind == "artifact"
        assert "salvaged 4" in entries[0].reason

    def test_hopeless_history_quarantines_satellite(self, store):
        catalog = small_catalog()
        store.save_history(catalog.get(44713))
        path = store.root / "tles" / "44713.tle"
        path.write_text("utter garbage\nnothing here parses\n")
        salvaging = self.salvage_store(store)
        assert salvaging.load_history(44713) is None
        assert salvaging.ledger.satellites == [44713]
        assert (store.root / "quarantine" / "44713.tle").exists()
        assert not path.exists()

    def test_one_corrupt_file_never_discards_the_catalog(self, store):
        store.save_catalog(small_catalog())
        path = store.root / "tles" / "44713.tle"
        path.write_text("utter garbage\n")
        salvaging = self.salvage_store(store)
        back = salvaging.load_catalog()
        assert back is not None
        assert back.catalog_numbers == [44714]
        assert salvaging.ledger.satellites == [44713]

    def test_strict_mode_still_raises(self, store):
        store.save_catalog(small_catalog())
        path = store.root / "tles" / "44713.tle"
        text = path.read_text()
        path.write_text(text[:-2] + "9\n")  # break the final checksum
        with pytest.raises(IngestError):
            DataStore(store.root).load_catalog()

    def test_corrupt_dst_salvaged_to_none(self, store):
        store.save_dst(
            DstIndex.from_hourly(Epoch.from_calendar(2023, 1, 1), [-10.0] * 24)
        )
        (store.root / "dst.csv").write_text("definitely,not,a\ndst,csv,file\n")
        salvaging = self.salvage_store(store)
        assert salvaging.load_dst() is None
        assert len(salvaging.ledger) == 1
        assert (store.root / "quarantine" / "dst.csv").exists()

    def test_corrupt_number_lines_skipped(self, store):
        store.save_catalog_numbers([1, 2])
        (store.root / "catalog_numbers.txt").write_text("1\nnot-a-number\n2\n")
        salvaging = self.salvage_store(store)
        assert salvaging.load_catalog_numbers() == [1, 2]
        assert len(salvaging.ledger) == 1

    def test_non_utf8_bytes_cost_only_their_record(self, store):
        store.save_history(small_catalog().get(44713))
        path = store.root / "tles" / "44713.tle"
        data = path.read_bytes()
        path.write_bytes(data[:-20] + b"\xff" + data[-19:])  # inside the last line 2
        salvaging = self.salvage_store(store)
        history = salvaging.load_history(44713)
        assert history is not None and len(history) == 4
        assert "salvaged 4" in salvaging.ledger.entries[0].reason
        assert DataStore(store.root).load_history(44713) is not None  # healed
        path.write_bytes(data + b"\xff\xfe")
        with pytest.raises(IngestError, match="not UTF-8 text"):
            DataStore(store.root).load_history(44713)

    def test_non_utf8_trace_and_alert_log_are_unreadable(self, store):
        store.save_trace("{}\n")
        store.append_alerts(["{}"])
        (store.root / "obs" / "trace.jsonl").write_bytes(b"\xff\xfe{}\n")
        (store.root / "alerts" / "alerts.jsonl").write_bytes(b"{}\n\xff\n")
        assert store.load_trace() is None
        assert store.load_alerts() is None
        assert [entry.reason for entry in store.ledger] == [
            "unreadable trace (UnicodeDecodeError)",
            "unreadable alert log (UnicodeDecodeError)",
        ]


class TestIngestIntegration:
    def test_cache_feeds_pipeline(self, store, tmp_path):
        """A cache hydrates the pipeline exactly like a live fetch."""
        import numpy as np

        from repro import CosmicDance

        hours = np.arange(24 * 90)
        dst = DstIndex.from_hourly(
            Epoch.from_calendar(2023, 1, 1), -10.0 + 3.0 * np.sin(0.7 * hours)
        )
        catalog = SatelliteCatalog()
        for day in range(90):
            catalog.add(record(44713, float(day), 550.0))
        store.save_dst(dst)
        store.save_catalog(catalog)

        cd = CosmicDance()
        cd.ingest.add_dst(store.load_dst())
        cd.ingest.add_elements(store.load_catalog().all_elements())
        result = cd.run()
        assert 44713 in result.cleaned
