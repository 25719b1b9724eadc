"""Digest and stage-memoization tests, including the persistence tier."""

from dataclasses import replace

import pytest

from repro.core.config import CosmicDanceConfig
from repro.core.pipeline import process_satellite, satellite_task
from repro.exec import (
    StageMemo,
    cache_key,
    config_digest,
    history_digest,
)
from repro.io.store import DataStore

from tests.core.helpers import record, steady_history


class TestHistoryDigest:
    def test_stable_for_identical_histories(self):
        a = tuple(steady_history(catalog=5, days=30))
        b = tuple(steady_history(catalog=5, days=30))
        assert history_digest(a) == history_digest(b)

    def test_changes_on_any_record_change(self):
        base = tuple(steady_history(catalog=5, days=30))
        appended = base + (record(5, 30.0, 550.0),)
        altered = base[:-1] + (record(5, 29.0, 551.0),)
        digests = {history_digest(base), history_digest(appended), history_digest(altered)}
        assert len(digests) == 3

    def test_order_sensitive(self):
        base = tuple(steady_history(catalog=5, days=10))
        assert history_digest(base) != history_digest(tuple(reversed(base)))


class TestConfigDigest:
    def test_analysis_fields_matter(self):
        assert config_digest(CosmicDanceConfig()) != config_digest(
            CosmicDanceConfig(drag_spike_factor=3.0)
        )

    def test_execution_fields_do_not(self):
        # Toggling tracing or strictness must not invalidate cached
        # outcomes — they cannot change what a satellite computes.
        base = config_digest(CosmicDanceConfig())
        assert base == config_digest(CosmicDanceConfig(trace=True))
        assert base == config_digest(CosmicDanceConfig(strict=True))
        assert base == config_digest(CosmicDanceConfig(cache_stages=False))


class TestStageMemo:
    def outcome(self, catalog=1, days=40):
        task = satellite_task(steady_history(catalog=catalog, days=days))
        return task, process_satellite(task, CosmicDanceConfig())

    def test_miss_then_hit(self):
        memo = StageMemo()
        task, outcome = self.outcome()
        cfg = config_digest(CosmicDanceConfig())
        assert memo.get(task.digest, cfg) is None
        memo.put(task.digest, cfg, outcome)
        hit = memo.get(task.digest, cfg)
        assert hit is not None
        assert hit.from_cache
        assert replace(hit, from_cache=False) == outcome
        assert (memo.hits, memo.misses) == (1, 1)

    def test_failures_never_cached(self):
        memo = StageMemo()
        task, outcome = self.outcome()
        failed = replace(outcome, error="ValueError: transient", error_stage="assess")
        memo.put(task.digest, "cfg", failed)
        assert memo.get(task.digest, "cfg") is None

    def test_config_digest_partitions_entries(self):
        memo = StageMemo()
        task, outcome = self.outcome()
        memo.put(task.digest, "cfg-a", outcome)
        assert memo.get(task.digest, "cfg-b") is None

    def test_persistent_roundtrip(self, tmp_path):
        task, outcome = self.outcome(catalog=44713)
        cfg = config_digest(CosmicDanceConfig())
        writer = StageMemo(DataStore(tmp_path))
        writer.put(task.digest, cfg, outcome)
        # A fresh memo over the same store starts warm...
        reader = StageMemo(DataStore(tmp_path))
        hit = reader.get(task.digest, cfg)
        assert hit is not None and hit.from_cache
        # ...and the rehydrated outcome is exact, not approximate.
        assert replace(hit, from_cache=False) == outcome

    def test_corrupt_persistent_entry_degrades_to_miss(self, tmp_path):
        task, outcome = self.outcome()
        cfg = config_digest(CosmicDanceConfig())
        store = DataStore(tmp_path)
        StageMemo(store).put(task.digest, cfg, outcome)
        name = cache_key(task.digest, cfg)
        entry = tmp_path / "stage_cache" / f"{name}.json"
        entry.write_text("{ not json")
        fresh_store = DataStore(tmp_path)
        memo = StageMemo(fresh_store)
        assert memo.get(task.digest, cfg) is None
        assert len(fresh_store.ledger) == 1
        assert not entry.exists()  # quarantined aside, not left to re-fail

    def test_clear_drops_memory_not_store(self, tmp_path):
        task, outcome = self.outcome()
        cfg = config_digest(CosmicDanceConfig())
        memo = StageMemo(DataStore(tmp_path))
        memo.put(task.digest, cfg, outcome)
        memo.clear()
        assert len(memo) == 0
        assert memo.get(task.digest, cfg) is not None  # reloaded from disk
