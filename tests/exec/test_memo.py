"""Digest and stage-memoization tests, including the persistence tier."""

import json
import math
from dataclasses import fields, replace

import pytest

from repro import analyze
from repro.core.config import CosmicDanceConfig
from repro.core.pipeline import process_satellite
from repro.exec import (
    StageMemo,
    cache_key,
    config_digest,
    history_digest,
    result_digest,
)
from repro.io.store import DataStore
from repro.simulation.scenario import quickstart_scenario
from repro.time import Epoch
from repro.tle import MeanElements

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
        # 0.3 s later: ``repr(Epoch)`` rounds this away, the digest must not.
        last = base[-1]
        shifted = base[:-1] + (last.with_epoch(last.epoch.add_seconds(0.3)),)
        variants = (base, appended, altered, shifted)
        assert len({history_digest(history) for history in variants}) == 4

    def test_order_sensitive(self):
        base = tuple(steady_history(catalog=5, days=10))
        assert history_digest(base) != history_digest(tuple(reversed(base)))

    @pytest.mark.parametrize("name", [f.name for f in fields(MeanElements)])
    def test_changes_on_any_single_field(self, name):
        base = tuple(steady_history(catalog=5, days=10))
        value = getattr(base[3], name)
        if isinstance(value, Epoch):
            changed = Epoch(math.nextafter(value.jd, math.inf))
        elif isinstance(value, float):
            changed = math.nextafter(value, math.inf)  # one float step
        elif isinstance(value, int):
            changed = value + 1
        else:
            changed = value + "X"
        altered = base[:3] + (replace(base[3], **{name: changed}),) + base[4:]
        assert history_digest(altered) != history_digest(base)

    def test_text_fields_do_not_run_into_each_other(self):
        base = tuple(steady_history(catalog=5, days=10))
        left = replace(base[0], classification="U1", intl_designator="9074A")
        right = replace(base[0], classification="U", intl_designator="19074A")
        assert history_digest((left,) + base[1:]) != history_digest((right,) + base[1:])

    def test_int_fields_beyond_64_bits_digest(self):
        base = tuple(steady_history(catalog=5, days=10))
        huge = (replace(base[0], rev_number=2**64 + 1),) + base[1:]
        assert history_digest(huge) != history_digest(base)


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
        history = steady_history(catalog=catalog, days=days)
        return history, process_satellite(history, CosmicDanceConfig())

    def test_miss_then_hit(self):
        memo = StageMemo()
        history, outcome = self.outcome()
        cfg = config_digest(CosmicDanceConfig())
        assert memo.get(history, cfg) is None
        memo.put(history, cfg, outcome)
        assert memo.get(history, cfg) == outcome
        assert (memo.hits, memo.misses) == (1, 1)

    def test_failures_never_cached(self):
        memo = StageMemo()
        history, outcome = self.outcome()
        failed = replace(outcome, error="ValueError: transient", error_stage="assess")
        memo.put(history, "cfg", failed)
        assert memo.get(history, "cfg") is None

    def test_config_digest_partitions_entries(self):
        memo = StageMemo()
        history, outcome = self.outcome()
        memo.put(history, "cfg-a", outcome)
        assert memo.get(history, "cfg-b") is None

    def test_persistent_roundtrip(self, tmp_path):
        history, outcome = self.outcome(catalog=44713)
        cfg = config_digest(CosmicDanceConfig())
        writer = StageMemo(DataStore(tmp_path))
        writer.put(history, cfg, outcome)
        # A fresh memo over the same store starts warm, and the
        # rehydrated outcome is exact, not approximate — read, as the
        # next process does, against equal records in new objects.
        reader = StageMemo(DataStore(tmp_path))
        assert reader.get(steady_history(catalog=44713, days=40), cfg) == outcome

    def test_peek_probes_both_tiers_without_counting(self, tmp_path):
        history, outcome = self.outcome()
        cfg = config_digest(CosmicDanceConfig())
        memo = StageMemo(DataStore(tmp_path))
        assert not memo.peek(history, cfg)
        memo.put(history, cfg, outcome)
        memo.clear()
        assert memo.peek(history, cfg)
        assert (memo.hits, memo.misses, len(memo)) == (0, 0, 0)

    def test_corrupt_persistent_entry_degrades_to_miss(self, tmp_path):
        history, outcome = self.outcome()
        cfg = config_digest(CosmicDanceConfig())
        store = DataStore(tmp_path)
        StageMemo(store).put(history, cfg, outcome)
        name = cache_key(history.digest, cfg)
        entry = tmp_path / "stage_cache" / f"{name}.json"
        entry.write_text("{ not json")
        fresh_store = DataStore(tmp_path)
        memo = StageMemo(fresh_store)
        assert memo.get(history, cfg) is None
        assert len(fresh_store.ledger) == 1
        assert not entry.exists()  # quarantined aside, not left to re-fail

    def test_non_utf8_persistent_entry_is_quarantined_not_raised(self, tmp_path):
        history, outcome = self.outcome()
        cfg = config_digest(CosmicDanceConfig())
        StageMemo(DataStore(tmp_path)).put(history, cfg, outcome)
        name = cache_key(history.digest, cfg)
        (tmp_path / "stage_cache" / f"{name}.json").write_bytes(b"\xff\xfe garbage")
        store = DataStore(tmp_path)
        quarantined: list[str] = []
        assert StageMemo(store).get(history, cfg, quarantined=quarantined) is None
        assert quarantined == [name]
        assert [entry.reason for entry in store.ledger] == [
            "corrupt stage-cache entry (UnicodeDecodeError)"
        ]

    def test_unreadable_persistent_entry_is_quarantined_and_reported(self, tmp_path):
        history, outcome = self.outcome()
        cfg = config_digest(CosmicDanceConfig())
        StageMemo(DataStore(tmp_path)).put(history, cfg, outcome)

        class UnreadableStore(DataStore):
            def _read_text(self, path):
                raise PermissionError(path.name)

        store = UnreadableStore(tmp_path)
        quarantined: list[str] = []
        assert StageMemo(store).get(history, cfg, quarantined=quarantined) is None
        assert quarantined == [cache_key(history.digest, cfg)]
        assert [entry.reason for entry in store.ledger] == [
            "unreadable stage-cache entry (PermissionError)"
        ]
        assert (tmp_path / "quarantine" / f"{quarantined[0]}.json").exists()

    def test_clear_drops_memory_not_store(self, tmp_path):
        history, outcome = self.outcome()
        cfg = config_digest(CosmicDanceConfig())
        memo = StageMemo(DataStore(tmp_path))
        memo.put(history, cfg, outcome)
        memo.clear()
        assert len(memo) == 0
        assert memo.get(history, cfg) is not None  # reloaded from disk


def tamper_last_run(payload):
    payload["kept"][-1][1] = 10**6  # past the history's end


def tamper_overlap(payload):
    payload["kept"].append([0, 1])  # behind the previous run


def tamper_kept_count(payload):
    payload["kept"][0][1] -= 1  # one record fewer than report.kept


def tamper_catalog(payload):
    payload["catalog_number"] += 1


class TestTamperedEntries:
    """A tampered entry is quarantined and recomputed: the warm run lands
    on the digest of the cold run that computed every satellite."""

    @pytest.fixture(scope="class")
    def scenario(self):
        return quickstart_scenario(seed=2)

    @pytest.mark.parametrize(
        "tamper",
        [tamper_last_run, tamper_overlap, tamper_kept_count, tamper_catalog],
        ids=["out-of-range", "overlap", "kept-count", "catalog"],
    )
    def test_quarantined_and_recomputed(self, tmp_path, scenario, tamper):
        memo = StageMemo(DataStore(tmp_path))
        cold = analyze(scenario.dst, scenario.catalog, memo=memo)
        history = max(scenario.catalog, key=len)
        cfg = config_digest(CosmicDanceConfig())
        entry = tmp_path / "stage_cache" / f"{cache_key(history.digest, cfg)}.json"
        payload = json.loads(entry.read_text())
        tamper(payload)
        entry.write_text(json.dumps(payload))

        store = DataStore(tmp_path)
        warm = analyze(scenario.dst, scenario.catalog, memo=StageMemo(store))
        assert warm.health.cache_misses == 1
        assert warm.health.cache_quarantined == 1
        assert len(store.ledger) == 1
        assert (tmp_path / "quarantine" / entry.name).exists()
        assert result_digest(warm) == result_digest(cold)
