"""Seed determinism and incremental-rerun cache behaviour.

The acceptance bar for the fleet stage: a seeded run lands on the same
``result_digest`` however it executes (cold or warm cache, traced or
not), and a re-run after incremental ingest only recomputes the
satellites whose records changed.
"""

from repro import CosmicDance, CosmicDanceConfig, analyze
from repro.exec import StageMemo, result_digest
from repro.simulation.scenario import quickstart_scenario

from tests.core.helpers import record, steady_history


def seeded_pipeline(config=None):
    scenario = quickstart_scenario(seed=2)
    cd = CosmicDance(config)
    cd.ingest.add_dst(scenario.dst)
    cd.ingest.add_elements(scenario.catalog.all_elements())
    return cd


def seeded_analysis(seed=2, **kwargs):
    scenario = quickstart_scenario(seed=seed)
    return analyze(scenario.dst, scenario.catalog, **kwargs)


class TestIncrementalRerun:
    def test_second_run_is_all_hits(self):
        cd = seeded_pipeline()
        first = cd.run()
        assert first.health.cache_hits == 0
        assert first.health.cache_misses == len(first.decay_assessments)
        second = cd.run()
        assert second.health.cache_hits == first.health.cache_misses
        assert second.health.cache_misses == 0
        assert second.trajectory_events == first.trajectory_events
        assert second.decay_assessments == first.decay_assessments

    def test_rerun_recomputes_only_dirty_satellites(self):
        cd = seeded_pipeline()
        first = cd.run()
        total = first.health.cache_misses
        # New records for exactly one satellite dirty its digest; every
        # other satellite must be served from the memo.
        dirty_number = next(iter(cd.ingest.catalog)).catalog_number
        cd.ingest.add_elements(
            [record(dirty_number, 400.0 + d, 550.0) for d in range(3)]
        )
        second = cd.run()
        assert second.health.cache_misses == 1
        assert second.health.cache_hits == total - 1

    def test_brand_new_satellite_is_the_only_miss(self):
        cd = seeded_pipeline()
        total = cd.run().health.cache_misses
        cd.ingest.add_elements(list(steady_history(catalog=99999, days=30)))
        second = cd.run()
        assert second.health.cache_misses == 1
        assert second.health.cache_hits == total
        assert 99999 in second.decay_assessments

    def test_cache_disabled_recomputes_everything(self):
        cd = seeded_pipeline(CosmicDanceConfig(cache_stages=False))
        assert cd.memo is None
        first = cd.run()
        second = cd.run()
        assert second.health.cache_hits == 0
        assert second.health.cache_misses == 0
        assert second.trajectory_events == first.trajectory_events

    def test_fleet_stage_is_timed(self):
        health = seeded_pipeline().run().health
        by_name = {s.stage: s for s in health.stages}
        assert set(by_name) == {"fleet", "storms", "associate"}
        assert by_name["fleet"].elapsed_s > 0.0


class TestSeedDeterminism:
    """`analyze()` with a fixed seed is one result, however it executes.

    The digest covers every scientific output plus the quarantine
    ledger, and deliberately excludes wall-clock timings and cache
    hit/miss counts — so cold vs warm cache and traced vs untraced must
    all land on the same bytes.
    """

    def test_same_seed_same_digest(self):
        assert result_digest(seeded_analysis()) == result_digest(seeded_analysis())

    def test_different_seed_different_digest(self):
        assert result_digest(seeded_analysis(seed=2)) != result_digest(
            seeded_analysis(seed=3)
        )

    def test_cold_vs_warm_cache(self):
        memo = StageMemo()
        cold = seeded_analysis(memo=memo)
        warm = seeded_analysis(memo=memo)
        assert cold.health.cache_misses > 0 and warm.health.cache_hits > 0
        assert result_digest(cold) == result_digest(warm)

    def test_traced_run_digest_unchanged(self):
        plain = seeded_analysis()
        traced = seeded_analysis(config=CosmicDanceConfig(trace=True))
        assert result_digest(plain) == result_digest(traced)
