"""Unit tests for the delta-aware re-analysis planner."""

from repro.core.config import CosmicDanceConfig
from repro.core.pipeline import CosmicDance
from repro.exec import StageMemo
from repro.stream import DeltaPlanner, StreamIngestor
from repro.tle import SatelliteCatalog

from tests.core.helpers import record
from tests.stream.conftest import hourly


def small_dataset(satellites=3, days=30):
    dst = hourly([-10.0] * 24 * days)
    catalog = SatelliteCatalog()
    for number in range(1, satellites + 1):
        for day in range(days):
            catalog.add(record(number, float(day), 550.0))
    return dst, catalog


def warm_pipeline(dst, catalog, memo, config):
    pipeline = CosmicDance(config, memo=memo)
    pipeline.ingest.add_dst(dst)
    pipeline.ingest.add_elements(catalog.all_elements())
    pipeline.run()
    return pipeline


class TestPlanning:
    def test_cold_plan_marks_everything_dirty(self):
        _, catalog = small_dataset()
        planner = DeltaPlanner()
        plan = planner.plan(catalog, memo=StageMemo())
        assert plan.dirty == (1, 2, 3)
        assert plan.clean == ()
        assert plan.storms_dirty and plan.associate_dirty and plan.any_dirty

    def test_warm_plan_is_clean(self):
        dst, catalog = small_dataset()
        memo = StageMemo()
        config = CosmicDanceConfig()
        warm_pipeline(dst, catalog, memo, config)
        planner = DeltaPlanner()
        planner.commit()  # pretend the warm run was ours
        plan = planner.plan(catalog, memo=memo, config=config)
        assert plan.dirty == ()
        assert plan.clean == (1, 2, 3)
        assert not plan.storms_dirty
        assert not plan.any_dirty
        assert plan.pairs() == []

    def test_dirty_satellite_and_dst_tracked_separately(self):
        dst, catalog = small_dataset()
        memo = StageMemo()
        config = CosmicDanceConfig()
        warm_pipeline(dst, catalog, memo, config)
        planner = DeltaPlanner()
        planner.commit()
        # A new TLE for satellite 2 arrives through the ingest path.
        ingestor = StreamIngestor()
        ingestor.state.add_elements(catalog.all_elements())
        delta = ingestor.offer_elements([record(2, 30.0, 549.0)])
        planner.note(delta)
        assert planner.pending_dirty == frozenset({2})
        plan = planner.plan(
            ingestor.state.catalog, memo=memo, config=config
        )
        assert plan.dirty == (2,)
        assert plan.clean == (1, 3)
        assert not plan.storms_dirty  # no new Dst hours
        assert plan.associate_dirty  # fleet side changed
        assert plan.pairs() == [(2, "fleet"), (None, "associate")]

    def test_plan_probe_moves_no_memo_counters(self):
        dst, catalog = small_dataset()
        memo = StageMemo()
        config = CosmicDanceConfig()
        warm_pipeline(dst, catalog, memo, config)
        hits, misses = memo.hits, memo.misses
        DeltaPlanner().plan(catalog, memo=memo, config=config)
        assert (memo.hits, memo.misses) == (hits, misses)

    def test_duplicate_deltas_do_not_dirty(self):
        planner = DeltaPlanner()
        ingestor = StreamIngestor()
        chunk_delta = ingestor.offer_elements([record(1, 0.0, 550.0)])
        duplicate = ingestor.offer_elements(
            [record(1, 0.0, 550.0)], chunk_id=chunk_delta.chunk_id
        )
        planner.note(duplicate)
        assert planner.pending_dirty == frozenset()

    def test_commit_clears_pending_state(self):
        planner = DeltaPlanner()
        ingestor = StreamIngestor()
        planner.note(ingestor.offer_dst(hourly([-10.0] * 24)))
        planner.note(ingestor.offer_elements([record(1, 0.0, 550.0)]))
        assert planner.pending_dst_hours == 24
        assert planner.pending_dirty == frozenset({1})
        planner.commit()
        assert planner.pending_dst_hours == 0
        assert planner.pending_dirty == frozenset()
