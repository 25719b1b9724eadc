"""End-to-end observability: a traced run must explain itself.

The acceptance contract for ``--trace``: a traced run emits a span
tree covering every executed stage, each satellite span carries its
cache hit/miss attribute, quarantined satellites carry the quarantine
reason, and with tracing disabled no ``obs/`` I/O happens at all.
"""

import numpy as np
import pytest

import repro.core.pipeline as pipeline_module
from repro import CosmicDance, CosmicDanceConfig, RetryPolicy
from repro.exec import StageMemo
from repro.obs import NULL_METRICS, NULL_TRACER, MetricsRegistry
from repro.spaceweather import DstIndex

from tests.core.helpers import START, steady_history

SATELLITES = 6


def quiet_dst(days=60):
    hours = np.arange(days * 24)
    return DstIndex.from_hourly(START, -10.0 + 3.0 * np.sin(0.7 * hours))


def traced_pipeline(memo=None, **config_kwargs):
    cd = CosmicDance(CosmicDanceConfig(trace=True, **config_kwargs), memo=memo)
    cd.ingest.add_dst(quiet_dst())
    for catalog in range(1, SATELLITES + 1):
        cd.ingest.add_elements(list(steady_history(catalog=catalog, days=60)))
    return cd


class TestTracedRun:
    def test_span_tree_covers_every_stage(self):
        cd = traced_pipeline()
        cd.run()
        spans = cd.tracer.spans
        (run,) = cd.tracer.find("run")
        assert run.parent_id is None
        stage_names = {s.name for s in spans if s.parent_id == run.span_id}
        assert stage_names == {"stage:fleet", "stage:storms", "stage:associate"}
        assert all(s.elapsed_s is not None for s in spans)

    def test_every_executed_satellite_has_a_miss_span(self):
        cd = traced_pipeline()
        cd.run()
        satellites = cd.tracer.find("satellite")
        assert len(satellites) == SATELLITES
        assert {s.attrs["catalog_number"] for s in satellites} == set(
            range(1, SATELLITES + 1)
        )
        assert {s.attrs["cache"] for s in satellites} == {"miss"}
        (fleet,) = cd.tracer.find("stage:fleet")
        assert all(s.parent_id == fleet.span_id for s in satellites)

    def test_warm_cache_rerun_spans_hits(self):
        memo = StageMemo()
        traced_pipeline(memo=memo).run()
        warm = traced_pipeline(memo=memo)
        warm.run()
        satellites = warm.tracer.find("satellite")
        assert {s.attrs["cache"] for s in satellites} == {"hit"}
        assert warm.result.health.metric("fleet.cache_hits").value == SATELLITES

    def test_metrics_fold_into_run_health(self):
        cd = traced_pipeline()
        result = cd.run()
        names = {m.name for m in result.health.metrics}
        assert {"fleet.satellites", "fleet.cache_misses", "memo.misses"} <= names
        assert result.health.metric("fleet.satellites").value == SATELLITES
        assert result.health.metric("absent") is None


@pytest.mark.chaos
class TestTracedQuarantine:
    def test_quarantined_satellite_span_carries_reason(self, monkeypatch):
        def poisoned(history, config):
            if history.catalog_number == 3:
                raise ZeroDivisionError("poisoned history")
            from repro.core.decay import assess_decay

            return assess_decay(history, config)

        monkeypatch.setattr(pipeline_module, "assess_decay", poisoned)
        cd = traced_pipeline()
        result = cd.run()
        assert 3 in result.health.quarantined_satellites
        (bad,) = [
            s
            for s in cd.tracer.find("satellite")
            if s.attrs.get("quarantined")
        ]
        assert bad.attrs["catalog_number"] == 3
        assert bad.attrs["error_stage"] == "assess"
        assert bad.attrs["reason"] == "ZeroDivisionError: poisoned history"
        (fleet,) = cd.tracer.find("stage:fleet")
        assert fleet.attrs["quarantined"] == 1


class TestDisabledIsFree:
    def test_default_config_uses_null_tracer(self):
        cd = CosmicDance()
        assert cd.tracer is NULL_TRACER
        assert cd.metrics is NULL_METRICS

    def test_untraced_run_records_nothing(self):
        cd = CosmicDance(CosmicDanceConfig())
        cd.ingest.add_dst(quiet_dst())
        cd.ingest.add_elements(list(steady_history(days=60)))
        result = cd.run()
        assert cd.tracer.spans == ()
        assert result.health.metrics == ()

    def test_untraced_pipeline_never_touches_obs_dir(self, tmp_path):
        from repro.io.store import DataStore
        from repro.obs import write_trace

        cd = CosmicDance(CosmicDanceConfig())
        cd.ingest.add_dst(quiet_dst())
        cd.ingest.add_elements(list(steady_history(days=60)))
        cd.run()
        store = DataStore(tmp_path)
        assert write_trace(store, cd.tracer, cd.metrics) is None
        assert not (tmp_path / "obs").exists()


class TestRetryMetrics:
    def test_retries_surface_as_counters(self):
        metrics_registry = MetricsRegistry()
        attempts = {"n": 0}

        def flaky():
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise OSError("transient")
            return "ok"

        policy = RetryPolicy(
            max_attempts=4, sleep=lambda _: None, metrics=metrics_registry
        )
        assert policy.call(flaky) == "ok"
        assert metrics_registry.counter("retry.attempts").value == 2

    def test_exhaustion_counts(self):
        registry = MetricsRegistry()
        policy = RetryPolicy(
            max_attempts=2, sleep=lambda _: None, metrics=registry
        )
        with pytest.raises(OSError):
            policy.call(lambda: (_ for _ in ()).throw(OSError("down")))
        assert registry.counter("retry.attempts").value == 1
        assert registry.counter("retry.exhausted").value == 1
