"""Tests for the one-shot facade, the typed delegate signatures, and the
per-run ledger scoping regression."""

import io
import warnings

import numpy as np
import pytest

import repro
from repro import CosmicDance, CosmicDanceConfig, analyze
from repro.errors import PipelineError
from repro.exec import StageMemo
from repro.io.csvio import write_dst_csv
from repro.simulation.scenario import quickstart_scenario
from repro.tle.format import format_tle

import repro.core.pipeline as pipeline_module

from tests.core.helpers import START, steady_history
from repro.spaceweather import DstIndex


def noisy_dst(days=60):
    hours = np.arange(days * 24)
    return DstIndex.from_hourly(START, -10.0 + 3.0 * np.sin(0.7 * hours))


class TestAnalyzeFacade:
    def test_matches_manual_pipeline(self):
        scenario = quickstart_scenario(seed=2)
        facade = analyze(scenario.dst, scenario.catalog)
        cd = CosmicDance()
        cd.ingest.add_dst(scenario.dst)
        cd.ingest.add_elements(scenario.catalog.all_elements())
        manual = cd.run()
        assert facade.storm_episodes == manual.storm_episodes
        assert facade.trajectory_events == manual.trajectory_events
        assert facade.associations == manual.associations
        assert facade.decay_assessments == manual.decay_assessments

    def test_accepts_raw_text_inputs(self):
        buffer = io.StringIO()
        write_dst_csv(noisy_dst(), buffer)
        lines = []
        for elements in steady_history(catalog=7, days=40):
            lines.extend(format_tle(elements))
        result = analyze(buffer.getvalue(), "\n".join(lines) + "\n")
        assert 7 in result.decay_assessments

    def test_accepts_element_iterable(self):
        result = analyze(noisy_dst(), list(steady_history(catalog=3, days=40)))
        assert set(result.decay_assessments) == {3}

    def test_config_and_memo_pass_through(self):
        memo = StageMemo()
        scenario = quickstart_scenario(seed=2)
        result = analyze(
            scenario.dst,
            scenario.catalog,
            config=CosmicDanceConfig(event_percentile=99.5),
            memo=memo,
        )
        assert result.config.event_percentile == 99.5
        assert len(memo) == len(scenario.catalog)

    def test_rejects_unknown_dst_type(self):
        with pytest.raises(PipelineError):
            analyze(42, [])

    def test_exported_from_package_root(self):
        assert repro.analyze is analyze
        assert "analyze" in repro.__all__


class TestTypedDelegates:
    def make_pipeline(self):
        cd = CosmicDance()
        cd.ingest.add_dst(noisy_dst())
        cd.ingest.add_elements(list(steady_history(catalog=11, days=60)))
        cd.run()
        return cd

    def test_named_keyword_parameters_work(self):
        cd = self.make_pipeline()
        exposure = cd.band_exposure(step_minutes=60.0, max_satellites=2)
        assert exposure is not None
        report = cd.conjunctions(half_width_km=3.0)
        assert report is not None

    def test_positional_arguments_rejected(self):
        cd = self.make_pipeline()
        with pytest.raises(TypeError):
            cd.band_exposure(60.0)
        with pytest.raises(TypeError):
            cd.conjunctions(3.0)

    def test_unknown_kwargs_raise_type_error(self):
        cd = self.make_pipeline()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TypeError):
                cd.band_exposure(bogus_knob=1)
            with pytest.raises(TypeError):
                cd.conjunctions(bogus_knob=1)

    def test_typed_returns(self):
        cd = self.make_pipeline()
        assert isinstance(cd.storm_impacts(), list)
        assert isinstance(cd.reentry_predictions(), list)


class TestPerRunLedgerScoping:
    """Regression: re-running must not double-count quarantine entries."""

    def poisoned_pipeline(self, monkeypatch):
        from repro.core.decay import assess_decay

        def poisoned(history, config):
            if history.catalog_number == 2:
                raise ZeroDivisionError("poisoned history")
            return assess_decay(history, config)

        monkeypatch.setattr(pipeline_module, "assess_decay", poisoned)
        cd = CosmicDance(CosmicDanceConfig(cache_stages=False))
        cd.ingest.add_dst(noisy_dst())
        for catalog in (1, 2, 3):
            cd.ingest.add_elements(list(steady_history(catalog=catalog, days=60)))
        return cd

    def test_rerun_keeps_entry_count_stable(self, monkeypatch):
        cd = self.poisoned_pipeline(monkeypatch)
        first = cd.run()
        assert len(first.health.entries) == 1
        second = cd.run()
        third = cd.run()
        assert len(second.health.entries) == 1
        assert len(third.health.entries) == 1
        assert second.health.ledger_text() == first.health.ledger_text()

    def test_ingest_ledger_untouched_by_run_failures(self, monkeypatch):
        cd = self.poisoned_pipeline(monkeypatch)
        cd.run()
        # The shared ingest ledger only holds ingest/storage-time skips;
        # run-time quarantine lives on the run's own health snapshot.
        assert len(cd.ledger) == 0

    def test_ingest_entries_still_folded_into_each_run(self, monkeypatch):
        cd = self.poisoned_pipeline(monkeypatch)
        cd.ledger.quarantine_artifact("dst.csv", "storage", "salvaged")
        first = cd.run()
        second = cd.run()
        # 1 pre-existing storage entry + 1 fresh run entry, both runs.
        assert len(first.health.entries) == 2
        assert len(second.health.entries) == 2
