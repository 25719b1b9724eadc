"""The JSONL sink, DataStore persistence, and the trace-report renderer."""

import json

import pytest

from repro.errors import ReproError
from repro.io.store import DataStore
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    Tracer,
    events_jsonl,
    parse_events,
    render_trace_report,
    write_trace,
)


def traced_run():
    """A small but representative trace: run → stage → satellites."""
    tracer = Tracer()
    metrics = MetricsRegistry()
    with tracer.span("run", satellites=2):
        with tracer.span("stage:fleet") as fleet:
            for number in (1, 2):
                with tracer.span("satellite") as span:
                    span.set(catalog_number=number, cache="miss")
            fleet.set(attempted=2, quarantined=0)
        with tracer.span("stage:storms") as storms:
            storms.set(episodes=3)
    metrics.counter("fleet.satellites").inc(2)
    return tracer, metrics


class TestEventsJsonl:
    def test_every_line_is_json_spans_before_metrics(self):
        tracer, metrics = traced_run()
        lines = events_jsonl(tracer, metrics).splitlines()
        events = [json.loads(line) for line in lines]
        types = [e["type"] for e in events]
        assert types == ["span"] * 5 + ["metric"]
        # Insertion order puts parents before children.
        ids = {e["id"]: e for e in events if e["type"] == "span"}
        for event in events:
            if event["type"] == "span" and event["parent"] is not None:
                assert event["parent"] in ids

    def test_round_trips_through_parse_events(self):
        tracer, metrics = traced_run()
        events = parse_events(events_jsonl(tracer, metrics))
        assert len(events) == 6
        assert events[0]["name"] == "run"
        assert events[-1]["name"] == "fleet.satellites"


class TestWriteTrace:
    def test_persists_via_datastore(self, tmp_path):
        tracer, metrics = traced_run()
        store = DataStore(tmp_path)
        artifact = write_trace(store, tracer, metrics)
        assert artifact == "trace.jsonl"
        assert (tmp_path / "obs" / "trace.jsonl").exists()
        loaded = store.load_trace()
        assert loaded == events_jsonl(tracer, metrics)
        assert store.list_traces() == ["trace"]

    def test_named_traces_coexist(self, tmp_path):
        tracer, metrics = traced_run()
        store = DataStore(tmp_path)
        write_trace(store, tracer, metrics, name="before")
        write_trace(store, tracer, metrics, name="after")
        assert store.list_traces() == ["after", "before"]
        assert store.load_trace(name="before") is not None

    def test_disabled_tracer_writes_nothing(self, tmp_path):
        store = DataStore(tmp_path)
        assert write_trace(store, NULL_TRACER) is None
        assert not (tmp_path / "obs").exists()

    def test_missing_trace_loads_as_none(self, tmp_path):
        assert DataStore(tmp_path).load_trace() is None


class TestParseEvents:
    def test_corrupt_line_raises(self):
        with pytest.raises(ReproError, match="corrupt trace line 2"):
            parse_events('{"type": "span"}\nnot json\n')

    def test_non_event_object_raises(self):
        with pytest.raises(ReproError, match="line 1 is not an event"):
            parse_events('[1, 2, 3]\n')

    def test_blank_lines_skipped(self):
        assert parse_events('\n  \n{"type": "metric"}\n') == [{"type": "metric"}]


class TestRenderTraceReport:
    def test_tree_stages_and_metrics_sections(self):
        tracer, metrics = traced_run()
        report = render_trace_report(parse_events(events_jsonl(tracer, metrics)))
        assert report.startswith("Span tree")
        assert "run" in report and "stage:fleet" in report
        assert "cache=miss catalog_number=1" in report
        assert "Per-stage wall-clock totals" in report
        assert "fleet.satellites (counter): 2" in report

    def test_wide_fan_out_is_summarized(self):
        tracer = Tracer()
        with tracer.span("run"):
            with tracer.span("stage:fleet"):
                for number in range(40):
                    with tracer.span("satellite") as span:
                        span.set(catalog_number=number)
        report = render_trace_report(parse_events(events_jsonl(tracer)))
        shown = report.count("satellite  ")
        assert shown <= 12 + 1  # capped children (+ name in summary line)
        assert "... and 28 more" in report

    def test_no_spans(self):
        assert render_trace_report([]) == "trace: no spans recorded"
