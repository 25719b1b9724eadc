"""Unit tests for the span tracer (repro.obs.tracer)."""

import pytest

from repro.obs import NULL_TRACER, Tracer


class TestTracer:
    def test_nesting_via_parent_ids(self):
        tracer = Tracer()
        with tracer.span("run"):
            with tracer.span("stage:fleet"):
                with tracer.span("satellite"):
                    pass
            with tracer.span("stage:storms"):
                pass
        run, fleet, satellite, storms = tracer.spans
        assert run.parent_id is None
        assert fleet.parent_id == run.span_id
        assert satellite.parent_id == fleet.span_id
        assert storms.parent_id == run.span_id

    def test_spans_close_with_elapsed(self):
        tracer = Tracer()
        with tracer.span("run"):
            pass
        (span,) = tracer.spans
        assert span.elapsed_s is not None
        assert span.elapsed_s >= 0.0

    def test_attributes_at_open_and_via_set(self):
        tracer = Tracer()
        with tracer.span("satellite", catalog_number=7) as handle:
            handle.set(cache="hit", records=12)
        (span,) = tracer.spans
        assert span.attrs == {"catalog_number": 7, "cache": "hit", "records": 12}

    def test_exception_records_error_attr_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("stage:fleet"):
                raise ValueError("boom")
        (span,) = tracer.spans
        assert span.elapsed_s is not None
        assert span.attrs["error"] == "ValueError: boom"

    def test_leaked_child_handles_are_closed_with_parent(self):
        tracer = Tracer()
        with tracer.span("run"):
            tracer.span("dangling")  # never exited
        run, dangling = tracer.spans
        # The parent's close pops the dangling child off the stack, so a
        # following top-level span is not misparented.
        with tracer.span("next"):
            pass
        assert tracer.spans[2].parent_id is None

    def test_find_and_events(self):
        tracer = Tracer()
        with tracer.span("run"):
            with tracer.span("satellite"):
                pass
            with tracer.span("satellite"):
                pass
        assert len(tracer.find("satellite")) == 2
        events = list(tracer.events())
        assert [e["type"] for e in events] == ["span"] * 3
        assert events[0]["parent"] is None
        assert events[1]["parent"] == events[0]["id"]


class TestNullTracer:
    def test_disabled_and_recordless(self):
        assert NULL_TRACER.enabled is False
        with NULL_TRACER.span("run", anything=1) as handle:
            handle.set(more=2)
        assert NULL_TRACER.spans == ()
        assert list(NULL_TRACER.events()) == []

    def test_span_handle_is_shared_singleton(self):
        # The whole point of the null tracer: zero allocation per span.
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")
