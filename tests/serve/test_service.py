"""AnalysisService tests: ops, parity, coalescing, isolation, lifecycle.

The two acceptance anchors live here:

* a warm ``refresh`` through the service returns a ``result_digest``
  byte-identical to :func:`repro.analyze` over the same data;
* N concurrent refreshes of the same dirty set trigger exactly one
  recompute (the session's ``refreshes`` counter), all N waiters
  receiving that one result.
"""

import threading

import pytest

from repro import analyze
from repro.exec import result_digest
from repro.serve.service import AnalysisService
from repro.tle.format import format_tle

from tests.core.helpers import record
from tests.serve.conftest import ingest, small_dataset
from tests.tle.test_parse import NON_FINITE_LINE2, with_field


class TestLifecycle:
    def test_context_manager_starts_and_drains(self, dst_text, tle_text):
        with AnalysisService() as svc:
            response = svc.call(svc.request("health"))
            assert response.ok
            assert response.result["status"] == "ok"
        assert not svc.broker.accepting

    def test_rejection_after_shutdown_is_a_protocol_answer(self):
        svc = AnalysisService()
        svc.start()
        svc.shutdown()
        response = svc.call(svc.request("health"))
        assert not response.ok
        assert response.error_type == "ServeError"

    def test_unknown_payload_is_answered_not_raised(self, service):
        response = service.call(service.request("refresh", junk=1))
        assert not response.ok
        assert response.error_type == "ProtocolError"

    def test_service_keeps_answering_after_a_failed_request(self, service):
        # refresh before any ingest is a handler failure...
        failed = service.call(service.request("refresh"))
        assert not failed.ok
        assert failed.error_type == "IngestError"
        # ...and the next request on the same worker still answers.
        assert service.call(service.request("health")).ok


class TestIngestAndRefresh:
    def test_ingest_reports_chunks_and_watermarks(self, service, dst_text, tle_text):
        response = ingest(service, dst_text, tle_text)
        result = response.result
        assert [c["kind"] for c in result["chunks"]] == ["dst", "tle"]
        assert all(not c["duplicate"] for c in result["chunks"])
        assert result["ready"] is True
        assert result["version"] == 1
        assert result["watermarks"]["chunks"] == 2

    def test_duplicate_ingest_does_not_bump_version(
        self, service, dst_text, tle_text
    ):
        first = ingest(service, dst_text, tle_text)
        again = ingest(service, dst_text, tle_text)
        assert all(c["duplicate"] for c in again.result["chunks"])
        assert again.result["version"] == first.result["version"] == 1

    def test_refresh_digest_matches_batch_analyze(
        self, service, dst_text, tle_text
    ):
        ingest(service, dst_text, tle_text)
        response = service.call(service.request("refresh"))
        assert response.ok, response.error
        batch = result_digest(analyze(dst_text, tle_text))
        assert response.result["result_digest"] == batch

    def test_corrupt_exponent_is_ledgered_and_the_batch_ingested(
        self, service, dst_text, tle_text
    ):
        # One record whose exponent digit is a letter (checksum intact)
        # must not cost the batch its valid records.
        line1, line2 = tle_text.splitlines()[:2]
        assert line1[44:52] == " 00000+0"
        corrupt = f"{line1[:51]}Y{line1[52:]}\n{line2}\n"
        response = service.call(
            service.request(
                "ingest-delta", dst_text=dst_text, tle_text=corrupt + tle_text
            )
        )
        assert response.ok, response.error
        tle_chunk = response.result["chunks"][1]
        assert tle_chunk["new_records"] == len(tle_text.splitlines()) // 2

    def test_non_ascii_digit_is_ledgered_and_the_batch_ingested(
        self, service, dst_text, tle_text
    ):
        # "²".isdigit() is true but int("²") raises: one such record used
        # to fail the whole batch with a bare ValueError.
        line1, line2 = tle_text.splitlines()[:2]
        corrupt = f"{line1[:25]}²{line1[26:]}\n{line2}\n"
        response = service.call(
            service.request(
                "ingest-delta", dst_text=dst_text, tle_text=corrupt + tle_text
            )
        )
        assert response.ok, response.error
        tle_chunk = response.result["chunks"][1]
        assert tle_chunk["new_records"] == len(tle_text.splitlines()) // 2

    @pytest.mark.parametrize("start, stop, text", NON_FINITE_LINE2)
    def test_non_finite_field_is_ledgered_and_the_batch_ingested(
        self, service, dst_text, tle_text, start, stop, text
    ):
        # A record one day past the dataset, so that ingesting it would
        # count as one more new record.
        line1, line2 = format_tle(record(1, 30.0, 550.0))
        corrupt = f"{line1}\n{with_field(line2, start, stop, text)}\n"
        response = service.call(
            service.request(
                "ingest-delta", dst_text=dst_text, tle_text=tle_text + corrupt
            )
        )
        assert response.ok, response.error
        tle_chunk = response.result["chunks"][1]
        assert tle_chunk["new_records"] == len(tle_text.splitlines()) // 2

    def test_refresh_before_ready_is_typed(self, service, dst_text):
        response = service.call(
            service.request("ingest-delta", dst_text=dst_text)
        )
        assert response.ok and not response.result["ready"]
        refresh = service.call(service.request("refresh"))
        assert not refresh.ok
        assert refresh.error_type == "IngestError"

    def test_second_refresh_is_a_warm_noop_plan(self, service, dst_text, tle_text):
        ingest(service, dst_text, tle_text)
        first = service.call(service.request("refresh"))
        second = service.call(service.request("refresh"))
        assert second.ok
        assert second.result["result_digest"] == first.result["result_digest"]
        assert second.result["plan"]["dirty"] == 0

    def test_delta_ingest_dirties_only_the_touched_satellite(
        self, service, dst_text, tle_text
    ):
        from repro.tle.format import format_tle_block

        from tests.core.helpers import record

        ingest(service, dst_text, tle_text)
        first = service.call(service.request("refresh"))
        assert first.ok
        delta = format_tle_block([record(1, 30.5, 549.0)])
        response = service.call(
            service.request("ingest-delta", tle_text=delta)
        )
        assert response.ok
        assert response.result["version"] == 2
        second = service.call(service.request("refresh"))
        assert second.ok
        assert second.result["plan"] == {
            "dirty": 1, "clean": 2, "storms_dirty": False,
        }


class TestCoalescing:
    N = 8

    def test_concurrent_refreshes_trigger_exactly_one_recompute(
        self, service, dst_text, tle_text
    ):
        ingest(service, dst_text, tle_text)
        futures = [
            service.submit(service.request("refresh", request_id=f"r{i}"))
            for i in range(self.N)
        ]
        responses = [f.result(timeout=60) for f in futures]
        assert all(r.ok for r in responses), [r.error for r in responses]
        digests = {r.result["result_digest"] for r in responses}
        assert len(digests) == 1
        # Exactly one analysis ran; the other N-1 waited on it.
        session = service.sessions.peek("default")
        assert session.refreshes == 1
        assert {r.request_id for r in responses} == {
            f"r{i}" for i in range(self.N)
        }

    def test_coalesced_count_is_metered(self, service, dst_text, tle_text):
        ingest(service, dst_text, tle_text)
        futures = [
            service.submit(service.request("refresh")) for _ in range(self.N)
        ]
        for future in futures:
            assert future.result(timeout=60).ok
        health = service.call(service.request("health")).result
        assert health["refreshes"] == 1.0
        assert health["coalesced"] == float(self.N - 1)

    def test_version_bump_starts_a_new_coalesce_generation(
        self, service, dst_text, tle_text
    ):
        ingest(service, dst_text, tle_text)
        assert service.call(service.request("refresh")).ok
        from repro.tle.format import format_tle_block

        from tests.core.helpers import record

        service.call(
            service.request(
                "ingest-delta",
                tle_text=format_tle_block([record(2, 30.5, 549.0)]),
            )
        )
        second = service.call(service.request("refresh"))
        assert second.ok
        assert service.sessions.peek("default").refreshes == 2


class TestSessions:
    def test_sessions_are_isolated(self, service, dst_text, tle_text):
        ingest(service, dst_text, tle_text, session="alpha")
        health = service.call(service.request("health", session="beta")).result
        assert health["session"]["ready"] is False
        assert set(health["sessions"]) == {"alpha", "beta"}

    def test_shared_memo_warms_a_second_session(
        self, service, dst_text, tle_text
    ):
        ingest(service, dst_text, tle_text, session="alpha")
        assert service.call(service.request("refresh", session="alpha")).ok
        ingest(service, dst_text, tle_text, session="beta")
        response = service.call(service.request("refresh", session="beta"))
        assert response.ok
        # Same records, same config: beta's fleet is entirely memo hits.
        assert response.result["plan"]["dirty"] == 0
        assert response.result["plan"]["clean"] == 3


class TestQueries:
    @pytest.fixture(autouse=True)
    def _warm(self, service, dst_text, tle_text):
        ingest(service, dst_text, tle_text)

    def test_online_episodes_without_any_refresh(self, service):
        response = service.call(service.request("query-episodes"))
        assert response.ok
        assert response.result["source"] == "online"
        assert len(response.result["episodes"]) == 1
        assert response.result["episodes"][0]["level"] == "MODERATE"

    def test_analysis_episodes_require_a_refresh(self, service):
        early = service.call(
            service.request("query-episodes", source="analysis")
        )
        assert not early.ok
        assert early.error_type == "SessionError"
        assert service.call(service.request("refresh")).ok
        late = service.call(service.request("query-episodes", source="analysis"))
        assert late.ok

    def test_episode_rows_match_the_cli(self, service, dst_text, tmp_path, capsys):
        import json

        from repro.cli import main

        assert service.call(service.request("refresh")).ok
        served = service.call(service.request("query-episodes", source="analysis"))
        path = tmp_path / "dst.csv"
        path.write_text(dst_text)
        capsys.readouterr()
        assert main(["storms", "--dst", str(path), "--json"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert served.result["episodes"]
        assert printed["episodes"] == served.result["episodes"]

    def test_bad_episode_source_rejected(self, service):
        response = service.call(
            service.request("query-episodes", source="psychic")
        )
        assert response.error_type == "ProtocolError"

    def test_query_alerts_filters_and_limits(self, service):
        assert service.call(service.request("refresh")).ok
        everything = service.call(service.request("query-alerts")).result
        assert everything["total"] >= 2
        storms = service.call(
            service.request("query-alerts", kind="storm")
        ).result
        assert all(a["kind"].startswith("storm") for a in storms["alerts"])
        one = service.call(service.request("query-alerts", limit=1)).result
        assert len(one["alerts"]) == 1
        assert one["total"] == everything["total"]

    def test_trace_report_renders_service_metrics(self, service):
        response = service.call(service.request("trace-report"))
        assert response.ok
        assert response.result["traced"] is False
        names = {m["name"] for m in response.result["metrics"]}
        assert "serve.requests" in names

    def test_health_snapshot(self, service):
        health = service.call(service.request("health")).result
        assert health["status"] == "ok"
        assert health["queue_limit"] == 64
        assert health["session"]["id"] == "default"
        assert health["session"]["ready"] is True


class TestOverload:
    def test_queue_full_is_an_overloaded_response(self, dst_text, tle_text):
        svc = AnalysisService(queue_limit=1, workers=1)
        svc.start()
        try:
            gate = threading.Event()
            entered = threading.Event()

            def blocker():
                entered.set()
                gate.wait(5)

            # Jam the single worker so the queue backs up.
            svc.broker.submit(blocker)
            assert entered.wait(5)
            responses = [
                svc.submit(svc.request("health")) for _ in range(3)
            ]
            gate.set()
            outcomes = [f.result(timeout=10) for f in responses]
            assert any(
                r.error_type == "OverloadedError" for r in outcomes if not r.ok
            )
            assert any(r.ok for r in outcomes)
        finally:
            svc.shutdown()
