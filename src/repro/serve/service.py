"""The resident analysis service: warm state behind a typed protocol.

:class:`AnalysisService` is what :func:`repro.serve` returns — the
composition of the subsystem's layers:

* a service-wide :class:`~repro.exec.StageMemo` (write-through to the
  service store's ``stage_cache/`` when one is configured), shared by
  every session so fleet work done for one consumer warms all;
* a :class:`~repro.serve.session.SessionManager` of per-session
  :class:`~repro.stream.StreamMonitor` instances (ingest watermarks,
  online storm detector, delta planner, alert journal);
* a :class:`~repro.serve.broker.RequestBroker` giving the bounded
  queue, worker threads, backpressure, and ``refresh`` coalescing.

Request execution is failure-isolated: a handler exception becomes an
``ok=false`` :class:`~repro.serve.protocol.ServeResponse` carrying the
exception type and message — the service keeps answering (the chaos
suite injects :class:`~repro.robustness.faults.FaultPlan` failures
mid-request and asserts exactly that).

Every ``refresh`` routes through the session monitor's
:class:`~repro.stream.planner.DeltaPlanner` and the pipeline's fleet
stage, so a warm refresh keeps the streaming profile — one recompute
for the dirty satellite, memo hits for the rest — and returns a ``result_digest`` byte-identical to
:func:`repro.analyze` over the same data.

Metering (always on, via a dedicated service
:class:`~repro.obs.MetricsRegistry`): ``serve.requests`` /
``serve.errors`` / ``serve.coalesced`` / ``serve.rejected`` counters,
``serve.queue.depth`` gauge, ``serve.request.latency_s`` histogram,
plus per-op counters ``serve.op.<op>``.
"""

from __future__ import annotations

import os
from concurrent.futures import Future
from typing import TYPE_CHECKING, Any, Hashable, Mapping

from repro.core.config import CosmicDanceConfig
from repro.errors import IngestError, ProtocolError, ServeError, SessionError
from repro.exec import StageMemo, result_digest
from repro.inputs import coerce_dst, coerce_elements
from repro.obs.metrics import MetricsRegistry
from repro.serve.broker import RequestBroker
from repro.serve.protocol import ServeRequest, ServeResponse
from repro.serve.session import ServeSession, SessionManager
from repro.spaceweather.storms import episode_row
from repro.stream.chunks import FeedChunk
from repro.stream.monitor import StreamUpdate

if TYPE_CHECKING:
    from repro.io.store import DataStore

__all__ = ["AnalysisService"]


def _update_row(update: StreamUpdate) -> dict[str, Any]:
    delta = update.delta
    assert delta is not None
    return {
        "chunk_id": delta.chunk_id,
        "kind": delta.kind,
        "duplicate": delta.duplicate,
        "late": delta.late,
        "new_dst_hours": delta.new_dst_hours,
        "new_records": delta.new_records,
        "alerts": [alert.to_event() for alert in update.alerts],
    }


class AnalysisService:
    """A long-lived, multi-session CosmicDance server."""

    def __init__(
        self,
        config: CosmicDanceConfig | None = None,
        *,
        store: "DataStore | str | os.PathLike | None" = None,
        max_sessions: int = 8,
        queue_limit: int = 64,
        workers: int = 1,
        run_every: int | None = None,
    ) -> None:
        self.config = config or CosmicDanceConfig()
        if store is not None and not hasattr(store, "root"):
            from repro.io.store import DataStore

            store = DataStore(store)
        self.store: "DataStore | None" = store
        self.metrics = MetricsRegistry()
        # One content-addressed stage cache for the whole service: a
        # satellite computed for any session is a warm hit everywhere.
        self.memo = StageMemo(store=store) if self.config.cache_stages else None
        if self.memo is not None:
            self.memo.metrics = self.metrics
        self.sessions = SessionManager(
            self.config,
            memo=self.memo,
            store=store,
            max_sessions=max_sessions,
            run_every=run_every,
        )
        self.broker = RequestBroker(
            queue_limit=queue_limit, workers=workers, metrics=self.metrics
        )
        self._handlers = {
            "ingest-delta": self._op_ingest_delta,
            "refresh": self._op_refresh,
            "query-episodes": self._op_query_episodes,
            "query-alerts": self._op_query_alerts,
            "trace-report": self._op_trace_report,
            "health": self._op_health,
            "shutdown": self._op_health,  # front-ends intercept; answer
        }                                 # with a health snapshot here.

    # --- lifecycle ----------------------------------------------------------
    def start(self) -> "AnalysisService":
        self.broker.start()
        return self

    def shutdown(self, *, drain: bool = True, timeout: float | None = None) -> None:
        """Stop intake, drain accepted requests (default), join workers."""
        self.broker.shutdown(drain=drain, timeout=timeout)

    def __enter__(self) -> "AnalysisService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # --- submitting work -----------------------------------------------------
    def request(
        self, op: str, *, session: str = "default", request_id: str = "",
        **payload: Any,
    ) -> ServeRequest:
        """Convenience :class:`ServeRequest` builder."""
        return ServeRequest(
            op=op, session=session, request_id=request_id, payload=payload
        )

    def submit(self, request: ServeRequest) -> "Future[ServeResponse]":
        """Queue one request; the future resolves to its response.

        Backpressure (:class:`~repro.errors.OverloadedError`) and
        shutdown rejections surface as *failed responses*, not raised
        exceptions, so a saturated service still answers every caller
        in protocol.
        """
        self.metrics.counter("serve.requests").inc()
        self.metrics.counter(f"serve.op.{request.op}").inc()
        try:
            inner, coalesced = self.broker.submit(
                lambda: self._execute(request),
                coalesce=self._coalesce_key(request),
            )
        except ServeError as exc:
            response: "Future[ServeResponse]" = Future()
            self.metrics.counter("serve.errors").inc()
            response.set_result(ServeResponse.failure(request, exc))
            return response

        outer: "Future[ServeResponse]" = Future()

        def _finish(done: "Future[Mapping[str, Any]]") -> None:
            if done.cancelled():
                outer.set_result(
                    ServeResponse.failure(
                        request, ServeError("request cancelled at shutdown")
                    )
                )
                return
            exc = done.exception()
            if exc is not None:
                self.metrics.counter("serve.errors").inc()
                outer.set_result(ServeResponse.failure(request, exc))
            else:
                # Coalesced waiters share one computed result object but
                # each response echoes its own request envelope.
                outer.set_result(ServeResponse.success(request, done.result()))

        inner.add_done_callback(_finish)
        return outer

    def call(
        self, request: ServeRequest, *, timeout: float | None = None
    ) -> ServeResponse:
        """Submit one request and wait for its response."""
        return self.submit(request).result(timeout=timeout)

    # --- request execution ----------------------------------------------------
    def _coalesce_key(self, request: ServeRequest) -> Hashable | None:
        """Refreshes coalesce per (session, ingest version): requests
        seeing the same version see the same dirty set, so one compute
        serves them all."""
        if request.op != "refresh":
            return None
        session = self.sessions.get(request.session)
        return ("refresh", request.session, session.version)

    def _execute(self, request: ServeRequest) -> Mapping[str, Any]:
        handler = self._handlers.get(request.op)
        if handler is None:
            raise ProtocolError(f"unknown op {request.op!r}")
        session = self.sessions.get(request.session)
        with session.lock:
            session.requests += 1
            return handler(session, dict(request.payload))

    # --- operations -----------------------------------------------------------
    def _op_ingest_delta(
        self, session: ServeSession, payload: dict[str, Any]
    ) -> Mapping[str, Any]:
        """Ingest Dst text and/or TLE text/records into the session.

        Payload keys (any combination, applied in this order):
        ``dst_text`` (WDC or CSV), ``tle_text`` (2LE/3LE dump),
        ``chunk_id`` (optional idempotency key; content-derived ids are
        used otherwise).
        """
        unknown = set(payload) - {"dst_text", "tle_text", "chunk_id"}
        if unknown:
            raise ProtocolError(
                f"ingest-delta: unknown payload key(s): {', '.join(sorted(unknown))}"
            )
        if not set(payload) & {"dst_text", "tle_text"}:
            raise ProtocolError(
                "ingest-delta needs 'dst_text' and/or 'tle_text'"
            )
        chunk_id = payload.get("chunk_id")
        if chunk_id is not None and not isinstance(chunk_id, str):
            raise ProtocolError("ingest-delta: chunk_id must be a string")
        monitor = session.monitor
        updates: list[StreamUpdate] = []
        if "dst_text" in payload:
            block = coerce_dst(str(payload["dst_text"]))
            suffix = ":dst" if "tle_text" in payload and chunk_id else ""
            updates.append(
                monitor.offer(
                    FeedChunk.of_dst(
                        block,
                        chunk_id=f"{chunk_id}{suffix}" if chunk_id else None,
                    )
                )
            )
        if "tle_text" in payload:
            elements = coerce_elements(
                str(payload["tle_text"]),
                ledger=monitor.pipeline.ledger,
                source=chunk_id or "serve:ingest-delta",
            )
            if not elements:
                raise IngestError(
                    "ingest-delta: tle_text held no parseable records"
                )
            suffix = ":tle" if "dst_text" in payload and chunk_id else ""
            updates.append(
                monitor.offer(
                    FeedChunk.of_elements(
                        elements,
                        chunk_id=f"{chunk_id}{suffix}" if chunk_id else None,
                    )
                )
            )
        if any(u.delta is not None and u.delta.changed for u in updates):
            session.bump()
        marks = monitor.watermarks
        return {
            "chunks": [_update_row(update) for update in updates],
            "version": session.version,
            "ready": monitor.ready(),
            "watermarks": {
                "dst_high": marks.dst_high.isoformat() if marks.dst_high else None,
                "tle_high": marks.tle_high.isoformat() if marks.tle_high else None,
                "chunks": marks.chunks,
                "duplicates": marks.duplicates,
                "late": marks.late,
            },
        }

    def _op_refresh(
        self, session: ServeSession, payload: dict[str, Any]
    ) -> Mapping[str, Any]:
        """Run the analysis over everything the session has ingested."""
        if payload:
            raise ProtocolError(
                f"refresh takes no payload, got: {', '.join(sorted(payload))}"
            )
        if not session.monitor.ready():
            raise IngestError(
                "refresh before both data modalities arrived; send "
                "ingest-delta with Dst and TLE data first"
            )
        update = session.monitor.refresh()
        session.refreshes += 1
        result = update.result
        assert result is not None and update.plan is not None
        digest = result_digest(result)
        session.last_digest = digest
        self.metrics.counter("serve.refreshes").inc()
        return {
            "result_digest": digest,
            "storm_episodes": len(result.storm_episodes),
            "trajectory_events": len(result.trajectory_events),
            "associations": len(result.associations),
            "permanently_decayed": sorted(
                a.catalog_number for a in result.permanently_decayed
            ),
            "plan": {
                "dirty": len(update.plan.dirty),
                "clean": len(update.plan.clean),
                "storms_dirty": update.plan.storms_dirty,
            },
            "health": result.health.summary(),
            "alerts": [alert.to_event() for alert in update.alerts],
            "version": session.version,
        }

    def _op_query_episodes(
        self, session: ServeSession, payload: dict[str, Any]
    ) -> Mapping[str, Any]:
        """Storm episodes as currently known.

        ``source="online"`` (default) reads the always-current online
        detector — storm state never waits for an analysis run;
        ``source="analysis"`` reads the latest refresh's episodes.
        """
        source = payload.pop("source", "online")
        if payload:
            raise ProtocolError(
                f"query-episodes: unknown payload key(s): "
                f"{', '.join(sorted(payload))}"
            )
        if source == "online":
            episodes = session.monitor.detector.episodes()
            open_episode = session.monitor.detector.open_episode
        elif source == "analysis":
            if session.refreshes == 0:
                raise SessionError(
                    "query-episodes source='analysis' before any refresh"
                )
            episodes = session.monitor.result.storm_episodes
            open_episode = None
        else:
            raise ProtocolError(
                f"query-episodes: source must be 'online' or 'analysis', "
                f"got {source!r}"
            )
        return {
            "source": source,
            "episodes": [episode_row(episode) for episode in episodes],
            "open": episode_row(open_episode) if open_episode else None,
        }

    def _op_query_alerts(
        self, session: ServeSession, payload: dict[str, Any]
    ) -> Mapping[str, Any]:
        """The session's emitted alerts, newest last.

        Payload: ``kind`` (dotted-prefix filter, e.g. ``"storm"``),
        ``limit`` (keep only the newest N after filtering).
        """
        kind = payload.pop("kind", None)
        limit = payload.pop("limit", None)
        if payload:
            raise ProtocolError(
                f"query-alerts: unknown payload key(s): "
                f"{', '.join(sorted(payload))}"
            )
        alerts = list(session.monitor.alerts.emitted)
        if kind is not None:
            alerts = [a for a in alerts if a.kind.value.startswith(str(kind))]
        total = len(alerts)
        if limit is not None:
            if not isinstance(limit, int) or limit < 0:
                raise ProtocolError("query-alerts: limit must be a non-negative int")
            alerts = alerts[total - limit:] if limit else []
        return {
            "total": total,
            "alerts": [alert.to_event() for alert in alerts],
        }

    def _op_trace_report(
        self, session: ServeSession, payload: dict[str, Any]
    ) -> Mapping[str, Any]:
        """Render the session's span tree + service metrics as text."""
        if payload:
            raise ProtocolError(
                f"trace-report takes no payload, got: "
                f"{', '.join(sorted(payload))}"
            )
        from repro.obs import render_trace_report

        tracer = session.monitor.pipeline.tracer
        events: list[dict[str, Any]] = []
        if tracer.enabled:
            events.extend(tracer.events())
            events.extend(session.monitor.pipeline.metrics.events())
        events.extend(self.metrics.events())
        events.extend(session.monitor.alerts.events())
        return {
            "traced": bool(tracer.enabled),
            "report": render_trace_report(events),
            # Service counters/gauges stand alone: they are meaningful
            # (and rendered by clients) even for untraced sessions,
            # where the span report above is empty.
            "metrics": list(self.metrics.events()),
        }

    def _op_health(
        self, session: ServeSession, payload: dict[str, Any]
    ) -> Mapping[str, Any]:
        """Service + session health snapshot (never touches analysis)."""
        if payload:
            raise ProtocolError(
                f"health takes no payload, got: {', '.join(sorted(payload))}"
            )
        counters = {
            sample.name: sample.value
            for sample in self.metrics.snapshot()
            if sample.kind == "counter"
        }
        return {
            "status": "ok" if self.broker.accepting else "draining",
            "sessions": list(self.sessions.ids()),
            "evicted": self.sessions.evicted,
            "queue_limit": self.broker.queue_limit,
            "requests": counters.get("serve.requests", 0.0),
            "errors": counters.get("serve.errors", 0.0),
            "coalesced": counters.get("serve.coalesced", 0.0),
            "rejected": counters.get("serve.rejected", 0.0),
            "refreshes": counters.get("serve.refreshes", 0.0),
            "memo_entries": len(self.memo) if self.memo is not None else 0,
            "session": {
                "id": session.session_id,
                "version": session.version,
                "requests": session.requests,
                "refreshes": session.refreshes,
                "ready": session.monitor.ready(),
                "last_digest": session.last_digest,
            },
        }
