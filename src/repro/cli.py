"""Command-line interface.

Subcommands mirror how the original tool is operated:

* ``simulate`` — generate a scenario's data files (WDC Dst + TLE dumps)
  into a cache directory, standing in for the WDC/Space-Track fetch;
* ``storms``   — list storm episodes in a Dst file;
* ``clean``    — run the TLE cleaning stage and report what it removed;
* ``analyze``  — the full pipeline: storms, happens-closely-after
  relations, and permanent-decay alarms;
* ``report``   — the pipeline plus the full run-summary report;
* ``lifetime`` — uncontrolled orbital-lifetime estimates;
* ``triggers`` — LEOScope-style storm-triggered campaign schedules;
* ``trace-report`` — render a persisted ``--trace`` run's span tree;
* ``replay``   — feed a cached dataset chunk-by-chunk through the
  streaming monitor (optionally verifying batch parity);
* ``watch``    — run the streaming monitor live over a simulated feed,
  printing alerts as they fire;
* ``serve``    — run the long-lived analysis service (JSON-lines stdio
  by default, ``--http`` for the HTTP endpoint).

Every subcommand honours ``--json`` (one machine-readable JSON object
on stdout instead of the human tables) and the exit-code contract:
**0** success, **1** pipeline/data error, **2** usage error (argparse).

Example session::

    cosmicdance simulate --scenario quickstart --out ./cache
    cosmicdance storms  --dst ./cache/dst.csv
    cosmicdance analyze --cache ./cache --json
    cosmicdance report  --cache ./cache
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any, Sequence

from repro.core.config import CosmicDanceConfig
from repro.core.pipeline import CosmicDance
from repro.core.report import render_table
from repro.errors import ReproError
from repro.inputs import coerce_dst
from repro.io.store import DataStore
from repro.robustness.retry import RetryPolicy
from repro.spaceweather.storms import detect_episodes, episode_row


def _load_dst(path: pathlib.Path):
    """Load Dst from CSV or WDC format (content-sniffed coercion)."""
    return coerce_dst(path.read_text())


def _say(args: argparse.Namespace, text: str = "", *, file: Any = None) -> None:
    """Print human output — silenced under ``--json``."""
    if not getattr(args, "json", False):
        print(text, file=file)


def _finish(args: argparse.Namespace, payload: dict[str, Any]) -> int:
    """End a successful command: emit the JSON payload when asked."""
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True, default=str))
    return 0


def _add_output_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit one machine-readable JSON object instead of tables",
    )


def _add_tle_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--tles",
        nargs="*",
        type=pathlib.Path,
        default=[],
        help="TLE text dumps (2LE or 3LE)",
    )
    parser.add_argument(
        "--cache",
        type=pathlib.Path,
        help="DataStore directory holding dst.csv and tles/",
    )


def _add_threshold_arguments(parser: argparse.ArgumentParser) -> None:
    """The storm-threshold pair: a percentile of the series, or an
    explicit nT value — one or the other, never both."""
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--percentile", type=float, default=None,
        help="intensity percentile selecting the threshold (default 99)",
    )
    group.add_argument(
        "--threshold", type=float, default=None,
        help="explicit Dst threshold [nT] (mutually exclusive with "
             "--percentile)",
    )


def _add_execution_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--no-stage-cache",
        action="store_true",
        help="disable per-satellite stage memoization",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record an observability trace (spans + metrics); with "
             "--cache it is persisted to obs/trace.jsonl for "
             "'cosmicdance trace-report'",
    )


def _pipeline_for(args: argparse.Namespace) -> CosmicDance:
    """Build a pipeline honouring the execution flags, when present."""
    return CosmicDance(
        CosmicDanceConfig(
            strict=getattr(args, "strict", False),
            cache_stages=not getattr(args, "no_stage_cache", False),
            trace=getattr(args, "trace", False),
        )
    )


def _hydrate(
    pipeline: CosmicDance, args: argparse.Namespace
) -> DataStore | None:
    """Load --cache / --dst / --tles into the pipeline.

    Returns the hydration store when --cache was given (the trace sink
    reuses it), else None.
    """
    store: DataStore | None = None
    loaded_dst = False
    if args.cache:
        # Lenient by default: transient read errors are retried, corrupt
        # cache files are salvaged/quarantined into the shared ledger so
        # one bad artifact cannot abort the whole analysis.  --strict
        # switches salvage off and fails on first contact.
        store = DataStore(
            args.cache,
            # When tracing, storage retries surface as retry.* counters
            # in the same run registry the pipeline snapshots.
            retry=RetryPolicy(
                metrics=pipeline.metrics if pipeline.tracer.enabled else None
            ),
            salvage=not pipeline.config.strict,
            ledger=pipeline.ledger,
        )
        if pipeline.memo is not None:
            # Warm the stage cache from (and write back through) the
            # same store, so repeated CLI runs skip clean satellites.
            pipeline.memo.store = store
        dst = store.load_dst()
        if dst is not None:
            pipeline.ingest.add_dst(dst)
            loaded_dst = True
        catalog = store.load_catalog()
        if catalog is not None:
            pipeline.ingest.add_elements(catalog.all_elements())
    if getattr(args, "dst", None):
        pipeline.ingest.add_dst(_load_dst(args.dst))
        loaded_dst = True
    for tle_path in args.tles:
        pipeline.ingest.add_tle_text(tle_path.read_text(), source=tle_path.name)
    if not loaded_dst and not len(pipeline.ingest.catalog):
        raise ReproError("no data: pass --dst/--tles or --cache")
    return store


def _emit_trace(
    pipeline: CosmicDance, store: DataStore | None, args: argparse.Namespace
) -> str | None:
    """Persist (or summarise) an enabled tracer after a run.

    With a store the JSONL event stream lands in ``obs/`` and the
    relative artifact name is returned; without one the rendered report
    is printed directly, since there is nowhere durable to put it.
    """
    if not pipeline.tracer.enabled:
        return None
    from repro.obs import render_trace_report, write_trace

    if store is not None:
        return write_trace(store, pipeline.tracer, pipeline.metrics)
    events = list(pipeline.tracer.events())
    events.extend(pipeline.metrics.events())
    _say(args)
    _say(args, render_trace_report(events))
    return None


def _render_health(pipeline: CosmicDance) -> str:
    """The run-health block analyze/report print after their tables."""
    health = pipeline.result.health
    text = f"run health: {health.summary()}"
    if health.entries:
        text += "\n" + render_table(
            "Quarantine ledger",
            ("kind", "id", "stage", "reason"),
            [(e.kind, e.identifier, e.stage, e.reason) for e in health.entries],
        )
    return text


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.simulation.scenario import (
        may2024_scenario,
        paper_scenario,
        quickstart_scenario,
    )

    builders = {
        "quickstart": quickstart_scenario,
        "paper": paper_scenario,
        "may2024": may2024_scenario,
    }
    scenario = builders[args.scenario](seed=args.seed)
    store = DataStore(args.out)
    store.save_dst(scenario.dst)
    store.save_catalog(scenario.catalog)
    _say(
        args,
        f"wrote scenario '{scenario.name}' to {args.out}: "
        f"{len(scenario.catalog)} satellites, "
        f"{scenario.catalog.total_records()} TLEs, "
        f"{len(scenario.dst)} Dst hours",
    )
    return _finish(args, {
        "command": "simulate",
        "scenario": scenario.name,
        "out": str(args.out),
        "satellites": len(scenario.catalog),
        "tle_records": scenario.catalog.total_records(),
        "dst_hours": len(scenario.dst),
    })


def _effective_threshold(args: argparse.Namespace, dst) -> float:
    """Resolve the --threshold / --percentile pair (parser-enforced
    mutually exclusive) to a Dst threshold [nT]."""
    if args.threshold is not None:
        return args.threshold
    percentile = args.percentile if args.percentile is not None else 99.0
    return dst.intensity_percentile(percentile)


def cmd_storms(args: argparse.Namespace) -> int:
    dst = _load_dst(args.dst)
    threshold = _effective_threshold(args, dst)
    episodes = detect_episodes(dst, threshold, merge_gap_hours=args.merge_gap)
    _say(
        args,
        render_table(
            f"Storm episodes at/below {threshold:.1f} nT",
            ("start", "end", "peak nT", "hours", "level"),
            [
                (
                    e.start.isoformat(),
                    e.end.isoformat(),
                    f"{e.peak_nt:.0f}",
                    e.duration_hours,
                    e.level.name,
                )
                for e in episodes
            ],
        ),
    )
    return _finish(args, {
        "command": "storms",
        "threshold_nt": threshold,
        "episodes": [episode_row(e) for e in episodes],
    })


def cmd_clean(args: argparse.Namespace) -> int:
    pipeline = CosmicDance()
    # Cleaning needs no Dst; hydrate TLEs only.
    if args.cache:
        catalog = DataStore(args.cache).load_catalog()
        if catalog is not None:
            pipeline.ingest.add_elements(catalog.all_elements())
    for tle_path in args.tles:
        pipeline.ingest.add_tle_text(tle_path.read_text())
    if not len(pipeline.ingest.catalog):
        raise ReproError("no TLEs: pass --tles or --cache")

    from repro.core.cleaning import clean_catalog

    cleaned, report = clean_catalog(pipeline.ingest.catalog)
    _say(
        args,
        render_table(
            "Cleaning report",
            ("metric", "count"),
            [
                ("total records", report.total_records),
                ("gross tracking errors", report.gross_errors),
                ("orbit-raising records", report.orbit_raising),
                ("kept", report.kept),
                ("satellites kept", len(cleaned)),
            ],
        ),
    )
    return _finish(args, {
        "command": "clean",
        "total_records": report.total_records,
        "gross_errors": report.gross_errors,
        "orbit_raising": report.orbit_raising,
        "kept": report.kept,
        "satellites_kept": len(cleaned),
    })


def _analysis_payload(result) -> dict[str, Any]:
    """The shared machine-readable core of analyze/report output."""
    from repro.exec import result_digest

    return {
        "result_digest": result_digest(result),
        "event_threshold_nt": result.event_threshold_nt,
        "storm_episodes": [episode_row(e) for e in result.storm_episodes],
        "associations": [
            {
                "satellite": a.event.catalog_number,
                "kind": a.event.kind.value,
                "when": a.event.epoch.isoformat(),
                "lag_hours": a.lag_hours,
            }
            for a in result.associations
        ],
        "permanent_decays": [
            {
                "satellite": a.catalog_number,
                "final_altitude_km": a.final_altitude_km,
                "final_deficit_km": a.final_deficit_km,
            }
            for a in result.permanently_decayed
        ],
        "health": result.health.summary(),
    }


def cmd_analyze(args: argparse.Namespace) -> int:
    pipeline = _pipeline_for(args)
    store = _hydrate(pipeline, args)
    result = pipeline.run()

    _say(
        args,
        render_table(
            f"Storm episodes (>{pipeline.config.event_percentile:.0f}th-ptile, "
            f"threshold {result.event_threshold_nt:.1f} nT)",
            ("start", "peak nT", "hours"),
            [
                (e.start.isoformat(), f"{e.peak_nt:.0f}", e.duration_hours)
                for e in result.storm_episodes
            ],
        ),
    )
    _say(args)
    _say(
        args,
        render_table(
            "Trajectory changes happening closely after storms",
            ("satellite", "kind", "when", "lag h"),
            [
                (
                    a.event.catalog_number,
                    a.event.kind.value,
                    a.event.epoch.isoformat(),
                    f"{a.lag_hours:.1f}",
                )
                for a in result.associations
            ],
        ),
    )
    _say(args)
    decayed = result.permanently_decayed
    _say(
        args,
        render_table(
            "Permanent decays",
            ("satellite", "final km", "deficit km"),
            [
                (a.catalog_number, f"{a.final_altitude_km:.1f}", f"{a.final_deficit_km:.1f}")
                for a in decayed
            ],
        ),
    )
    _say(args)
    _say(args, _render_health(pipeline))
    artifact = _emit_trace(pipeline, store, args)
    if artifact is not None:
        _say(args, f"trace written to {args.cache / 'obs' / artifact}")
    payload = {"command": "analyze", **_analysis_payload(result)}
    payload["trace_artifact"] = artifact
    return _finish(args, payload)


def cmd_lifetime(args: argparse.Namespace) -> int:
    from repro.atmosphere.lifetime import orbital_lifetime

    estimate = orbital_lifetime(
        args.altitude,
        density_multiplier=args.density_multiplier,
        max_days=args.max_days,
    )
    if estimate.truncated:
        _say(
            args,
            f"altitude {args.altitude:.0f} km: no re-entry within "
            f"{args.max_days:.0f} days",
        )
    else:
        _say(
            args,
            f"altitude {args.altitude:.0f} km: uncontrolled re-entry in "
            f"{estimate.days:.1f} days "
            f"(density x{args.density_multiplier:g})",
        )
    return _finish(args, {
        "command": "lifetime",
        "altitude_km": args.altitude,
        "density_multiplier": args.density_multiplier,
        "truncated": estimate.truncated,
        "days": None if estimate.truncated else estimate.days,
    })


def cmd_triggers(args: argparse.Namespace) -> int:
    from repro.core.triggers import TriggerPolicy, schedule_campaigns

    dst = _load_dst(args.dst)
    threshold = _effective_threshold(args, dst)
    episodes = detect_episodes(dst, threshold)
    campaigns = schedule_campaigns(
        episodes, TriggerPolicy(min_gap_hours=args.min_gap_hours)
    )
    _say(
        args,
        render_table(
            f"Measurement campaigns for storms at/below {threshold:.1f} nT",
            ("baseline start", "active start", "active end", "priority", "trigger nT"),
            [
                (
                    c.baseline_start.isoformat(),
                    c.active_start.isoformat(),
                    c.active_end.isoformat(),
                    c.priority,
                    f"{c.trigger.peak_nt:.0f}",
                )
                for c in campaigns
            ],
        ),
    )
    return _finish(args, {
        "command": "triggers",
        "threshold_nt": threshold,
        "campaigns": [
            {
                "baseline_start": c.baseline_start.isoformat(),
                "active_start": c.active_start.isoformat(),
                "active_end": c.active_end.isoformat(),
                "priority": c.priority,
                "trigger_nt": c.trigger.peak_nt,
            }
            for c in campaigns
        ],
    })


def cmd_report(args: argparse.Namespace) -> int:
    from repro.core.summary import summarize_run

    pipeline = _pipeline_for(args)
    store = _hydrate(pipeline, args)
    result = pipeline.run()
    summary = summarize_run(result)
    _say(args, summary)
    artifact = _emit_trace(pipeline, store, args)
    if artifact is not None:
        _say(args, f"trace written to {args.cache / 'obs' / artifact}")
    payload = {"command": "report", **_analysis_payload(result)}
    payload["summary"] = summary
    payload["trace_artifact"] = artifact
    return _finish(args, payload)


def _print_alert(args: argparse.Namespace, alert) -> None:
    _say(
        args,
        f"  [{alert.severity}] {alert.when.isoformat()}  "
        f"{alert.kind.value}: {alert.message}",
    )


def cmd_replay(args: argparse.Namespace) -> int:
    from repro.exec import result_digest
    from repro.stream import StreamMonitor, split_feed

    store = DataStore(args.cache)
    dst = store.load_dst()
    catalog = store.load_catalog()
    if dst is None or catalog is None or not len(catalog):
        raise ReproError(
            f"no dataset under {args.cache}; run "
            "'cosmicdance simulate --out ...' first"
        )
    monitor = StreamMonitor(store=store, run_every=args.run_every)
    chunks = split_feed(dst, catalog, chunk_hours=args.chunk_hours)
    updates = monitor.replay(chunks)

    refreshes = sum(1 for u in updates if u.ran)
    for update in updates:
        for alert in update.alerts:
            _print_alert(args, alert)
    result = monitor.result
    digest = result_digest(result)
    marks = monitor.watermarks
    _say(
        args,
        f"replayed {len(chunks)} chunk(s) ({args.chunk_hours:g} h each): "
        f"{refreshes} refresh(es), {len(monitor.alerts.emitted)} alert(s)",
    )
    _say(
        args,
        f"final state: {len(result.storm_episodes)} storm episodes, "
        f"{len(result.associations)} associations, "
        f"{len(result.permanently_decayed)} permanent decay(s)",
    )
    _say(args, f"watermarks: dst={marks.dst_high}, tle={marks.tle_high}")
    _say(args, f"alert log: {args.cache / 'alerts' / 'alerts.jsonl'}")
    _say(args, f"result digest: {digest}")
    payload = {
        "command": "replay",
        "chunks": len(chunks),
        "refreshes": refreshes,
        "alerts": len(monitor.alerts.emitted),
        "result_digest": digest,
        "storm_episodes": len(result.storm_episodes),
        "associations": len(result.associations),
        "permanent_decays": len(result.permanently_decayed),
        "parity_ok": None,
    }
    if args.verify_parity:
        from repro import analyze

        batch = result_digest(analyze(dst, catalog))
        payload["parity_ok"] = batch == digest
        if batch != digest:
            print(
                f"PARITY FAILED: batch digest {batch} != replay digest {digest}",
                file=sys.stderr,
            )
            if getattr(args, "json", False):
                print(json.dumps(payload, sort_keys=True, default=str))
            return 1
        _say(args, "parity OK: replay digest matches the one-shot batch run")
    return _finish(args, payload)


def cmd_watch(args: argparse.Namespace) -> int:
    from repro.simulation.scenario import (
        may2024_scenario,
        paper_scenario,
        quickstart_scenario,
    )
    from repro.stream import StreamMonitor, split_feed

    builders = {
        "quickstart": quickstart_scenario,
        "paper": paper_scenario,
        "may2024": may2024_scenario,
    }
    scenario = builders[args.scenario](seed=args.seed)
    store = DataStore(args.out) if args.out else None
    monitor = StreamMonitor(store=store, run_every=args.run_every)
    chunks = split_feed(
        scenario.dst, scenario.catalog, chunk_hours=args.chunk_hours
    )
    if args.max_chunks is not None:
        chunks = chunks[: args.max_chunks]

    _say(
        args,
        f"watching scenario '{scenario.name}' as {len(chunks)} "
        f"chunk(s) of {args.chunk_hours:g} h",
    )
    for chunk in chunks:
        update = monitor.step(chunk)
        for alert in update.alerts:
            _print_alert(args, alert)
        if update.ran and update.plan is not None:
            _say(
                args,
                f"  -- refresh: {len(update.plan.dirty)} dirty / "
                f"{len(update.plan.clean)} cached satellite(s)",
            )
    payload: dict[str, Any] = {
        "command": "watch",
        "scenario": scenario.name,
        "chunks": len(chunks),
        "alerts": [alert.to_event() for alert in monitor.alerts.emitted],
        "final": None,
    }
    if monitor.ready():
        final = monitor.refresh()
        for alert in final.alerts:
            _print_alert(args, alert)
        result = final.result
        payload["alerts"] = [alert.to_event() for alert in monitor.alerts.emitted]
        payload["final"] = {
            "storm_episodes": len(result.storm_episodes),
            "permanent_decays": len(result.permanently_decayed),
        }
        _say(
            args,
            f"final: {len(result.storm_episodes)} storm episodes, "
            f"{len(result.permanently_decayed)} permanent decay(s), "
            f"{len(monitor.alerts.emitted)} alert(s) total",
        )
    else:
        _say(args, "feed ended before both data modalities arrived; no analysis run")
    if store is not None:
        _say(args, f"alert log: {args.out / 'alerts' / 'alerts.jsonl'}")
    return _finish(args, payload)


def cmd_trace_report(args: argparse.Namespace) -> int:
    from repro.obs import parse_events, render_trace_report

    store = DataStore(args.cache)
    jsonl = store.load_trace(name=args.name)
    if jsonl is None:
        raise ReproError(
            f"no trace named {args.name!r} under {args.cache / 'obs'}; "
            "run 'cosmicdance analyze --trace --cache ...' first"
        )
    report = render_trace_report(parse_events(jsonl))
    _say(args, report)
    return _finish(args, {
        "command": "trace-report",
        "name": args.name,
        "report": report,
    })


def _host_port(value: str) -> tuple[str, int]:
    """argparse type for ``--http HOST:PORT`` (usage error on junk)."""
    host, sep, port = value.rpartition(":")
    try:
        if not sep:
            raise ValueError
        return (host or "127.0.0.1", int(port))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT (e.g. 127.0.0.1:8080), got {value!r}"
        ) from None


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.api import serve

    service = serve(
        store=args.cache,
        max_sessions=args.max_sessions,
        queue_limit=args.queue_limit,
        workers=args.workers,
        run_every=args.run_every,
    )
    answered = 0
    try:
        if args.http is not None:
            from repro.serve.http import make_http_server

            server = make_http_server(
                service, host=args.http[0], port=args.http[1]
            )
            host, port = server.server_address[:2]
            # stderr: stdout stays clean for piped protocol traffic.
            print(f"serving HTTP on {host}:{port}", file=sys.stderr)
            try:
                server.serve_forever()
            except KeyboardInterrupt:
                pass
            finally:
                server.server_close()
        else:
            from repro.serve.stdio import run_stdio

            answered = run_stdio(service, sys.stdin, sys.stdout)
    finally:
        service.shutdown()
    summary = {"command": "serve", "answered": answered}
    if getattr(args, "json", False):
        print(json.dumps(summary, sort_keys=True), file=sys.stderr)
    else:
        print(f"served {answered} request(s)", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosmicdance",
        description="Measure LEO orbital shifts due to solar radiations.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    simulate = subparsers.add_parser(
        "simulate", help="generate scenario data into a cache directory"
    )
    simulate.add_argument(
        "--scenario",
        choices=("quickstart", "paper", "may2024"),
        default="quickstart",
    )
    simulate.add_argument("--seed", type=int, default=2)
    simulate.add_argument("--out", type=pathlib.Path, required=True)
    _add_output_arguments(simulate)
    simulate.set_defaults(func=cmd_simulate)

    storms = subparsers.add_parser("storms", help="list storm episodes")
    storms.add_argument("--dst", type=pathlib.Path, required=True,
                        help="Dst file (CSV or WDC format)")
    _add_threshold_arguments(storms)
    storms.add_argument("--merge-gap", type=int, default=0)
    _add_output_arguments(storms)
    storms.set_defaults(func=cmd_storms)

    clean = subparsers.add_parser("clean", help="run the TLE cleaning stage")
    _add_tle_arguments(clean)
    _add_output_arguments(clean)
    clean.set_defaults(func=cmd_clean)

    analyze = subparsers.add_parser("analyze", help="run the full pipeline")
    analyze.add_argument("--dst", type=pathlib.Path, default=None)
    analyze.add_argument(
        "--strict", action="store_true",
        help="fail on the first corrupt artifact or per-satellite error "
             "instead of quarantining and continuing",
    )
    _add_execution_arguments(analyze)
    _add_tle_arguments(analyze)
    _add_output_arguments(analyze)
    analyze.set_defaults(func=cmd_analyze)

    report = subparsers.add_parser(
        "report", help="run the pipeline and print the full summary report"
    )
    report.add_argument("--dst", type=pathlib.Path, default=None)
    report.add_argument(
        "--strict", action="store_true",
        help="fail on the first corrupt artifact or per-satellite error "
             "instead of quarantining and continuing",
    )
    _add_execution_arguments(report)
    _add_tle_arguments(report)
    _add_output_arguments(report)
    report.set_defaults(func=cmd_report)

    lifetime = subparsers.add_parser(
        "lifetime", help="estimate uncontrolled orbital lifetime"
    )
    lifetime.add_argument("--altitude", type=float, required=True,
                          help="starting altitude [km]")
    lifetime.add_argument("--density-multiplier", type=float, default=1.0,
                          help="thermosphere density factor (storms: 2-5)")
    lifetime.add_argument("--max-days", type=float, default=36525.0)
    _add_output_arguments(lifetime)
    lifetime.set_defaults(func=cmd_lifetime)

    triggers = subparsers.add_parser(
        "triggers", help="schedule storm-triggered measurement campaigns"
    )
    triggers.add_argument("--dst", type=pathlib.Path, required=True)
    _add_threshold_arguments(triggers)
    triggers.add_argument("--min-gap-hours", type=float, default=24.0)
    _add_output_arguments(triggers)
    triggers.set_defaults(func=cmd_triggers)

    trace_report = subparsers.add_parser(
        "trace-report",
        help="render the span tree of a persisted --trace run",
    )
    trace_report.add_argument(
        "--cache", type=pathlib.Path, required=True,
        help="DataStore directory holding obs/<name>.jsonl",
    )
    trace_report.add_argument(
        "--name", default="trace",
        help="trace artifact name (default: trace)",
    )
    _add_output_arguments(trace_report)
    trace_report.set_defaults(func=cmd_trace_report)

    replay = subparsers.add_parser(
        "replay",
        help="replay a cached dataset chunk-by-chunk through the "
             "streaming monitor",
    )
    replay.add_argument(
        "--cache", type=pathlib.Path, required=True,
        help="DataStore directory holding dst.csv and tles/",
    )
    replay.add_argument(
        "--chunk-hours", type=float, default=24.0,
        help="feed chunk width [hours] (default: 24)",
    )
    replay.add_argument(
        "--run-every", type=int, default=None, metavar="N",
        help="refresh the analysis every N chunks (default: once, at "
             "end of feed)",
    )
    replay.add_argument(
        "--verify-parity", action="store_true",
        help="also run the one-shot batch pipeline and fail unless both "
             "result digests match",
    )
    _add_output_arguments(replay)
    replay.set_defaults(func=cmd_replay)

    watch = subparsers.add_parser(
        "watch",
        help="run the streaming monitor live over a simulated feed",
    )
    watch.add_argument(
        "--scenario",
        choices=("quickstart", "paper", "may2024"),
        default="quickstart",
    )
    watch.add_argument("--seed", type=int, default=2)
    watch.add_argument(
        "--chunk-hours", type=float, default=24.0,
        help="feed chunk width [hours] (default: 24)",
    )
    watch.add_argument(
        "--run-every", type=int, default=None, metavar="N",
        help="refresh the analysis every N chunks (default: once, at "
             "end of feed)",
    )
    watch.add_argument(
        "--max-chunks", type=int, default=None, metavar="N",
        help="stop after the first N chunks",
    )
    watch.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="DataStore directory for the alert journal (optional)",
    )
    _add_output_arguments(watch)
    watch.set_defaults(func=cmd_watch)

    serve = subparsers.add_parser(
        "serve",
        help="run the long-lived analysis service (stdio JSON lines, "
             "or --http)",
    )
    serve.add_argument(
        "--cache", type=pathlib.Path, default=None,
        help="DataStore directory for the stage cache and per-session "
             "alert journals (optional; state is in-memory without it)",
    )
    serve.add_argument(
        "--http", type=_host_port, default=None, metavar="HOST:PORT",
        help="serve HTTP on HOST:PORT (port 0 picks a free port) "
             "instead of the stdio JSON-lines loop",
    )
    serve.add_argument(
        "--max-sessions", type=int, default=8, metavar="N",
        help="resident session cap (LRU-evicted beyond it)",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=64, metavar="N",
        help="pending-request cap before backpressure rejections",
    )
    serve.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="request worker threads",
    )
    serve.add_argument(
        "--run-every", type=int, default=None, metavar="N",
        help="auto-refresh sessions every N ingested chunks",
    )
    _add_output_arguments(serve)
    serve.set_defaults(func=cmd_serve)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, FileNotFoundError) as exc:
        if getattr(args, "json", False):
            print(json.dumps(
                {
                    "ok": False,
                    "error": {"type": type(exc).__name__, "message": str(exc)},
                },
                sort_keys=True,
            ))
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
