"""The four workloads and the per-run bookkeeping they share.

Every workload drives only public entry points (``CosmicDance``,
``repro.cli.main``, ``StreamMonitor``, ``AnalysisService``) with the
default config, so the fleet stage runs on the serial executor.  Each one
times two kinds of operation, a heavy one and a light one, in a closed
loop with one caller until ``seconds`` of measured time have passed:

=============  ====================================  ==================================
workload       heavy operation                       light operation
=============  ====================================  ==================================
batch          fresh pipeline: ingest + cold run()   run() again (warm, nothing new)
cli-cache      ``analyze --cache D --json``, empty    the same command, stage cache full
               ``stage_cache/``
stream-feed    offer one new TLE + refresh()         offer one late-feed Dst chunk
serve-mixed    ``refresh`` for both tenants          ``ingest-delta`` / ``query-*`` for
                                                     both tenants
=============  ====================================  ==================================

Result digests are computed outside timed operations.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import shutil
import threading
import time
from collections import defaultdict
from dataclasses import replace
from typing import Callable, Iterator

import data
from spans import Recorder

#: Width of a feed chunk (the monitor's daily delivery).
CHUNK_HOURS = 24.0
#: Share of the feed's Dst chunks replayed one by one (the rest is
#: ingested in bulk during set-up): the late chunks a long-running
#: monitor sees.
TAIL_FRACTION = 0.1
#: Service tenants, one client thread each (no more than ``nproc``).
SESSIONS = ("a", "b")
#: ``query-alerts`` page size.
ALERT_LIMIT = 20
#: Seconds a service client waits for one response before failing.
REQUEST_TIMEOUT_S = 120.0


class Run:
    """One workload run: its clock, samples, checks and failures."""

    def __init__(self, seconds: float, started: float, scratch,
                 recorder: Recorder | None = None) -> None:
        self.seconds = seconds
        #: ``perf_counter()`` when the benchmark script started.
        self.started = started
        #: Private directory inside the checkout, removed after the run.
        self.scratch = scratch
        self.recorder = recorder
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failures: list[str] = []
        #: Wall time spent inside :meth:`measuring` blocks.
        self.measured = 0.0
        self.loading_s = 0.0
        self.first_op: float | None = None
        #: ``(operations, seconds)`` behind ``ops_per_s``.
        self.throughput: tuple[int, float] = (0, 0.0)
        #: Digest of the analysis over the unmodified inputs.
        self.reference: str | None = None
        #: Extra per-layer values the workload measures itself.
        self.layer: dict[str, float] = {}
        self._lock = threading.Lock()

    @property
    def failed(self) -> int:
        return len(self.failures)

    def more(self) -> bool:
        """Whether measured time is still short of the run length."""
        return self.measured < self.seconds

    @contextlib.contextmanager
    def measuring(self) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.measured += time.perf_counter() - start

    @contextlib.contextmanager
    def loading(self) -> Iterator[None]:
        """Input loading: excluded from ``setup_s``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.loading_s += time.perf_counter() - start

    @contextlib.contextmanager
    def op(self, kind: str) -> Iterator[None]:
        """Time one operation of *kind*; an exception counts as a failure."""
        span = self.recorder.op(kind) if self.recorder is not None else contextlib.nullcontext()
        start = time.perf_counter()
        if self.first_op is None:
            self.first_op = start
        try:
            with span:
                yield
        except Exception as exc:
            with self._lock:
                self.attempted += 1
                self.failures.append(f"{kind}: {type(exc).__name__}: {exc}")
            raise
        elapsed = time.perf_counter() - start
        with self._lock:
            self.attempted += 1
            self.samples[kind].append(elapsed)

    def request(self, request_id: str):
        """Tag the spans of a request submitted in this block, including
        those the broker thread records for it, with *request_id*."""
        if self.recorder is None:
            return contextlib.nullcontext()
        parent, _ = self.recorder.context()
        return self.recorder.adopt(parent, request_id)

    def check(self, what: str, ok: bool) -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failures.append(f"check failed: {what}")
        return ok

    @property
    def setup_s(self) -> float:
        """Script start to first timed call, minus input loading."""
        first = self.first_op if self.first_op is not None else time.perf_counter()
        return first - self.started - self.loading_s


# --- batch -----------------------------------------------------------------------
def batch(run: Run, inputs, seed: int) -> None:
    """Fresh pipeline per iteration: ingest + cold run(), then a warm run()."""
    from repro import CosmicDance, result_digest

    with run.loading():
        dst, catalog = data.load_parsed(inputs)
        elements = list(catalog.all_elements())
    kept = []
    while run.more():
        with run.measuring():
            with run.op("heavy"):
                pipeline = CosmicDance()
                pipeline.ingest.add_dst(dst)
                pipeline.ingest.add_elements(elements)
                cold = pipeline.run()
            with run.op("light"):
                warm = pipeline.run()
        # First and last iteration only: a digest costs a third of a run.
        kept[1:] = [(cold, warm)]
    digests = [result_digest(result) for pair in kept for result in pair]
    run.check("batch: cold == warm digest across iterations", len(set(digests)) == 1)
    run.reference = digests[0]
    run.throughput = (sum(map(len, run.samples.values())), run.measured)


# --- cli-cache ---------------------------------------------------------------------
_CACHE_SUMMARY = re.compile(r"stage cache: (\d+) hit\(s\), (\d+) miss\(es\)")


def _analyze(store) -> tuple[int, dict]:
    """``cosmicdance analyze --cache <store> --json`` in this process."""
    from repro.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["analyze", "--cache", str(store), "--json"])
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]) if lines else {}


def _tree_mb(path) -> float:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) / 1e6


def cli_cache(run: Run, inputs, seed: int) -> None:
    """The incremental-fetch loop as users run it: the CLI against a
    store whose stage cache is emptied (cold), then reused (warm)."""
    with run.loading():
        store = run.scratch / "store"
        shutil.copytree(inputs, store)
        satellites = len((store / "catalog_numbers.txt").read_text().split())
    stage_cache = store / "stage_cache"
    while run.more():
        shutil.rmtree(stage_cache, ignore_errors=True)
        with run.measuring():
            with run.op("heavy"):
                cold_code, cold = _analyze(store)
        run.layer["io.stage_cache_mb"] = _tree_mb(stage_cache) if stage_cache.exists() else 0.0
        with run.measuring():
            with run.op("light"):
                warm_code, warm = _analyze(store)
        run.check("cli: cold exit code 0", cold_code == 0)
        run.check("cli: warm exit code 0", warm_code == 0)
        run.check("cli: cold == warm digest",
                  cold.get("result_digest") == warm.get("result_digest"))
        cached = _CACHE_SUMMARY.search(warm.get("health", ""))
        run.check("cli: warm run hits the stage cache for every satellite",
                  cached is not None and cached.groups() == (str(satellites), "0"))
        if run.reference is None:
            run.reference = cold.get("result_digest")
    run.throughput = (sum(map(len, run.samples.values())), run.measured)


# --- stream-feed -------------------------------------------------------------------
def _bumped(latest: dict, number: int):
    """A genuinely new record for *number*: its latest one, a day later."""
    element = latest[number]
    latest[number] = element = replace(element, epoch=element.epoch.add_days(1.0))
    return element


def stream_feed(run: Run, inputs, seed: int) -> None:
    """A monitor that has run for years: the late feed chunk by chunk,
    then one-satellite deltas, each followed by a refresh."""
    from repro import FeedChunk, StreamMonitor, result_digest, split_feed

    with run.loading():
        dst, catalog = data.load_parsed(inputs)
    chunks = split_feed(dst, catalog, chunk_hours=CHUNK_HOURS)
    dst_at = [i for i, chunk in enumerate(chunks) if chunk.kind == "dst"]
    cut = dst_at[int(len(dst_at) * (1.0 - TAIL_FRACTION))]
    head, tail = chunks[:cut], chunks[cut:]
    monitor = StreamMonitor()
    monitor.offer(FeedChunk.of_dst(dst.slice(None, tail[0].dst.start),
                                   chunk_id="bulk-dst"))
    monitor.offer(FeedChunk.of_elements(
        [e for chunk in head if chunk.kind == "tle" for e in chunk.elements],
        chunk_id="bulk-tle",
    ))

    with run.measuring():
        for chunk in tail:
            with run.op("light" if chunk.kind == "dst" else "tle_chunk"):
                monitor.offer(chunk)
    run.throughput = (len(tail), run.measured)

    cold = monitor.refresh()
    noop = monitor.refresh()
    run.reference = result_digest(cold.result)
    run.check("stream: no-op refresh plans no work", not noop.plan.any_dirty)
    run.check("stream: no-op refresh == cold refresh digest",
              result_digest(noop.result) == run.reference)

    rng = random.Random(seed)
    numbers = sorted(catalog.catalog_numbers)
    latest = {n: max(catalog.get(n), key=lambda e: e.epoch.unix) for n in numbers}
    while run.more():
        number = rng.choice(numbers)
        element = _bumped(latest, number)
        with run.measuring():
            with run.op("heavy"):
                monitor.offer(FeedChunk.of_elements([element]))
                update = monitor.refresh()
        run.check("stream: delta refresh recomputes only its satellite",
                  update.plan.dirty == (number,))


# --- serve-mixed -------------------------------------------------------------------
def serve_mixed(run: Run, inputs, seed: int) -> None:
    """Two tenants on the default service (one broker worker), driven in
    rounds by one client: each round both tenants ingest one new TLE,
    then both refresh, then both query episodes, then both query alerts.

    The two requests of a phase are in flight together, so the second
    tenant's request queues behind the first's; an operation is a phase,
    timed until both answers arrive.  (Timing requests one by one mixes
    queued and unqueued latencies whose proportions drift from run to
    run; a phase's latency does not.)
    """
    from repro import AnalysisService, format_tle

    with run.loading():
        dst_text, tle_text = data.load_text(inputs)
        _, catalog = data.load_parsed(inputs)
    numbers = sorted(catalog.catalog_numbers)
    service = AnalysisService().start()
    try:
        digests = {}
        for session in SESSIONS:
            loaded = service.call(service.request(
                "ingest-delta", session=session, dst_text=dst_text, tle_text=tle_text),
                timeout=REQUEST_TIMEOUT_S)
            refreshed = service.call(service.request("refresh", session=session),
                                     timeout=REQUEST_TIMEOUT_S)
            run.check(f"serve: session {session} loads", loaded.ok and refreshed.ok)
            digests[session] = refreshed.result["result_digest"] if refreshed.ok else None
        run.check("serve: sessions agree after set-up", len(set(digests.values())) == 1)
        run.reference = digests[SESSIONS[0]]

        rngs = {session: random.Random(f"{seed}-{session}") for session in SESSIONS}
        latest = {session: {n: max(catalog.get(n), key=lambda e: e.epoch.unix)
                            for n in numbers} for session in SESSIONS}
        latencies: list[float] = []
        busy_before = service.metrics.histogram("serve.request.latency_s").total

        def phase(kind: str, op: str, payloads: dict[str, dict]) -> list:
            with run.op(kind):
                sent = []
                for session in SESSIONS:
                    with run.request(f"{session}-{rounds}-{op}"):
                        started = time.perf_counter()
                        sent.append((started, service.submit(
                            service.request(op, session=session, **payloads[session]))))
                # One broker worker answers in submission order, so each
                # wait returns as soon as its own answer is ready.
                responses = []
                for started, future in sent:
                    responses.append(future.result(timeout=REQUEST_TIMEOUT_S))
                    latencies.append(time.perf_counter() - started)
            for response in responses:
                run.check(f"serve: {op} ok", response.ok)
            return responses

        rounds = 0
        while run.more():
            rounds += 1
            with run.measuring():
                ingests = {}
                for session in SESSIONS:
                    line1, line2 = format_tle(
                        _bumped(latest[session], rngs[session].choice(numbers)))
                    ingests[session] = {"tle_text": f"{line1}\n{line2}\n"}
                phase("light", "ingest-delta", ingests)
                refreshes = phase("heavy", "refresh", {s: {} for s in SESSIONS})
                phase("light", "query-episodes", {s: {} for s in SESSIONS})
                phase("light", "query-alerts", {s: {"limit": ALERT_LIMIT} for s in SESSIONS})
            for response in refreshes:
                # 0 when the other tenant already computed this exact
                # history: the stage memo is service-wide.
                plan = response.result["plan"] if response.ok else {"dirty": -1, "clean": 0}
                run.check("serve: refresh recomputes at most its satellite",
                          0 <= plan["dirty"] <= 1
                          and plan["dirty"] + plan["clean"] == len(numbers))
        run.throughput = (len(latencies), run.measured)
        busy = service.metrics.histogram("serve.request.latency_s").total - busy_before
        counters = {s.name: s.value for s in service.metrics.snapshot()}
        run.layer.update({
            "serve.busy_pct": 100.0 * busy / run.measured,
            "serve.queue_wait_pct": 100.0 * (sum(latencies) - busy) / sum(latencies),
            "serve.coalesced": counters.get("serve.coalesced", 0.0),
            "serve.rejected": counters.get("serve.rejected", 0.0),
        })
    finally:
        service.shutdown(timeout=REQUEST_TIMEOUT_S)


WORKLOADS: dict[str, Callable] = {
    "batch": batch,
    "cli-cache": cli_cache,
    "stream-feed": stream_feed,
    "serve-mixed": serve_mixed,
}
