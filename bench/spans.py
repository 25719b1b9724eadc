"""Spans recorded from outside the program, for the traced run.

The traced run wraps a fixed list of boundary functions (:data:`TARGETS`)
without touching the program's files: every binding of each original
object in a ``sys.modules`` module dict or a ``repro`` class dict is
replaced by a wrapper, and :meth:`Patch.restore` puts every original
back.  This works because the program resolves those names at call time
(``process_satellite`` looks its stages up in its module globals, the CLI
imports ``result_digest`` inside the command).  ``IngestState`` and the
element types are ``slots=True``, so wrappers patch classes, never
instances.

A span is ``(name, start, end, parent, request id, thread)``.  Parents
come from a per-thread stack; :data:`SUBMIT` carries the caller's span
and request id into the service's broker thread.  Spans are recorded only
while a timed operation is in flight (:meth:`Recorder.op`), kept in
memory, and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import pathlib
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

#: Span covering one execution of a request inside the broker thread.
EXECUTE = "serve.execute"

#: Prefix of the spans the harness opens around each timed operation.
OP = "op:"


@dataclass(frozen=True, slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: str | None
    thread: str


class Recorder:
    """In-memory span and counter sink shared by every thread of a run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._in_flight = 0

    @property
    def active(self) -> bool:
        """Whether any timed operation is in flight (spans are kept)."""
        return self._in_flight > 0

    def _stack(self) -> list[tuple[int, str | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def context(self) -> tuple[int | None, str | None]:
        """``(innermost span id, request id)`` of the calling thread."""
        stack = self._stack()
        return stack[-1] if stack else (None, None)

    @contextlib.contextmanager
    def adopt(self, parent: int | None, request: str | None) -> Iterator[None]:
        """Make *parent* the current span of this thread (another thread's
        span, when work crosses into a worker)."""
        stack = self._stack()
        stack.append((parent, request))
        try:
            yield
        finally:
            stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent, request = self.context()
        span_id = next(self._ids)
        stack = self._stack()
        stack.append((span_id, request))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(
                    Span(span_id, name, start, end, parent, request,
                         threading.current_thread().name)
                )

    @contextlib.contextmanager
    def op(self, kind: str) -> Iterator[None]:
        """Span one timed operation; spans are recorded while any is open."""
        with self._lock:
            self._in_flight += 1
        try:
            with self.span(OP + kind):
                yield
        finally:
            with self._lock:
                self._in_flight -= 1

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value

    def dump(self, path: pathlib.Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span.id, "name": span.name, "start": span.start,
                    "end": span.end, "parent": span.parent,
                    "request": span.request, "thread": span.thread,
                }) + "\n")


# --- self time ---------------------------------------------------------------
def _covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def _own(spans: list[Span]) -> dict[int, float]:
    """Per span id: its duration minus the part its children cover.

    Children may run on other threads (a request executing in the broker
    thread is a child of the operation that submitted it) and may overlap
    each other, so coverage is the union of their intervals.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: (span.end - span.start)
        - _covered(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Per span name: the summed self time of its spans."""
    spans = list(spans)
    own = _own(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += own[span.id]
    return dict(totals)


def op_breakdown(spans: Iterable[Span]) -> dict[str, dict[str, float]]:
    """Per operation kind: each span name's self time per operation [s],
    counting only spans that ran under an operation of that kind."""
    spans = list(spans)
    own = _own(spans)
    by_id = {span.id: span for span in spans}

    def root(span: Span) -> Span:
        while span.parent is not None and span.parent in by_id:
            span = by_id[span.parent]
        return span

    totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    ops: dict[str, int] = defaultdict(int)
    for span in spans:
        top = root(span)
        if top.name.startswith(OP):
            totals[top.name[len(OP):]][span.name] += own[span.id]
        if span is top and span.name.startswith(OP):
            ops[span.name[len(OP):]] += 1
    return {
        kind: {name: seconds / ops[kind] for name, seconds in sorted(names.items())}
        for kind, names in totals.items()
    }


# --- wrapped boundaries --------------------------------------------------------
Measure = Callable[[tuple, Any], Iterable[tuple[str, float]]]


@dataclass(frozen=True)
class Target:
    """One wrapped boundary: span *name*, where the original lives, and
    what to count from its arguments and result."""

    name: str
    module: str
    attr: str
    measure: Measure | None = None


def _records(args: tuple, result: Any) -> Iterable[tuple[str, float]]:
    return (("tle.parse_tle_file.records", len(result.elements)),)


def _spike_records(args: tuple, result: Any) -> Iterable[tuple[str, float]]:
    return (("core.detect_drag_spikes.records", len(args[0])),)


def _memo(args: tuple, result: Any) -> Iterable[tuple[str, float]]:
    return (("exec.memo.misses" if result is None else "exec.memo.hits", 1),)


def _emitted(args: tuple, result: Any) -> Iterable[tuple[str, float]]:
    return (("stream.alerts.emitted", len(result)),)


def _dirty(args: tuple, result: Any) -> Iterable[tuple[str, float]]:
    return (("stream.planner.dirty", len(result.dirty)),)


TARGETS: tuple[Target, ...] = (
    Target("tle.parse_tle_file", "repro.tle.parse", "parse_tle_file", _records),
    Target("io.load_catalog", "repro.io.store", "DataStore.load_catalog"),
    Target("io.save_stage_outcome", "repro.io.store", "DataStore.save_stage_outcome"),
    Target("io.load_stage_outcome", "repro.io.store", "DataStore.load_stage_outcome"),
    Target("exec.history_digest", "repro.exec.digests", "history_digest"),
    Target("exec.result_digest", "repro.exec.digests", "result_digest"),
    Target("exec.encode_outcome", "repro.exec.codec", "encode_outcome"),
    Target("exec.decode_outcome", "repro.exec.codec", "decode_outcome"),
    Target("exec.memo.get", "repro.exec.memo", "StageMemo.get", _memo),
    Target("core.run", "repro.core.pipeline", "CosmicDance.run"),
    Target("core.process_satellite", "repro.core.pipeline", "process_satellite"),
    Target("core.clean_history", "repro.core.cleaning", "clean_history"),
    Target("core.detect_drag_spikes", "repro.core.relations", "detect_drag_spikes",
           _spike_records),
    Target("core.detect_decay_onsets", "repro.core.relations", "detect_decay_onsets"),
    Target("core.assess_decay", "repro.core.decay", "assess_decay"),
    Target("core.associate", "repro.core.relations", "associate"),
    Target("core.ingest.add_dst", "repro.core.ingest", "IngestState.add_dst"),
    Target("core.ingest.add_elements_delta", "repro.core.ingest",
           "IngestState.add_elements_delta"),
    Target("spaceweather.detect_episodes", "repro.spaceweather.storms", "detect_episodes"),
    Target("stream.ingestor.offer", "repro.stream.ingestor", "StreamIngestor.offer"),
    Target("stream.detector.observe", "repro.stream.detector", "OnlineStormDetector.observe"),
    Target("stream.alerts.emit", "repro.stream.alerts", "AlertEngine.emit", _emitted),
    Target("stream.planner.plan", "repro.stream.planner", "DeltaPlanner.plan", _dirty),
)

#: The broker's public submit: wrapped to carry the caller's span and
#: request id into the broker thread.
SUBMIT = ("repro.serve.broker", "RequestBroker.submit")


def _resolve(module: str, attr: str) -> Any:
    value: Any = importlib.import_module(module)
    for part in attr.split("."):
        value = getattr(value, part)
    return value


def _wrap(recorder: Recorder, target: Target, original: Callable) -> Callable:
    name, measure = target.name, target.measure

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not recorder.active:
            return original(*args, **kwargs)
        with recorder.span(name):
            result = original(*args, **kwargs)
        recorder.count(name + ".calls")
        if measure is not None:
            for metric, value in measure(args, result):
                recorder.count(metric, value)
        return result

    return wrapper


def _wrap_submit(recorder: Recorder, original: Callable) -> Callable:
    @functools.wraps(original)
    def submit(self, thunk, *args, **kwargs):
        if not recorder.active:
            return original(self, thunk, *args, **kwargs)
        parent, request = recorder.context()

        def traced():
            with recorder.adopt(parent, request), recorder.span(EXECUTE):
                return thunk()

        return original(self, traced, *args, **kwargs)

    return submit


def _is_one_of(value: Any, objects: dict[int, Any]) -> bool:
    return id(value) in objects and objects[id(value)] is value


def _bindings(objects: dict[int, Any]) -> list[tuple[Any, str, Any]]:
    """Every ``(container, attr, object)`` binding of *objects* (keyed by
    ``id``) in module dicts and ``repro`` class dicts."""
    found: list[tuple[Any, str, Any]] = []
    classes: dict[int, type] = {}
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for attr, value in list(namespace.items()):
            if _is_one_of(value, objects):
                found.append((module, attr, value))
            elif isinstance(value, type) and str(
                getattr(value, "__module__", "")
            ).startswith("repro"):
                classes[id(value)] = value
    for cls in classes.values():
        for attr, value in list(vars(cls).items()):
            if _is_one_of(value, objects):
                found.append((cls, attr, value))
    return found


class Patch:
    """Installed wrappers and the bindings they replaced."""

    def __init__(self, originals: dict[int, Any], wrappers: dict[int, Callable]) -> None:
        #: id(wrapper) -> original.
        self._originals = {id(wrappers[key]): originals[key] for key in wrappers}
        self._wrappers = {id(wrapper): wrapper for wrapper in wrappers.values()}
        self.bindings = _bindings(originals)
        for container, attr, original in self.bindings:
            setattr(container, attr, wrappers[id(original)])

    def restore(self) -> None:
        """Put every original back, including bindings made after install
        (a module imported later copies the wrapper), and assert it."""
        for container, attr, wrapper in _bindings(self._wrappers):
            setattr(container, attr, self._originals[id(wrapper)])
        assert not _bindings(self._wrappers), "a wrapper is still bound"
        for container, attr, original in self.bindings:
            assert vars(container)[attr] is original, (container, attr)


def install(recorder: Recorder, targets: Iterable[Target] = TARGETS) -> Patch:
    """Wrap every target (and the broker's submit) until ``restore()``."""
    originals: dict[int, Any] = {}
    wrappers: dict[int, Callable] = {}
    for target in targets:
        original = _resolve(target.module, target.attr)
        originals[id(original)] = original
        wrappers[id(original)] = _wrap(recorder, target, original)
    submit = _resolve(*SUBMIT)
    originals[id(submit)] = submit
    wrappers[id(submit)] = _wrap_submit(recorder, submit)
    return Patch(originals, wrappers)


# --- per-layer metrics -----------------------------------------------------------
#: Span names whose self time is reported as ``<name>.self_pct``.
SHARE_SPANS = (
    "tle.parse_tle_file", "io.load_catalog", "io.save_stage_outcome",
    "io.load_stage_outcome", "exec.history_digest", "exec.result_digest",
    "exec.encode_outcome", "exec.decode_outcome", "core.run",
    "core.process_satellite", "core.clean_history", "core.detect_drag_spikes",
    "core.detect_decay_onsets", "core.assess_decay", "core.associate",
    "core.ingest.add_dst", "core.ingest.add_elements_delta",
    "spaceweather.detect_episodes", "stream.ingestor.offer",
    "stream.detector.observe", "stream.alerts.emit", "stream.planner.plan",
    EXECUTE,
)

#: Counters reported as they were recorded.
COUNTS = (
    "tle.parse_tle_file.calls", "tle.parse_tle_file.records",
    "io.save_stage_outcome.calls", "io.load_stage_outcome.calls",
    "exec.history_digest.calls", "exec.result_digest.calls",
    "exec.memo.hits", "exec.memo.misses", "core.run.calls",
    "core.process_satellite.calls", "core.detect_drag_spikes.records",
    "core.ingest.add_dst.calls", "stream.detector.observe.calls",
    "stream.alerts.emitted", "stream.planner.dirty",
)


def layer_metrics(recorder: Recorder, wall_s: float) -> dict[str, float]:
    """Self-time shares of *wall_s* and counters from one traced run.

    ``op.self_pct`` is time inside timed operations that no wrapped layer
    covers: harness code, unwrapped program code, and a service client's
    wait while the broker thread is idle.
    """
    own = self_times(recorder.spans)
    share = 100.0 / wall_s if wall_s > 0 else 0.0
    metrics = {f"{name}.self_pct": own.get(name, 0.0) * share for name in SHARE_SPANS}
    metrics.update({name: recorder.counts.get(name, 0.0) for name in COUNTS})
    hits, misses = metrics["exec.memo.hits"], metrics["exec.memo.misses"]
    metrics["exec.memo.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["op.self_pct"] = share * sum(
        seconds for name, seconds in own.items() if name.startswith(OP)
    )
    return metrics
