"""Nested wall-clock spans over one pipeline run.

A :class:`Tracer` records spans in a flat insertion-ordered list; the
tree (run → stage → satellite) is implied by ``parent_id``.  Spans are
opened with :meth:`Tracer.span` (a context manager), carry free-form
attributes, and time themselves with ``time.perf_counter`` relative to
the tracer's origin — so a trace is self-contained and never embeds
absolute timestamps.

:data:`NULL_TRACER` is the disabled stand-in: ``span()`` hands back a
shared no-op context manager, nothing is recorded, nothing is written.
The pipeline always talks to a tracer, so the enabled/disabled branch
lives here, not in the hot loops.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = ["NULL_TRACER", "NullTracer", "Span", "SpanHandle", "Tracer"]


@dataclass(slots=True)
class Span:
    """One recorded span (a node of the trace tree)."""

    name: str
    span_id: int
    parent_id: int | None
    #: Start, in seconds since the tracer's origin.
    start_s: float
    #: Duration [s]; None while the span is still open.
    elapsed_s: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_event(self) -> dict[str, Any]:
        """The span's JSONL event payload."""
        return {
            "type": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start_s": round(self.start_s, 6),
            "elapsed_s": (
                round(self.elapsed_s, 6) if self.elapsed_s is not None else None
            ),
            "attrs": self.attrs,
        }


class SpanHandle:
    """Context manager for one open span; ``set()`` adds attributes."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    @property
    def span(self) -> Span:
        return self._span

    def set(self, **attrs: Any) -> "SpanHandle":
        """Attach attributes to the span (last write wins per key)."""
        self._span.attrs.update(attrs)
        return self

    def __enter__(self) -> "SpanHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._span.attrs.setdefault("error", f"{exc_type.__name__}: {exc}")
        self._tracer._close(self._span)
        return False


class _NullSpanHandle:
    """The shared do-nothing span handle of :class:`NullTracer`."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NullSpanHandle":
        return self

    def __enter__(self) -> "_NullSpanHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_HANDLE = _NullSpanHandle()


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Exists so callers never branch on "is tracing on?" — they always
    open spans, and the null implementation makes that free.
    """

    enabled = False

    def span(self, name: str, **attrs: Any) -> _NullSpanHandle:
        return _NULL_HANDLE

    @property
    def spans(self) -> tuple[Span, ...]:
        return ()

    def events(self) -> Iterator[dict[str, Any]]:
        return iter(())


#: The shared disabled tracer.
NULL_TRACER = NullTracer()


class Tracer:
    """Records nested spans for one (or several) pipeline runs."""

    enabled = True

    def __init__(self) -> None:
        self._origin = time.perf_counter()
        self._spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 1

    # --- recording ---------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> SpanHandle:
        """Open a child span of the currently open span."""
        span = Span(
            name=name,
            span_id=self._next_id,
            parent_id=self._stack[-1].span_id if self._stack else None,
            start_s=time.perf_counter() - self._origin,
            attrs=dict(attrs),
        )
        self._next_id += 1
        self._spans.append(span)
        self._stack.append(span)
        return SpanHandle(self, span)

    def _close(self, span: Span) -> None:
        span.elapsed_s = (time.perf_counter() - self._origin) - span.start_s
        # Close any dangling children too (leaked handles), then the span.
        while self._stack and self._stack[-1] is not span:
            self._stack.pop()
        if self._stack:
            self._stack.pop()

    # --- inspection --------------------------------------------------------
    @property
    def spans(self) -> tuple[Span, ...]:
        """Every recorded span, in insertion order."""
        return tuple(self._spans)

    def find(self, name: str) -> list[Span]:
        """All spans with the given name."""
        return [s for s in self._spans if s.name == name]

    def events(self) -> Iterator[dict[str, Any]]:
        """The spans as JSONL-ready event dicts, in insertion order."""
        for span in self._spans:
            yield span.to_event()
