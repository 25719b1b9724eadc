"""Feed chunks: the unit of arrival for the streaming monitor.

An online monitor does not see "the dataset" — it sees deliveries: a
few hours of Dst here, a TLE batch there, sometimes twice, sometimes
out of order.  A :class:`FeedChunk` packages one such delivery with a
stable ``chunk_id`` (content-derived by default) so re-delivery is
detectable, and :func:`split_feed` turns a batch dataset into the
time-ordered chunk sequence a replay would have observed — the bridge
between the batch world (scenarios, DataStore caches) and the
streaming one.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.errors import StreamError
from repro.spaceweather.dst import HOUR_S, DstIndex
from repro.time import Epoch
from repro.tle.catalog import SatelliteCatalog, history_digest
from repro.tle.elements import MeanElements

__all__ = ["FeedChunk", "split_feed"]


@dataclass(frozen=True, slots=True)
class FeedChunk:
    """One delivery of data to the streaming monitor.

    Exactly one payload is set: ``dst`` for a block of hourly Dst
    samples, ``elements`` for a batch of TLE element sets.  The
    ``chunk_id`` is the idempotency key — offering the same chunk twice
    is a recorded no-op.
    """

    chunk_id: str
    #: ``"dst"`` or ``"tle"``.
    kind: str
    dst: DstIndex | None = None
    elements: tuple[MeanElements, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.kind not in ("dst", "tle"):
            raise StreamError(f"unknown chunk kind: {self.kind!r}")
        if (self.kind == "dst") != (self.dst is not None):
            raise StreamError("dst chunks carry a DstIndex payload, tle chunks do not")
        if self.kind == "tle" and not self.elements:
            raise StreamError("tle chunks need at least one element set")

    @classmethod
    def of_dst(cls, dst: DstIndex, *, chunk_id: str | None = None) -> "FeedChunk":
        """A Dst block chunk (id defaults to the content digest)."""
        return cls(chunk_id=chunk_id or dst_block_id(dst), kind="dst", dst=dst)

    @classmethod
    def of_elements(
        cls, elements: "tuple[MeanElements, ...] | list[MeanElements]",
        *, chunk_id: str | None = None,
    ) -> "FeedChunk":
        """A TLE batch chunk (id defaults to the content digest)."""
        elements = tuple(elements)
        return cls(
            chunk_id=chunk_id or f"tle:{history_digest(elements)[:24]}",
            kind="tle",
            elements=elements,
        )

    @property
    def span(self) -> tuple[Epoch, Epoch]:
        """The payload's ``(earliest, latest)`` timestamps."""
        if self.dst is not None:
            return self.dst.start, self.dst.end
        times = [e.epoch for e in self.elements]
        return min(times, key=lambda t: t.unix), max(times, key=lambda t: t.unix)


def dst_block_id(dst: DstIndex) -> str:
    """Content digest of one Dst block (times and values)."""
    digest = hashlib.sha256()
    digest.update(dst.series.times.tobytes())
    digest.update(dst.series.values.tobytes())
    return f"dst:{digest.hexdigest()[:24]}"


def split_feed(
    dst: DstIndex,
    catalog: SatelliteCatalog,
    *,
    chunk_hours: float = 24.0,
) -> list[FeedChunk]:
    """Slice a batch dataset into the time-ordered chunk feed a live
    monitor would have consumed.

    Each *chunk_hours*-wide window yields at most two chunks: the Dst
    hours falling in the window, then the TLE element sets whose epochs
    do (ordered by epoch, then catalog number, for determinism).
    Windows are anchored at the earlier of the two modalities' first
    timestamps, so replaying the whole feed reconstructs the dataset
    exactly.
    """
    if chunk_hours <= 0:
        raise StreamError(f"chunk_hours must be positive: {chunk_hours}")
    if not len(dst) and not len(catalog):
        return []
    span = chunk_hours * HOUR_S
    starts = []
    if len(dst):
        starts.append(dst.start.unix)
    elements = sorted(
        catalog.all_elements(), key=lambda e: (e.epoch.unix, e.catalog_number)
    )
    if elements:
        starts.append(elements[0].epoch.unix)
    origin = min(starts)
    ends = []
    if len(dst):
        ends.append(dst.end.unix)
    if elements:
        ends.append(elements[-1].epoch.unix)
    horizon = max(ends)

    chunks: list[FeedChunk] = []
    window = 0
    element_idx = 0
    t0 = origin
    while t0 <= horizon:
        t1 = origin + span * (window + 1)
        block = dst.slice(Epoch.from_unix(t0), Epoch.from_unix(t1))
        if len(block):
            chunks.append(
                FeedChunk.of_dst(block, chunk_id=f"dst-{window:06d}")
            )
        batch: list[MeanElements] = []
        while element_idx < len(elements) and elements[element_idx].epoch.unix < t1:
            batch.append(elements[element_idx])
            element_idx += 1
        if batch:
            chunks.append(
                FeedChunk.of_elements(batch, chunk_id=f"tle-{window:06d}")
            )
        window += 1
        t0 = origin + span * window
    return chunks
