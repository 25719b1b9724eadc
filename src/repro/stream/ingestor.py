"""Incremental ingest: arbitrary-order chunks into the pipeline buffers.

The :class:`StreamIngestor` is the streaming front half of
:class:`~repro.core.ingest.IngestState`: it accepts Dst blocks and
parsed TLE batches in whatever order they arrive, feeds them
into the *existing* ingest buffers (the catalog dedups element sets by
(NORAD id, epoch); Dst blocks splice into one hourly series), and
reports back an :class:`IngestDelta` describing exactly what changed —
the signal the re-analysis planner and the online storm detector run
on.

Two streaming-specific guarantees sit on top:

* **idempotent dedup** — every chunk carries a ``chunk_id`` (content-
  derived by default); a chunk seen before is a recorded no-op, and
  even a *new* chunk overlapping old data cannot double-count records
  because the underlying buffers dedup at the record level;
* **watermark tracking** — the ingestor remembers the latest timestamp
  absorbed per modality.  A chunk entirely at/after the watermark is
  an *append* (the cheap online path); one reaching behind it is
  *late* (backfill), which the monitor answers with a detector rebuild
  instead of an incremental observe.  Late data is never dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.ingest import IngestState
from repro.errors import StreamError
from repro.spaceweather.dst import DstIndex
from repro.spaceweather.wdc import parse_wdc
from repro.stream.chunks import FeedChunk
from repro.time import Epoch
from repro.tle.elements import MeanElements

__all__ = ["IngestDelta", "StreamIngestor", "Watermarks"]


@dataclass(frozen=True, slots=True)
class Watermarks:
    """Where the ingested stream currently ends, per modality."""

    #: Latest Dst hour absorbed (None before any Dst chunk).
    dst_high: Epoch | None
    #: Latest TLE element epoch absorbed (None before any TLE chunk).
    tle_high: Epoch | None
    #: Chunks offered so far (including duplicates).
    chunks: int
    #: Chunks dropped as exact re-deliveries.
    duplicates: int
    #: Chunks that reached behind a watermark (backfill).
    late: int


@dataclass(frozen=True, slots=True)
class IngestDelta:
    """What one offered chunk actually changed."""

    chunk_id: str
    #: ``"dst"`` or ``"tle"``.
    kind: str
    #: The chunk_id was seen before; nothing was ingested.
    duplicate: bool = False
    #: The payload reaches behind the modality watermark (backfill).
    late: bool = False
    #: Net growth of the hourly Dst series.
    new_dst_hours: int = 0
    #: Element sets that were genuinely new (post-dedup).
    new_records: int = 0
    #: ``(catalog_number, new records)`` per satellite that grew.
    records_by_satellite: tuple[tuple[int, int], ...] = ()
    #: The parsed Dst payload (append path input for the detector).
    dst_block: DstIndex | None = None

    @property
    def dirty_satellites(self) -> tuple[int, ...]:
        """Catalog numbers whose histories changed under this chunk."""
        return tuple(number for number, _ in self.records_by_satellite)

    @property
    def changed(self) -> bool:
        """Whether the chunk altered any pipeline input."""
        return bool(self.new_dst_hours or self.new_records)


class StreamIngestor:
    """Chunk-at-a-time ingestion over an :class:`IngestState`."""

    def __init__(self, state: IngestState | None = None) -> None:
        self.state = state if state is not None else IngestState()
        self._seen_chunks: set[str] = set()
        self._dst_high: float | None = None
        self._tle_high: float | None = None
        self._chunks = 0
        self._duplicates = 0
        self._late = 0

    @property
    def watermarks(self) -> Watermarks:
        return Watermarks(
            dst_high=Epoch.from_unix(self._dst_high) if self._dst_high is not None else None,
            tle_high=Epoch.from_unix(self._tle_high) if self._tle_high is not None else None,
            chunks=self._chunks,
            duplicates=self._duplicates,
            late=self._late,
        )

    # --- offering data ----------------------------------------------------
    def offer(self, chunk: FeedChunk) -> IngestDelta:
        """Ingest one feed chunk; returns what it changed."""
        if chunk.kind == "dst":
            assert chunk.dst is not None
            return self.offer_dst(chunk.dst, chunk_id=chunk.chunk_id)
        return self.offer_elements(chunk.elements, chunk_id=chunk.chunk_id)

    def offer_dst(
        self, dst: "DstIndex | str", *, chunk_id: str | None = None
    ) -> IngestDelta:
        """Ingest a Dst block (parsed, or WDC-format text)."""
        if isinstance(dst, str):
            dst = parse_wdc(dst)
        from repro.stream.chunks import dst_block_id

        chunk_id = chunk_id or dst_block_id(dst)
        if self._is_duplicate(chunk_id):
            return IngestDelta(chunk_id=chunk_id, kind="dst", duplicate=True)
        if not len(dst):
            raise StreamError("empty Dst chunk")
        late = self._dst_high is not None and dst.start.unix <= self._dst_high
        before = len(self.state.dst) if self.state.dst is not None else 0
        self.state.add_dst(dst)
        assert self.state.dst is not None
        self._dst_high = max(self._dst_high or -float("inf"), dst.end.unix)
        if late:
            self._late += 1
        return IngestDelta(
            chunk_id=chunk_id,
            kind="dst",
            late=late,
            new_dst_hours=len(self.state.dst) - before,
            dst_block=dst,
        )

    def offer_elements(
        self,
        elements: "tuple[MeanElements, ...] | list[MeanElements]",
        *,
        chunk_id: str | None = None,
    ) -> IngestDelta:
        """Ingest a batch of parsed TLE element sets."""
        elements = tuple(elements)
        if chunk_id is None:
            chunk_id = FeedChunk.of_elements(elements).chunk_id
        if self._is_duplicate(chunk_id):
            return IngestDelta(chunk_id=chunk_id, kind="tle", duplicate=True)
        if not elements:
            raise StreamError("empty TLE chunk")
        epochs = [e.epoch.unix for e in elements]
        late = self._tle_high is not None and min(epochs) <= self._tle_high
        by_satellite = self.state.add_elements_delta(elements)
        self._tle_high = max(self._tle_high or -float("inf"), max(epochs))
        if late:
            self._late += 1
        return IngestDelta(
            chunk_id=chunk_id,
            kind="tle",
            late=late,
            new_records=sum(by_satellite.values()),
            records_by_satellite=tuple(sorted(by_satellite.items())),
        )

    # --- internals --------------------------------------------------------
    def _is_duplicate(self, chunk_id: str) -> bool:
        self._chunks += 1
        if chunk_id in self._seen_chunks:
            self._duplicates += 1
            return True
        self._seen_chunks.add(chunk_id)
        return False
