"""Delta-aware re-analysis planning.

The pipeline's fleet stage is memoized per satellite (StageMemo under
(history digest, config digest)), and each history caches its own
digest until it next grows, so a warm re-run neither recomputes nor
re-hashes clean satellites.  The :class:`DeltaPlanner` turns ingest
deltas into an explicit :class:`ReplanPlan` — the minimal set of dirty
(satellite, stage) pairs a run will actually recompute — by probing
the memo with :meth:`~repro.exec.memo.StageMemo.peek` (no counters
moved), so callers can alert, budget, or skip runs *before* paying for
one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.config import CosmicDanceConfig
from repro.exec import StageMemo, config_digest
from repro.tle.catalog import SatelliteCatalog

if TYPE_CHECKING:
    from repro.stream.ingestor import IngestDelta

__all__ = ["DeltaPlanner", "ReplanPlan"]


@dataclass(frozen=True, slots=True)
class ReplanPlan:
    """The minimal dirty work one run would dispatch."""

    #: Satellites whose fleet stage must recompute (no memo entry).
    dirty: tuple[int, ...]
    #: Satellites the memo will serve without recomputation.
    clean: tuple[int, ...]
    #: Dst hours added since the last committed plan — the global
    #: storms stage re-scans iff this is non-zero (or nothing ran yet).
    new_dst_hours: int
    #: Whether the storms stage has dirty input.
    storms_dirty: bool

    @property
    def associate_dirty(self) -> bool:
        """Associations re-derive when either input side changed."""
        return self.storms_dirty or bool(self.dirty)

    @property
    def any_dirty(self) -> bool:
        return bool(self.dirty) or self.storms_dirty

    def pairs(self) -> list[tuple[int | None, str]]:
        """The dirty (satellite, stage) pairs, global stages keyed None."""
        out: list[tuple[int | None, str]] = [(n, "fleet") for n in self.dirty]
        if self.storms_dirty:
            out.append((None, "storms"))
        if self.associate_dirty:
            out.append((None, "associate"))
        return out


class DeltaPlanner:
    """Maps ingest deltas to the minimal dirty (satellite, stage) set."""

    def __init__(self) -> None:
        self._pending_dirty: set[int] = set()
        self._pending_dst_hours = 0
        self._ran_once = False

    # --- accumulating deltas ----------------------------------------------
    def note(self, delta: "IngestDelta") -> None:
        """Record what one ingested chunk changed."""
        if delta.duplicate:
            return
        self._pending_dst_hours += delta.new_dst_hours
        self._pending_dirty.update(delta.dirty_satellites)

    @property
    def pending_dirty(self) -> frozenset[int]:
        """Satellites marked dirty since the last :meth:`commit`."""
        return frozenset(self._pending_dirty)

    @property
    def pending_dst_hours(self) -> int:
        return self._pending_dst_hours

    # --- planning -----------------------------------------------------------
    def plan(
        self,
        catalog: SatelliteCatalog,
        *,
        memo: StageMemo | None,
        config: CosmicDanceConfig | None = None,
    ) -> ReplanPlan:
        """What a run over *catalog* would actually recompute now."""
        cfg = config_digest(config or CosmicDanceConfig())
        dirty: list[int] = []
        clean: list[int] = []
        for history in catalog:
            if memo is not None and memo.peek(history, cfg):
                clean.append(history.catalog_number)
            else:
                dirty.append(history.catalog_number)
        storms_dirty = self._pending_dst_hours > 0 or not self._ran_once
        return ReplanPlan(
            dirty=tuple(sorted(dirty)),
            clean=tuple(sorted(clean)),
            new_dst_hours=self._pending_dst_hours,
            storms_dirty=storms_dirty,
        )

    def commit(self) -> None:
        """Mark the pending deltas as analysed (call after a run)."""
        self._pending_dirty.clear()
        self._pending_dst_hours = 0
        self._ran_once = True
