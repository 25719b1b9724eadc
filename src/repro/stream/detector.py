"""Online storm detection with batch parity.

:class:`OnlineStormDetector` maintains the open-episode state of
:func:`repro.spaceweather.storms.detect_episodes` *across* chunk
boundaries, so a monitor can classify each new Dst hour as it arrives
instead of re-scanning the series.  The invariant it is built around
(and that ``tests/stream`` asserts property-style):

    after consuming any prefix of an hourly Dst series — in any chunk
    sizes — ``episodes()`` equals ``detect_episodes`` over that prefix.

Each block goes through the batch detector's own code, the
:func:`~repro.spaceweather.storms.episode_spans` call over
:func:`~repro.timeseries.runs.runs`, so parity holds by construction.
The only state carried between blocks is the open run:

* it re-enters the next block as one storm hour at its last storm hour,
  carrying its peak, so the kernel extends it, splits it off at a gap
  wider than ``merge_gap_hours``, or leaves it alone;
* it closes once it is *provably* non-extendable: any future storm hour
  lies later than the block's last sample, so its gap can only be
  larger — when the gap to that sample already reaches
  ``merge_gap_hours``, no later sample can merge across it;
* while open it is reported as a provisional episode, exactly as the
  batch detector emits a trailing run at end-of-data.

Late (backfill) data invalidates this forward-only state; the monitor
answers it with :meth:`rebuild` over the merged series, which goes
through the same path from an empty state.  Transition reporting
(:class:`StormDelta`) is keyed by episode start hour and deduplicated
across calls, so each onset / level upgrade / end is reported once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.spaceweather.dst import HOUR_S, DstIndex
from repro.spaceweather.scales import StormLevel
from repro.spaceweather.storms import StormEpisode, episode_spans

__all__ = ["OnlineStormDetector", "StormDelta"]


@dataclass(frozen=True, slots=True)
class StormDelta:
    """Episode transitions produced by one batch of samples."""

    #: Episodes reported for the first time (possibly still open).
    opened: tuple[StormEpisode, ...] = ()
    #: Episodes whose end became final.
    closed: tuple[StormEpisode, ...] = ()
    #: ``(episode, previous_level)`` for episodes whose peak deepened
    #: into a stormier NOAA band since last reported.
    upgraded: tuple[tuple[StormEpisode, StormLevel], ...] = ()

    @property
    def any(self) -> bool:
        return bool(self.opened or self.closed or self.upgraded)


class OnlineStormDetector:
    """Incremental equivalent of :func:`detect_episodes`.

    Unlike the science pipeline — whose threshold is a percentile of
    the *full* series and therefore only meaningful in batch — the
    online detector runs at a fixed operational threshold (default the
    NOAA quiet edge, -50 nT), so a sample's classification never
    changes after the fact.
    """

    def __init__(
        self,
        threshold_nt: float = -50.0,
        *,
        merge_gap_hours: int = 0,
    ) -> None:
        if merge_gap_hours < 0:
            raise ValueError(f"merge gap must be non-negative: {merge_gap_hours}")
        self.threshold_nt = float(threshold_nt)
        self.merge_gap_hours = int(merge_gap_hours)
        self._closed: list[StormEpisode] = []
        #: ``(first_t, last_t, peak_nt)`` of the open run, if any.
        self._run: tuple[float, float, float] | None = None
        self._last_time: float | None = None
        # Transition memory survives rebuilds: alerts fire once.
        self._reported_level: dict[int, StormLevel] = {}
        self._reported_closed: set[int] = set()

    # --- consuming data ---------------------------------------------------
    def observe(self, block: DstIndex) -> StormDelta:
        """Consume the strictly-newer samples of *block*; returns the
        episode transitions they caused.  Samples at/before the last
        consumed hour are skipped (the append-path contract: backfill
        goes through :meth:`rebuild` instead)."""
        self._consume(block)
        return self._diff_report()

    def rebuild(self, dst: DstIndex) -> StormDelta:
        """Recompute run state from the full merged series (the late-data
        path).  Episode transitions already reported are not repeated."""
        self._closed = []
        self._run = None
        self._last_time = None
        self._consume(dst)
        return self._diff_report()

    # --- querying state ---------------------------------------------------
    def episodes(self) -> list[StormEpisode]:
        """All episodes so far, the still-open run included — equal to
        ``detect_episodes`` over every sample consumed."""
        out = list(self._closed)
        if self._run is not None:
            out.append(StormEpisode.spanning(*self._run))
        return out

    @property
    def open_episode(self) -> StormEpisode | None:
        """The provisional episode for the currently open run, if any."""
        return StormEpisode.spanning(*self._run) if self._run is not None else None

    # --- internals --------------------------------------------------------
    def _consume(self, block: DstIndex) -> None:
        series = block.series
        times, values = series.times, series.values
        if self._last_time is not None:
            fresh = times > self._last_time
            times, values = times[fresh], values[fresh]
        if not times.size:
            return
        self._last_time = float(times[-1])
        with np.errstate(invalid="ignore"):
            below = np.isfinite(values) & (values <= self.threshold_nt)
        if self._run is not None:
            # The open run re-enters as one storm hour at its last storm
            # hour, carrying its peak; its first hour is put back below.
            first_t, last_t, peak_nt = self._run
            times = np.concatenate(([last_t], times))
            values = np.concatenate(([peak_nt], values))
            below = np.concatenate(([True], below))
        spans = episode_spans(times, values, below, max_gap=self.merge_gap_hours)
        if not spans:
            return
        if self._run is not None:
            spans[0] = (first_t, *spans[0][1:])
        self._run = spans.pop()
        self._closed.extend(StormEpisode.spanning(*span) for span in spans)
        # Later storm hours lie beyond the last sample: once the gap to it
        # reaches the merge allowance, the open run is final.
        if round((self._last_time - self._run[1]) / HOUR_S) - 1 >= self.merge_gap_hours:
            self._closed.append(StormEpisode.spanning(*self._run))
            self._run = None

    @staticmethod
    def _key(episode: StormEpisode) -> int:
        return int(round(episode.start.unix))

    def _diff_report(self) -> StormDelta:
        opened: list[StormEpisode] = []
        closed: list[StormEpisode] = []
        upgraded: list[tuple[StormEpisode, StormLevel]] = []
        open_episode = self.open_episode
        open_key = self._key(open_episode) if open_episode is not None else None
        for episode in self.episodes():
            key = self._key(episode)
            level = episode.level
            previous = self._reported_level.get(key)
            if previous is None:
                opened.append(episode)
                self._reported_level[key] = level
            elif level > previous:
                upgraded.append((episode, previous))
                self._reported_level[key] = level
            if key != open_key and key not in self._reported_closed:
                closed.append(episode)
                self._reported_closed.add(key)
        return StormDelta(
            opened=tuple(opened), closed=tuple(closed), upgraded=tuple(upgraded)
        )
