"""Per-satellite TLE history management.

``SatelliteCatalog`` mirrors CosmicDance's ingest bookkeeping: the
catalog number set is extracted once (from a current-TLE snapshot) and
historical element sets are merged in incrementally as they are fetched,
deduplicated by epoch, kept sorted, and exposed as the per-satellite
time series the analysis stages consume.  Each history also owns its
content digest, the key of the stage cache's incremental re-run.
"""

from __future__ import annotations

import bisect
import hashlib
import struct
from dataclasses import fields
from itertools import chain
from operator import attrgetter
from typing import Iterable, Iterator

import numpy as np

from repro.errors import TLEError
from repro.time import Epoch
from repro.timeseries import TimeSeries
from repro.tle.elements import FLOAT_FIELDS, MeanElements

#: The digest splits every :class:`MeanElements` field into one of two
#: lists: the epoch (as its Julian date) and the float fields, packed as
#: binary doubles, and every other field, written with ``repr``.
_PACKED_FIELDS = attrgetter("epoch.jd", *FLOAT_FIELDS)
_LABEL_FIELDS = attrgetter(
    *(f.name for f in fields(MeanElements) if f.name not in ("epoch", *FLOAT_FIELDS))
)


def history_digest(elements: Iterable[MeanElements]) -> str:
    """SHA-256 over the raw field values of an element-set sequence.

    The int and string fields go in as the ``repr`` of one list of
    per-record tuples, a self-delimiting literal; the epoch JD and the
    float fields follow as fixed-width little-endian doubles.  So two
    histories with identical records always share a digest, and any
    added, removed, reordered or changed record breaks it, down to a
    sub-second epoch shift.
    """
    records = list(elements)
    floats = list(chain.from_iterable(map(_PACKED_FIELDS, records)))
    digest = hashlib.sha256(repr(list(map(_LABEL_FIELDS, records))).encode("utf-8"))
    digest.update(struct.pack(f"<{len(floats)}d", *floats))
    return digest.hexdigest()


class SatelliteHistory:
    """The time-ordered element-set history of one satellite."""

    __slots__ = ("catalog_number", "_epochs", "_elements", "_digest")

    def __init__(self, catalog_number: int) -> None:
        self.catalog_number = catalog_number
        self._epochs: list[float] = []  # Unix seconds, sorted
        self._elements: list[MeanElements] = []
        self._digest: str | None = None

    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self) -> Iterator[MeanElements]:
        return iter(self._elements)

    def add(self, elements: MeanElements) -> bool:
        """Insert one element set; returns False when the epoch is a duplicate.

        Duplicate epochs keep the record already present (re-fetching
        history must be idempotent).
        """
        if elements.catalog_number != self.catalog_number:
            raise TLEError(
                f"catalog number mismatch: history is {self.catalog_number}, "
                f"record is {elements.catalog_number}"
            )
        t = elements.epoch.unix
        idx = bisect.bisect_left(self._epochs, t)
        if idx < len(self._epochs) and self._epochs[idx] == t:
            return False
        self._epochs.insert(idx, t)
        self._elements.insert(idx, elements)
        self._digest = None
        return True

    @property
    def digest(self) -> str:
        """:func:`history_digest` of the records, cached until the next
        inserting :meth:`add` (the only way a history changes)."""
        if self._digest is None:
            self._digest = history_digest(self._elements)
        return self._digest

    @property
    def first_epoch(self) -> Epoch:
        self._require_nonempty()
        return self._elements[0].epoch

    @property
    def last_epoch(self) -> Epoch:
        self._require_nonempty()
        return self._elements[-1].epoch

    def at_or_before(self, when: Epoch) -> MeanElements | None:
        """Most recent element set at or before *when*."""
        idx = bisect.bisect_right(self._epochs, when.unix) - 1
        return self._elements[idx] if idx >= 0 else None

    def between(self, start: Epoch, end: Epoch) -> list[MeanElements]:
        """Element sets with ``start <= epoch < end``."""
        lo = bisect.bisect_left(self._epochs, start.unix)
        hi = bisect.bisect_left(self._epochs, end.unix)
        return self._elements[lo:hi]

    def refresh_intervals_hours(self) -> np.ndarray:
        """Gaps between consecutive element-set epochs [hours].

        The paper reports these range from <1 to 154 hours with a mean
        around 12 hours for Starlink.
        """
        if len(self._epochs) < 2:
            return np.empty(0)
        return np.diff(np.asarray(self._epochs)) / 3600.0

    # --- series extraction (what the analysis stages consume) -----------
    def altitude_series(self) -> TimeSeries:
        """Altitude [km] (from mean motion) vs time."""
        return self._series(lambda e: e.altitude_km)

    def bstar_series(self) -> TimeSeries:
        """B* drag term vs time."""
        return self._series(lambda e: e.bstar)

    def mean_motion_series(self) -> TimeSeries:
        """Mean motion [rev/day] vs time."""
        return self._series(lambda e: e.mean_motion_rev_day)

    def inclination_series(self) -> TimeSeries:
        """Inclination [deg] vs time."""
        return self._series(lambda e: e.inclination_deg)

    def raan_series(self) -> TimeSeries:
        """RAAN [deg] vs time."""
        return self._series(lambda e: e.raan_deg)

    def eccentricity_series(self) -> TimeSeries:
        """Eccentricity vs time."""
        return self._series(lambda e: e.eccentricity)

    def argp_series(self) -> TimeSeries:
        """Argument of perigee [deg] vs time."""
        return self._series(lambda e: e.argp_deg)

    def mean_anomaly_series(self) -> TimeSeries:
        """Mean anomaly [deg] vs time."""
        return self._series(lambda e: e.mean_anomaly_deg)

    def element_series(self, name: str) -> TimeSeries:
        """Series for a named element (Fig. 9 uses all six)."""
        getters = {
            "altitude": self.altitude_series,
            "mean_motion": self.mean_motion_series,
            "inclination": self.inclination_series,
            "raan": self.raan_series,
            "eccentricity": self.eccentricity_series,
            "argp": self.argp_series,
            "mean_anomaly": self.mean_anomaly_series,
            "bstar": self.bstar_series,
        }
        if name not in getters:
            raise TLEError(f"unknown element series: {name!r}")
        return getters[name]()

    def _series(self, getter) -> TimeSeries:
        times = np.asarray(self._epochs, dtype=np.float64)
        values = np.array([getter(e) for e in self._elements], dtype=np.float64)
        return TimeSeries(times, values)

    def _require_nonempty(self) -> None:
        if not self._elements:
            raise TLEError(f"satellite {self.catalog_number} has no element sets")


class SatelliteCatalog:
    """A collection of satellite histories keyed by catalog number."""

    def __init__(self) -> None:
        self._histories: dict[int, SatelliteHistory] = {}

    def __len__(self) -> int:
        return len(self._histories)

    def __contains__(self, catalog_number: int) -> bool:
        return catalog_number in self._histories

    def __iter__(self) -> Iterator[SatelliteHistory]:
        return iter(self._histories.values())

    @property
    def catalog_numbers(self) -> list[int]:
        """Sorted catalog numbers present in the catalog."""
        return sorted(self._histories)

    def add(self, elements: MeanElements) -> bool:
        """Insert one element set, creating the history as needed."""
        history = self._histories.get(elements.catalog_number)
        if history is None:
            history = SatelliteHistory(elements.catalog_number)
            self._histories[elements.catalog_number] = history
        return history.add(elements)

    def add_many(self, elements_iter: Iterable[MeanElements]) -> int:
        """Insert many element sets; returns how many were new."""
        return sum(1 for e in elements_iter if self.add(e))

    def get(self, catalog_number: int) -> SatelliteHistory:
        """History of one satellite (raises :class:`TLEError` if unknown)."""
        try:
            return self._histories[catalog_number]
        except KeyError:
            raise TLEError(f"unknown catalog number: {catalog_number}") from None

    def total_records(self) -> int:
        """Total element sets across all satellites."""
        return sum(len(h) for h in self._histories.values())

    def latest_elements(self) -> list[MeanElements]:
        """The freshest element set per satellite (epoch order).

        This is the shape of a CelesTrak group query — the "current
        TLEs" snapshot CosmicDance fetches first to discover catalog
        numbers before pulling per-satellite history.
        """
        latest = [
            history.at_or_before(history.last_epoch)
            for history in self._histories.values()
            if len(history)
        ]
        return sorted(
            (e for e in latest if e is not None), key=lambda e: e.epoch.unix
        )

    def all_elements(self) -> Iterator[MeanElements]:
        """Iterate every element set across the catalog (epoch order per sat)."""
        for history in self._histories.values():
            yield from history

    def tracked_count_series(self, step_s: float = 86400.0) -> TimeSeries:
        """Number of satellites with a fresh element set per time bucket.

        A satellite counts as tracked in a bucket when it has at least
        one element set whose epoch falls in that bucket (Fig. 7's
        "Sat tracked" panel).
        """
        all_times = [e.epoch.unix for e in self.all_elements()]
        if not all_times:
            return TimeSeries.empty()
        t0 = np.floor(min(all_times) / step_s) * step_s
        t1 = max(all_times)
        n = int(np.floor((t1 - t0) / step_s)) + 1
        counts = np.zeros(n)
        for history in self._histories.values():
            buckets = {
                int((e.epoch.unix - t0) // step_s) for e in history
            }
            for b in buckets:
                counts[b] += 1
        grid = t0 + step_s * np.arange(n)
        return TimeSeries(grid, counts)
