"""The :class:`Epoch` value type.

An epoch is an absolute instant in UTC.  Internally it is stored as a
Julian date (float), which gives ~20 microsecond resolution across the
measurement window — far finer than the hourly Dst cadence or TLE epoch
precision this library cares about.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

from repro.constants import SECONDS_PER_DAY
from repro.errors import TimeError
from repro.time import julian

_ISO_RE = re.compile(
    r"^(\d{4})-(\d{2})-(\d{2})"
    r"(?:[T ](\d{2}):(\d{2})(?::(\d{2}(?:\.\d+)?))?)?"
    r"Z?$"
)


#: ``(year, Jan-1 Julian date, first day number past the year)``,
#: indexed by two-digit TLE year (00-56 → 2000-2056, 57-99 → 1957-1999).
_TLE_YEARS = tuple(
    (year, julian.calendar_to_jd(year, 1, 1), julian.days_in_year(year) + 1)
    for year in (*range(2000, 2057), *range(1957, 2000))
)


@functools.total_ordering
@dataclass(frozen=True, slots=True)
class Epoch:
    """An absolute UTC instant, stored as a Julian date."""

    jd: float

    # --- constructors ----------------------------------------------------
    @classmethod
    def from_calendar(
        cls,
        year: int,
        month: int,
        day: int,
        hour: int = 0,
        minute: int = 0,
        second: float = 0.0,
    ) -> "Epoch":
        """Build from a Gregorian calendar date/time (UTC)."""
        return cls(julian.calendar_to_jd(year, month, day, hour, minute, second))

    @classmethod
    def from_unix(cls, unix_seconds: float) -> "Epoch":
        """Build from Unix seconds."""
        return cls(julian.unix_to_jd(unix_seconds))

    @classmethod
    def from_iso(cls, text: str) -> "Epoch":
        """Parse ``YYYY-MM-DD[ T]HH:MM[:SS[.fff]][Z]``."""
        match = _ISO_RE.match(text.strip())
        if match is None:
            raise TimeError(f"unparseable ISO timestamp: {text!r}")
        year, month, day = int(match[1]), int(match[2]), int(match[3])
        hour = int(match[4] or 0)
        minute = int(match[5] or 0)
        second = float(match[6] or 0.0)
        return cls.from_calendar(year, month, day, hour, minute, second)

    @classmethod
    def from_tle_epoch(cls, two_digit_year: int, day_of_year: float) -> "Epoch":
        """Build from the TLE epoch convention.

        TLEs encode the epoch as a 2-digit year (57-99 → 1957-1999,
        00-56 → 2000-2056) and a fractional day of year where day 1.0
        is January 1st, 00:00 UTC.
        """
        if not 0 <= two_digit_year <= 99:
            raise TimeError(f"TLE year out of range: {two_digit_year}")
        year, jd_jan1, day_end = _TLE_YEARS[two_digit_year]
        if not 1.0 <= day_of_year < day_end:
            raise TimeError(f"TLE day of year out of range: {day_of_year} in {year}")
        return cls(jd_jan1 + (day_of_year - 1.0))

    # --- accessors ---------------------------------------------------------
    @property
    def unix(self) -> float:
        """Unix seconds for this instant."""
        return julian.jd_to_unix(self.jd)

    def calendar(self) -> tuple[int, int, int, int, int, float]:
        """``(year, month, day, hour, minute, second)`` in UTC."""
        return julian.jd_to_calendar(self.jd)

    @property
    def year(self) -> int:
        return self.calendar()[0]

    def to_tle_epoch(self) -> tuple[int, float]:
        """Return ``(two_digit_year, fractional_day_of_year)``."""
        year, month, day, hour, minute, second = self.calendar()
        if not 1957 <= year <= 2056:
            raise TimeError(f"year {year} not representable in a TLE epoch")
        doy = julian.day_of_year(year, month, day)
        fraction = (hour * 3600 + minute * 60 + second) / SECONDS_PER_DAY
        return year % 100, doy + fraction

    def isoformat(self) -> str:
        """Render as ``YYYY-MM-DDTHH:MM:SS`` (second rounded)."""
        year, month, day, hour, minute, second = self.calendar()
        whole = round(second)
        if whole >= 60:
            # Rounding carried over a minute boundary; re-render half a
            # second later, which is safely past the boundary (a smaller
            # nudge can vanish below JD float resolution).
            nudged = Epoch(self.jd + 0.5 / SECONDS_PER_DAY)
            year, month, day, hour, minute, second = nudged.calendar()
            whole = int(second)
        return f"{year:04d}-{month:02d}-{day:02d}T{hour:02d}:{minute:02d}:{whole:02d}"

    # --- arithmetic ---------------------------------------------------------
    def add_days(self, days: float) -> "Epoch":
        return Epoch(self.jd + days)

    def add_hours(self, hours: float) -> "Epoch":
        return Epoch(self.jd + hours / 24.0)

    def add_seconds(self, seconds: float) -> "Epoch":
        return Epoch(self.jd + seconds / SECONDS_PER_DAY)

    def days_since(self, other: "Epoch") -> float:
        """Elapsed days from *other* to self (negative if earlier)."""
        return self.jd - other.jd

    def hours_since(self, other: "Epoch") -> float:
        """Elapsed hours from *other* to self."""
        return (self.jd - other.jd) * 24.0

    # --- ordering ------------------------------------------------------------
    def __lt__(self, other: object) -> bool:
        if not isinstance(other, Epoch):
            return NotImplemented
        return self.jd < other.jd

    def __repr__(self) -> str:
        return f"Epoch({self.isoformat()})"
