"""Property-based tests for the TLE 2-digit epoch-year pivot.

TLEs encode the year in two digits; by convention 57-99 mean 1957-1999
and 00-56 mean 2000-2056.  The pivot at 57 and the range guard at
1957/2056 are exactly the kind of boundary that silently shifts a
satellite's whole history by a century when broken, so they get pinned
both at the boundaries and across the full representable range.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TimeError
from repro.time import Epoch
from repro.time.julian import calendar_to_jd, days_in_year


def full_year(two_digit_year: int) -> int:
    return 1900 + two_digit_year if two_digit_year >= 57 else 2000 + two_digit_year


def tle_epoch_jd_oracle(two_digit_year: int, day_of_year: float) -> float:
    """The Jan-1 Julian date computed per call, as before the year table."""
    return calendar_to_jd(full_year(two_digit_year), 1, 1) + (day_of_year - 1.0)


class TestPivotBoundaries:
    def test_57_is_1957(self):
        assert Epoch.from_tle_epoch(57, 1.0).year == 1957

    def test_56_is_2056(self):
        assert Epoch.from_tle_epoch(56, 1.0).year == 2056

    def test_99_is_1999_and_00_is_2000(self):
        assert Epoch.from_tle_epoch(99, 1.0).year == 1999
        assert Epoch.from_tle_epoch(0, 1.0).year == 2000

    def test_centuries_meet_without_overlap(self):
        # 99 day 365 and 00 day 1 are adjacent instants, not a century
        # apart: the pivot must keep the timeline continuous.
        end_of_1999 = Epoch.from_tle_epoch(99, 365.0)
        start_of_2000 = Epoch.from_tle_epoch(0, 1.0)
        assert 0 < start_of_2000.days_since(end_of_1999) <= 1.0


class TestPivotProperties:
    @given(st.integers(0, 99))
    @settings(max_examples=100)
    def test_two_digit_year_maps_into_1957_2056(self, yy):
        year = Epoch.from_tle_epoch(yy, 1.0).year
        assert 1957 <= year <= 2056
        assert year % 100 == yy
        assert year >= 2000 if yy <= 56 else year < 2000

    @given(
        st.integers(1957, 2056),
        st.floats(0.0, 1.0, exclude_max=True, allow_nan=False),
    )
    @settings(max_examples=300)
    def test_round_trip_over_the_whole_range(self, year, year_fraction):
        day_of_year = 1.0 + year_fraction * (days_in_year(year) - 1)
        epoch = Epoch.from_tle_epoch(year % 100, day_of_year)
        assert epoch.year == year
        yy, doy = epoch.to_tle_epoch()
        assert yy == year % 100
        # Day-of-year survives to well under a second.
        assert abs(doy - day_of_year) < 1e-5
        again = Epoch.from_tle_epoch(yy, doy)
        assert abs(again.days_since(epoch)) < 1e-5

    @given(st.integers(1957, 2056))
    @settings(max_examples=100)
    def test_to_tle_epoch_inverts_calendar_years(self, year):
        yy, doy = Epoch.from_calendar(year, 7, 2, 12).to_tle_epoch()
        assert yy == year % 100
        assert Epoch.from_tle_epoch(yy, doy).year == year


class TestYearTableOracle:
    """``from_tle_epoch`` reads Jan 1 from a table built at import; its
    Julian dates must be bit-equal to computing Jan 1 per call."""

    @pytest.mark.parametrize("yy", range(100))
    def test_first_last_and_middle_day_of_every_year(self, yy):
        last_day = days_in_year(full_year(yy))
        last_instant = math.nextafter(last_day + 1.0, 0.0)
        for day in (1.0, 1.5, 183.25, float(last_day), last_instant):
            assert Epoch.from_tle_epoch(yy, day).jd == tle_epoch_jd_oracle(yy, day)

    @given(st.integers(0, 99), st.floats(0.0, 1.0, exclude_max=True))
    @settings(max_examples=300)
    def test_any_valid_day(self, yy, fraction):
        day = 1.0 + fraction * days_in_year(full_year(yy))
        assert Epoch.from_tle_epoch(yy, day).jd == tle_epoch_jd_oracle(yy, day)

    @pytest.mark.parametrize("yy", [0, 23, 24, 56, 57, 99])
    def test_day_past_the_year_still_raises(self, yy):
        with pytest.raises(TimeError, match=str(full_year(yy))):
            Epoch.from_tle_epoch(yy, days_in_year(full_year(yy)) + 1.0)


class TestRangeGuards:
    @given(st.one_of(st.integers(-1000, -1), st.integers(100, 1000)))
    @settings(max_examples=50)
    def test_out_of_range_two_digit_year_raises(self, yy):
        with pytest.raises(TimeError):
            Epoch.from_tle_epoch(yy, 1.0)

    @given(st.integers(0, 99), st.floats(allow_nan=False))
    @settings(max_examples=200)
    def test_out_of_range_day_of_year_raises(self, yy, day_of_year):
        year = 1900 + yy if yy >= 57 else 2000 + yy
        limit = days_in_year(year) + 1
        if 1.0 <= day_of_year < limit:
            Epoch.from_tle_epoch(yy, day_of_year)  # must not raise
        else:
            with pytest.raises(TimeError):
                Epoch.from_tle_epoch(yy, day_of_year)

    @given(st.one_of(st.integers(1800, 1956), st.integers(2057, 2200)))
    @settings(max_examples=50)
    def test_unrepresentable_years_refuse_to_encode(self, year):
        with pytest.raises(TimeError):
            Epoch.from_calendar(year, 6, 1).to_tle_epoch()

    def test_guard_edges_encode(self):
        assert Epoch.from_calendar(1957, 1, 1).to_tle_epoch()[0] == 57
        assert Epoch.from_calendar(2056, 12, 31).to_tle_epoch()[0] == 56
        with pytest.raises(TimeError):
            Epoch.from_calendar(1956, 12, 31).to_tle_epoch()
        with pytest.raises(TimeError):
            Epoch.from_calendar(2057, 1, 1).to_tle_epoch()
