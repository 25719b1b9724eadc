"""Unit tests for the MeanElements record."""

import pytest

from repro.errors import TLEFieldError
from repro.time import Epoch
from repro.tle import MeanElements
from repro.tle.elements import FLOAT_FIELDS


def make(**overrides):
    base = dict(
        catalog_number=44713,
        epoch=Epoch.from_calendar(2023, 1, 1),
        inclination_deg=53.0,
        raan_deg=0.0,
        eccentricity=0.0001,
        argp_deg=0.0,
        mean_anomaly_deg=0.0,
        mean_motion_rev_day=15.05,
    )
    base.update(overrides)
    return MeanElements(**base)


class TestValidation:
    def test_rejects_negative_catalog(self):
        with pytest.raises(TLEFieldError):
            make(catalog_number=-1)

    def test_rejects_eccentricity_out_of_range(self):
        with pytest.raises(TLEFieldError):
            make(eccentricity=1.0)
        with pytest.raises(TLEFieldError):
            make(eccentricity=-0.1)

    def test_rejects_bad_inclination(self):
        with pytest.raises(TLEFieldError):
            make(inclination_deg=181.0)

    def test_rejects_nonpositive_mean_motion(self):
        with pytest.raises(TLEFieldError):
            make(mean_motion_rev_day=0.0)

    def test_rejects_nan_bstar(self):
        with pytest.raises(TLEFieldError, match="bstar must be finite"):
            make(bstar=float("nan"))

    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_every_non_finite_float_field(self, name, value):
        with pytest.raises(TLEFieldError):
            make(**{name: value})


class TestDerived:
    def test_altitude_from_mean_motion(self):
        el = make(mean_motion_rev_day=15.05)
        assert el.altitude_km == pytest.approx(551.0, abs=5.0)

    def test_sma_minus_radius_is_altitude(self):
        from repro.constants import EARTH_RADIUS_KM

        el = make()
        assert el.sma_km - EARTH_RADIUS_KM == pytest.approx(el.altitude_km)

    def test_period(self):
        el = make(mean_motion_rev_day=15.0)
        assert el.period_minutes == pytest.approx(96.0)

    def test_perigee_apogee_bracket_sma_altitude(self):
        el = make(eccentricity=0.01)
        assert el.perigee_altitude_km < el.altitude_km < el.apogee_altitude_km

    def test_circular_orbit_perigee_equals_apogee(self):
        el = make(eccentricity=0.0)
        assert el.perigee_altitude_km == pytest.approx(el.apogee_altitude_km)


class TestCopies:
    def test_with_epoch(self):
        el = make()
        later = el.with_epoch(el.epoch.add_days(1.0))
        assert later.epoch.days_since(el.epoch) == pytest.approx(1.0)
        assert later.catalog_number == el.catalog_number

    def test_with_mean_motion(self):
        el = make()
        changed = el.with_mean_motion(15.5)
        assert changed.mean_motion_rev_day == 15.5
        assert el.mean_motion_rev_day == 15.05  # original frozen

    def test_with_bstar(self):
        el = make()
        assert el.with_bstar(3e-4).bstar == 3e-4
