"""Unit tests for satellite history/catalog management."""

import numpy as np
import pytest

from repro.errors import TLEError
from repro.time import Epoch
from repro.tle import SatelliteCatalog
from repro.tle.catalog import SatelliteHistory, history_digest
from repro.tle.elements import MeanElements


def element(catalog=44713, day=1, mean_motion=15.05, bstar=1e-4):
    return MeanElements(
        catalog_number=catalog,
        epoch=Epoch.from_calendar(2023, 1, day),
        inclination_deg=53.0,
        raan_deg=10.0,
        eccentricity=0.0001,
        argp_deg=0.0,
        mean_anomaly_deg=0.0,
        mean_motion_rev_day=mean_motion,
        bstar=bstar,
    )


class TestSatelliteHistory:
    def test_insert_keeps_epoch_order(self):
        h = SatelliteHistory(44713)
        h.add(element(day=3))
        h.add(element(day=1))
        h.add(element(day=2))
        epochs = [e.epoch.unix for e in h]
        assert epochs == sorted(epochs)

    def test_duplicate_epoch_is_idempotent(self):
        h = SatelliteHistory(44713)
        assert h.add(element(day=1, mean_motion=15.05))
        assert not h.add(element(day=1, mean_motion=15.99))
        assert len(h) == 1
        assert next(iter(h)).mean_motion_rev_day == 15.05

    def test_rejects_wrong_catalog(self):
        h = SatelliteHistory(44713)
        with pytest.raises(TLEError):
            h.add(element(catalog=99999))

    def test_at_or_before(self):
        h = SatelliteHistory(44713)
        h.add(element(day=1))
        h.add(element(day=5))
        found = h.at_or_before(Epoch.from_calendar(2023, 1, 3))
        assert found is not None
        assert found.epoch.calendar()[2] == 1
        assert h.at_or_before(Epoch.from_calendar(2022, 12, 31)) is None

    def test_between(self):
        h = SatelliteHistory(44713)
        for d in (1, 2, 3, 4):
            h.add(element(day=d))
        found = h.between(Epoch.from_calendar(2023, 1, 2), Epoch.from_calendar(2023, 1, 4))
        assert len(found) == 2

    def test_refresh_intervals(self):
        h = SatelliteHistory(44713)
        h.add(element(day=1))
        h.add(element(day=2))
        assert h.refresh_intervals_hours() == pytest.approx([24.0])

    def test_first_last_epoch_on_empty_raises(self):
        h = SatelliteHistory(44713)
        with pytest.raises(TLEError):
            _ = h.first_epoch

    def test_series_extraction(self):
        h = SatelliteHistory(44713)
        h.add(element(day=1, mean_motion=15.05, bstar=1e-4))
        h.add(element(day=2, mean_motion=15.06, bstar=2e-4))
        alt = h.altitude_series()
        assert len(alt) == 2
        assert alt.values[0] > alt.values[1]  # higher mean motion = lower
        assert list(h.bstar_series().values) == [1e-4, 2e-4]

    def test_element_series_by_name(self):
        h = SatelliteHistory(44713)
        h.add(element(day=1))
        for name in ("altitude", "mean_motion", "inclination", "raan",
                     "eccentricity", "argp", "mean_anomaly", "bstar"):
            assert len(h.element_series(name)) == 1

    def test_element_series_unknown_name(self):
        h = SatelliteHistory(44713)
        with pytest.raises(TLEError):
            h.element_series("nope")


class TestSatelliteCatalog:
    def test_add_creates_histories(self):
        c = SatelliteCatalog()
        c.add(element(catalog=1, day=1))
        c.add(element(catalog=2, day=1))
        assert len(c) == 2
        assert c.catalog_numbers == [1, 2]

    def test_add_many_counts_new_only(self):
        c = SatelliteCatalog()
        batch = [element(day=1), element(day=2), element(day=1)]
        assert c.add_many(batch) == 2

    def test_contains(self):
        c = SatelliteCatalog()
        c.add(element(catalog=7, day=1))
        assert 7 in c
        assert 8 not in c

    def test_get_unknown_raises(self):
        with pytest.raises(TLEError):
            SatelliteCatalog().get(12345)

    def test_total_records(self):
        c = SatelliteCatalog()
        c.add(element(catalog=1, day=1))
        c.add(element(catalog=1, day=2))
        c.add(element(catalog=2, day=1))
        assert c.total_records() == 3

    def test_all_elements(self):
        c = SatelliteCatalog()
        c.add(element(catalog=1, day=1))
        c.add(element(catalog=2, day=1))
        assert sum(1 for _ in c.all_elements()) == 2

    def test_tracked_count_series(self):
        c = SatelliteCatalog()
        c.add(element(catalog=1, day=1))
        c.add(element(catalog=2, day=1))
        c.add(element(catalog=2, day=2))
        counts = c.tracked_count_series(step_s=86400.0)
        assert counts.values[0] == 2.0
        assert counts.values[1] == 1.0

    def test_tracked_count_empty(self):
        assert len(SatelliteCatalog().tracked_count_series()) == 0


class TestLatestElements:
    def test_latest_per_satellite(self):
        c = SatelliteCatalog()
        c.add(element(catalog=1, day=1, mean_motion=15.05))
        c.add(element(catalog=1, day=5, mean_motion=15.06))
        c.add(element(catalog=2, day=3))
        latest = c.latest_elements()
        assert len(latest) == 2
        by_cat = {e.catalog_number: e for e in latest}
        assert by_cat[1].mean_motion_rev_day == 15.06

    def test_sorted_by_epoch(self):
        c = SatelliteCatalog()
        c.add(element(catalog=1, day=9))
        c.add(element(catalog=2, day=2))
        latest = c.latest_elements()
        assert latest[0].catalog_number == 2

    def test_empty_catalog(self):
        assert SatelliteCatalog().latest_elements() == []


class TestHistoryDigest:
    """A history owns its content digest and caches it until it grows."""

    def test_cached_digest_matches_fresh_hash(self):
        h = SatelliteHistory(44713)
        for day in (3, 1, 2):
            h.add(element(day=day))
        assert h.digest == history_digest(tuple(h))
        assert h.digest is h.digest

    def test_growth_invalidates_the_cached_digest(self):
        h = SatelliteHistory(44713)
        h.add(element(day=1))
        before = h.digest
        assert h.add(element(day=2))
        assert h.digest != before
        assert h.digest == history_digest(tuple(h))

    def test_duplicate_add_keeps_the_cached_digest(self):
        h = SatelliteHistory(44713)
        h.add(element(day=1))
        before = h.digest
        assert not h.add(element(day=1, mean_motion=15.99))
        assert h.digest is before
