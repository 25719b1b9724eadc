"""Real-format TLE fixture: Starlink element sets as distributed.

``tests/fixtures/starlink_1008.tle`` is STARLINK-1008's 3LE record
(name line, line 1, line 2) exactly as published.  It pins the parser,
the formatter and the checksum against real columns rather than lines
this library wrote itself.  STARLINK-1010's line 1 is only available
truncated, so its signed fields are tested on their own.
"""

from pathlib import Path

import pytest

from repro.tle import format_tle, parse_tle, parse_tle_file
from repro.tle.fields import checksum, parse_implied_decimal, verify_checksum
from repro.tle.parse import _parse_ndot

FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "starlink_1008.tle"

#: STARLINK-1010's line 1 as published, truncated after the element number.
STARLINK_1010_LINE1 = (
    "1 44716U 19074D   25112.59326790 -.00012419  00000+0 -81623-3 0  99"
)


@pytest.fixture
def lines():
    name, line1, line2 = FIXTURE.read_text(encoding="ascii").splitlines()
    assert name == "STARLINK-1008"
    return line1, line2


class TestStarlink1008:
    def test_3le_file_parses_to_one_record(self):
        report = parse_tle_file(FIXTURE.read_text(encoding="ascii").splitlines())
        assert report.parsed_count == 1
        assert report.errors == []
        assert report.elements[0].catalog_number == 44714

    def test_fields(self, lines):
        elements = parse_tle(*lines)
        assert elements.intl_designator == "19074B"
        assert elements.epoch.isoformat() == "2025-04-22T14:03:44"
        assert elements.ndot_over_2 == 5.641e-05
        assert elements.nddot_over_6 == 0.0
        assert elements.bstar == pytest.approx(3.9726e-4, rel=1e-12)
        assert elements.element_number == 999
        assert elements.inclination_deg == 53.0538
        assert elements.raan_deg == 188.1053
        assert elements.eccentricity == 0.0001311
        assert elements.argp_deg == 93.0175
        assert elements.mean_anomaly_deg == 267.0964
        assert elements.mean_motion_rev_day == 15.06401971
        assert elements.rev_number == 30035

    def test_format_writes_it_back_byte_for_byte(self, lines):
        assert format_tle(parse_tle(*lines)) == lines

    def test_checksums(self, lines):
        for line in lines:
            assert verify_checksum(line)
            assert checksum(line) == int(line[68])


class TestStarlink1010Fields:
    def test_negative_ndot(self):
        assert STARLINK_1010_LINE1[33:43] == "-.00012419"
        assert _parse_ndot(STARLINK_1010_LINE1[33:43]) == -1.2419e-4

    def test_negative_bstar(self):
        assert STARLINK_1010_LINE1[53:61] == "-81623-3"
        assert parse_implied_decimal(STARLINK_1010_LINE1[53:61]) == -8.1623e-4
