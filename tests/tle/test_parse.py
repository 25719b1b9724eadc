"""Unit tests for TLE parsing (strict and lenient)."""

import pytest

from repro.errors import TLEChecksumError, TLEFieldError, TLEFormatError
from repro.tle import parse_tle, parse_tle_file
from repro.tle.fields import append_checksum, verify_checksum
from repro.tle.format import format_tle

from tests.core.helpers import record

ISS_LINE1 = "1 25544U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  2927"
ISS_LINE2 = "2 25544  51.6416 247.4627 0006703 130.5360 325.0288 15.72125391563537"


#: Line-2 fields ``float()`` reads as non-finite: (start, stop, text).
NON_FINITE_LINE2 = [
    pytest.param(17, 25, "     nan", id="raan-nan"),
    pytest.param(17, 25, "     inf", id="raan-inf"),
    pytest.param(52, 63, "   Infinity", id="mean-motion-infinity"),
]


def with_field(line: str, start: int, stop: int, text: str) -> str:
    """*line* with columns ``[start, stop)`` set to *text* and its
    checksum recomputed, so only the field check can reject it."""
    return append_checksum(line[:start] + text + line[stop:68])


class TestStrictParse:
    def test_iss_fields(self):
        el = parse_tle(ISS_LINE1, ISS_LINE2)
        assert el.catalog_number == 25544
        assert el.classification == "U"
        assert el.intl_designator == "98067A"
        assert el.epoch.year == 2008
        assert el.inclination_deg == pytest.approx(51.6416)
        assert el.raan_deg == pytest.approx(247.4627)
        assert el.eccentricity == pytest.approx(0.0006703)
        assert el.argp_deg == pytest.approx(130.5360)
        assert el.mean_anomaly_deg == pytest.approx(325.0288)
        assert el.mean_motion_rev_day == pytest.approx(15.72125391)
        assert el.ndot_over_2 == pytest.approx(-0.00002182)
        assert el.bstar == pytest.approx(-0.11606e-4)
        assert el.element_number == 292
        assert el.rev_number == 56353

    def test_derived_altitude(self):
        el = parse_tle(ISS_LINE1, ISS_LINE2)
        assert el.altitude_km == pytest.approx(347.0, abs=10.0)

    def test_checksum_verified_by_default(self):
        bad = ISS_LINE1[:-1] + "0"
        with pytest.raises(TLEChecksumError):
            parse_tle(bad, ISS_LINE2)

    def test_checksum_can_be_skipped(self):
        bad = ISS_LINE1[:-1] + "0"
        el = parse_tle(bad, ISS_LINE2, verify=False)
        assert el.catalog_number == 25544

    def test_rejects_wrong_line_numbers(self):
        with pytest.raises(TLEFormatError):
            parse_tle(ISS_LINE2, ISS_LINE1)

    def test_rejects_short_lines(self):
        with pytest.raises(TLEFormatError):
            parse_tle("1 25544U", ISS_LINE2)

    def test_rejects_catalog_mismatch(self):
        other = "2 00005  51.6416 247.4627 0006703 130.5360 325.0288 15.7212539156353"
        # Recompute a matching checksum for the altered line.
        from repro.tle.fields import append_checksum

        other = append_checksum(other[:68].ljust(68))
        with pytest.raises(TLEFormatError):
            parse_tle(ISS_LINE1, other)

    def test_rejects_non_ascii_lines(self):
        # float() reads "٥" as 5: a numeric field must not accept it.
        line2 = ISS_LINE2[:8] + "٥" + ISS_LINE2[9:]
        with pytest.raises(TLEFormatError, match="line 2 is not ASCII"):
            parse_tle(ISS_LINE1, line2, verify=False)

    @pytest.mark.parametrize("start, stop, text", NON_FINITE_LINE2)
    def test_rejects_non_finite_fields(self, start, stop, text):
        line2 = with_field(ISS_LINE2, start, stop, text)
        assert verify_checksum(line2)
        with pytest.raises(TLEFieldError, match="must be finite"):
            parse_tle(ISS_LINE1, line2)

    def test_trailing_newline_tolerated(self):
        el = parse_tle(ISS_LINE1 + "\n", ISS_LINE2 + "\n")
        assert el.catalog_number == 25544


class TestLenientFileParse:
    def test_plain_2le(self):
        report = parse_tle_file([ISS_LINE1, ISS_LINE2])
        assert report.parsed_count == 1
        assert report.error_count == 0

    def test_3le_with_name_lines(self):
        report = parse_tle_file(["ISS (ZARYA)", ISS_LINE1, ISS_LINE2])
        assert report.parsed_count == 1

    def test_blank_lines_skipped(self):
        report = parse_tle_file(["", ISS_LINE1, "", ISS_LINE2, ""])
        assert report.parsed_count == 1

    def test_corrupted_record_reported_not_fatal(self):
        bad1 = ISS_LINE1[:-1] + "0"  # checksum break
        report = parse_tle_file([bad1, ISS_LINE2, ISS_LINE1, ISS_LINE2])
        assert report.parsed_count == 1
        assert report.error_count == 1
        assert report.errors[0][0] == 1  # line number of the bad record

    def test_non_digit_exponent_is_ledgered_not_raised(self):
        # A letter in place of the exponent digit adds 0 to the checksum,
        # like the "0" it replaced, so only the field parser can catch it.
        line1, line2 = format_tle(record(1, 0.0, 550.0))
        bad1 = line1.replace(" 00000+0 ", " 00000+Y ")
        assert bad1 != line1 and verify_checksum(bad1)
        report = parse_tle_file([bad1, line2, ISS_LINE1, ISS_LINE2])
        assert report.parsed_count == 1
        assert report.error_count == 1
        assert "implied-decimal" in report.errors[0][1]

    def test_non_ascii_digit_is_ledgered_not_raised(self):
        # "²".isdigit() is true but int("²") raises: a superscript in the
        # checksummed columns used to escape as a bare ValueError.
        line1, line2 = format_tle(record(1, 0.0, 550.0))
        bad1 = line1[:25] + "²" + line1[26:]
        report = parse_tle_file([bad1, line2, ISS_LINE1, ISS_LINE2])
        assert report.parsed_count == 1
        assert report.errors == [(1, report.errors[0][1])]
        assert "not ASCII" in report.errors[0][1]

    @pytest.mark.parametrize("start, stop, text", NON_FINITE_LINE2)
    def test_non_finite_field_is_ledgered_not_parsed(self, start, stop, text):
        line1, line2 = format_tle(record(1, 0.0, 550.0))
        bad2 = with_field(line2, start, stop, text)
        report = parse_tle_file([line1, bad2, ISS_LINE1, ISS_LINE2])
        assert report.parsed_count == 1
        assert report.errors == [(1, report.errors[0][1])]
        assert "must be finite" in report.errors[0][1]

    def test_non_ascii_checksum_digit_is_rejected(self):
        # "٥" (Arabic-Indic five) used to verify as 5.
        line1, line2 = format_tle(record(1, 0.0, 550.0))
        bad1 = line1[:68] + chr(ord("٠") + int(line1[68]))
        report = parse_tle_file([bad1, line2])
        assert report.parsed_count == 0
        assert report.error_count == 1

    def test_orphan_line1(self):
        report = parse_tle_file([ISS_LINE1])
        assert report.parsed_count == 0
        assert report.error_count == 1

    def test_orphan_line2(self):
        report = parse_tle_file([ISS_LINE2])
        assert report.parsed_count == 0
        assert report.error_count == 1

    def test_line1_followed_by_new_line1(self):
        # Ambiguous pairing: the parser must refuse to attach the line 2
        # to either line 1 and must enumerate BOTH orphans.
        report = parse_tle_file([ISS_LINE1, ISS_LINE1, ISS_LINE2])
        assert report.parsed_count == 0
        assert report.error_count == 3
        assert [line for line, _ in report.errors] == [1, 2, 3]

    def test_empty_input(self):
        report = parse_tle_file([])
        assert report.parsed_count == 0
        assert report.error_count == 0


class TestAmbiguousPairingRegression:
    """Regression: interleaved/truncated dumps must never fabricate a
    record by pairing a line 2 with the wrong line 1's epoch."""

    def _two_epochs(self):
        from tests.core.helpers import record
        from repro.tle.format import format_tle

        first = format_tle(record(7, 0.0, 550.0))
        second = format_tle(record(7, 1.0, 550.0))
        return first, second

    def test_interleaved_dump_fabricates_nothing(self):
        # [L1a, L1b, L2a, L2b]: pairing L1b with L2a would attach epoch b
        # to record a's orbital state — checksums pass, so only refusing
        # to pair catches it.
        (l1a, l2a), (l1b, l2b) = self._two_epochs()
        report = parse_tle_file([l1a, l1b, l2a, l2b])
        assert report.parsed_count == 0
        assert report.error_count == 4  # both line 1s + both line 2s

    def test_both_orphans_enumerated_with_line_numbers(self):
        (l1a, _), (l1b, l2b) = self._two_epochs()
        report = parse_tle_file([l1a, l1b, l2b])
        orphan_lines = [line for line, _ in report.errors]
        assert 1 in orphan_lines and 2 in orphan_lines
        messages = [message for _, message in report.errors]
        assert any("without matching line 2" in m for m in messages)
        assert any("follows unpaired line 1" in m for m in messages)

    def test_truncated_dump_recovers_after_resync(self):
        # Record a lost its line 2 entirely; records b and c are intact.
        # a and b are consumed by the ambiguity, c must still parse.
        (l1a, _), (l1b, l2b) = self._two_epochs()
        report = parse_tle_file([l1a, l1b, l2b, ISS_LINE1, ISS_LINE2])
        assert report.parsed_count == 1
        assert report.elements[0].catalog_number == 25544

    def test_truncated_line2_never_inherits_next_record(self):
        # A line 2 truncated below 24 columns is junk, so l1a is still
        # pending when l1b arrives: the parser must not guess which
        # line 1 owns l2b — everything in the ambiguous run is dropped.
        (l1a, l2a), (l1b, l2b) = self._two_epochs()
        report = parse_tle_file([l1a, l2a[:20], l1b, l2b])
        assert report.parsed_count == 0
        assert report.error_count == 3
