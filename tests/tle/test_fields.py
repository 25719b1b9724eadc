"""Unit tests for TLE field encodings."""

import pytest

from repro.errors import TLEFieldError, TLEFormatError
from repro.tle.fields import (
    append_checksum,
    checksum,
    decode_alpha5,
    encode_alpha5,
    format_implied_decimal,
    parse_assumed_point_fraction,
    parse_implied_decimal,
    verify_checksum,
)

LINE1 = "1 25544U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  2927"


class TestChecksum:
    def test_known_line(self):
        assert checksum(LINE1) == 7
        assert verify_checksum(LINE1)

    def test_minus_counts_as_one(self):
        assert checksum("-" * 68) == 68 % 10

    def test_letters_count_zero(self):
        assert checksum("A" * 68) == 0

    def test_verify_rejects_short_line(self):
        assert not verify_checksum("1 25544U")

    def test_verify_rejects_wrong_digit(self):
        assert not verify_checksum(LINE1[:-1] + "0")

    def test_append_checksum(self):
        assert append_checksum(LINE1[:68]) == LINE1

    def test_append_rejects_wrong_length(self):
        with pytest.raises(TLEFormatError):
            append_checksum("short")


class TestAlpha5:
    def test_plain_digits(self):
        assert decode_alpha5("25544") == 25544
        assert decode_alpha5("    5") == 5

    def test_letter_prefix(self):
        # A=10: "A0000" -> 100000.
        assert decode_alpha5("A0000") == 100000
        assert decode_alpha5("Z9999") == 339999

    def test_skips_i_and_o(self):
        # J follows H directly (I skipped): J0000 -> 180000.
        assert decode_alpha5("J0000") == 180000
        with pytest.raises(TLEFieldError):
            decode_alpha5("I0000")
        with pytest.raises(TLEFieldError):
            decode_alpha5("O0000")

    def test_encode_round_trip(self):
        for number in (0, 7, 99999, 100000, 123456, 339999):
            assert decode_alpha5(encode_alpha5(number)) == number

    def test_encode_width_is_five(self):
        assert len(encode_alpha5(7)) == 5
        assert len(encode_alpha5(123456)) == 5

    def test_encode_rejects_out_of_range(self):
        with pytest.raises(TLEFieldError):
            encode_alpha5(340000)
        with pytest.raises(TLEFieldError):
            encode_alpha5(-1)

    def test_decode_rejects_garbage(self):
        with pytest.raises(TLEFieldError):
            decode_alpha5("")
        with pytest.raises(TLEFieldError):
            decode_alpha5("A12")


class TestImpliedDecimal:
    def test_positive(self):
        assert parse_implied_decimal(" 13844-3") == pytest.approx(0.13844e-3)

    def test_negative_mantissa(self):
        assert parse_implied_decimal("-11606-4") == pytest.approx(-0.11606e-4)

    def test_zero_forms(self):
        assert parse_implied_decimal(" 00000-0") == 0.0
        assert parse_implied_decimal(" 00000+0") == 0.0
        assert parse_implied_decimal("        ") == 0.0

    def test_positive_exponent(self):
        assert parse_implied_decimal(" 12345+2") == pytest.approx(0.12345e2)

    def test_rejects_garbage(self):
        with pytest.raises(TLEFieldError):
            parse_implied_decimal("1a2b3-4")
        with pytest.raises(TLEFieldError):
            parse_implied_decimal(" 00000+Y")  # a letter as the exponent digit

    @pytest.mark.parametrize(
        "value", [6.6816e-05, -1.1606e-05, 0.0, 1.0e-9, 0.99999, -3.2e-4]
    )
    def test_format_round_trip(self, value):
        parsed = parse_implied_decimal(format_implied_decimal(value))
        assert parsed == pytest.approx(value, rel=1e-4, abs=1e-12)

    def test_format_width_is_eight(self):
        assert len(format_implied_decimal(6.68e-5)) == 8
        assert len(format_implied_decimal(0.0)) == 8
        assert len(format_implied_decimal(-6.68e-5)) == 8


class TestAssumedPointFraction:
    def test_eccentricity_field(self):
        assert parse_assumed_point_fraction("0086731") == pytest.approx(0.0086731)

    def test_zero(self):
        assert parse_assumed_point_fraction("0000000") == 0.0

    def test_rejects_non_digits(self):
        with pytest.raises(TLEFieldError):
            parse_assumed_point_fraction("00.8673")
