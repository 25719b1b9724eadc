"""Property-based tests for TLE *line* invariants.

Where ``test_tle_roundtrip`` checks that formatting inverts parsing,
these pin the line-format contract itself: the mod-10 checksum detects
every single-digit corruption, field widths and separator columns never
drift with the values, and the alpha-5 / implied-decimal field codecs
round-trip across their whole documented ranges.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tle import format_tle, parse_tle
from repro.tle.fields import (
    TLE_LINE_LENGTH,
    checksum,
    decode_alpha5,
    encode_alpha5,
    format_implied_decimal,
    parse_implied_decimal,
    verify_checksum,
)

from tests.properties.test_tle_roundtrip import element_sets

def checksum_oracle(line: str) -> int:
    """The per-character checksum loop, counting ASCII digits only."""
    total = 0
    for char in line[:68]:
        if char in "0123456789":
            total += ord(char) - ord("0")
        elif char == "-":
            total += 1
    return total % 10


def verify_checksum_oracle(line: str) -> bool:
    return (
        len(line) >= TLE_LINE_LENGTH
        and line[68] in "0123456789"
        and ord(line[68]) - ord("0") == checksum_oracle(line)
    )


#: Any code point, surrogates included, so every UTF-8 byte pattern
#: reaches the byte-weight table.
ANY_CHAR = st.characters(exclude_categories=())
#: TLE-ish columns plus characters Python calls digits that are not ASCII.
LINE_CHAR = st.sampled_from("0123456789-+. UABCXYZ²³¹٥٠۹०߁𝟘")

#: Column index of every mandatory separator blank in each line body
#: (0-based; the spec fixes these regardless of field values).
LINE1_BLANKS = (1, 8, 17, 32, 43, 52, 61, 63)
LINE2_BLANKS = (1, 7, 16, 25, 33, 42, 51)


class TestChecksumInvariance:
    @given(element_sets(), st.data())
    @settings(max_examples=300)
    def test_any_digit_corruption_breaks_the_checksum(self, elements, data):
        line = data.draw(st.sampled_from(format_tle(elements)), label="line")
        digit_columns = [i for i in range(68) if line[i].isdigit()]
        column = data.draw(st.sampled_from(digit_columns), label="column")
        replacement = data.draw(
            st.sampled_from("0123456789".replace(line[column], "")),
            label="replacement",
        )
        corrupted = line[:column] + replacement + line[column + 1 :]
        assert verify_checksum(line)
        assert not verify_checksum(corrupted)

    @given(element_sets())
    @settings(max_examples=150)
    def test_checksum_ignores_non_digit_non_minus_columns(self, elements):
        line1, _ = format_tle(elements)
        # Blank out the international designator (cols 9-16, letters and
        # digits allowed there contribute 0 unless they are digits): a
        # pure-letter replacement must leave the checksum unchanged.
        lettered = line1[:9] + "ABCDEFGH" + line1[17:]
        assert checksum(lettered) == checksum(
            line1[:9] + "JKLMNPQR" + line1[17:]
        )

    @given(element_sets())
    @settings(max_examples=150)
    def test_truncated_lines_never_verify(self, elements):
        line1, line2 = format_tle(elements)
        for line in (line1, line2):
            assert not verify_checksum(line[:68])
            assert not verify_checksum(line[:40])


class TestChecksumOracle:
    """The byte-weight table against the per-character loop."""

    @given(st.text(ANY_CHAR, max_size=90))
    @settings(max_examples=500)
    def test_table_matches_the_loop_on_any_text(self, text):
        assert checksum(text) == checksum_oracle(text)
        assert verify_checksum(text) == verify_checksum_oracle(text)

    @given(st.text(LINE_CHAR, min_size=60, max_size=75))
    @settings(max_examples=500)
    def test_table_matches_the_loop_on_line_like_text(self, text):
        assert checksum(text) == checksum_oracle(text)
        assert verify_checksum(text) == verify_checksum_oracle(text)

    @given(element_sets())
    @settings(max_examples=150)
    def test_table_matches_the_loop_on_formatted_lines(self, elements):
        for line in format_tle(elements):
            assert checksum(line) == checksum_oracle(line) == int(line[68])

    @pytest.mark.parametrize("char", ["²", "٥", "𝟗", "½"])
    def test_unicode_digits_add_nothing_and_never_verify(self, char):
        line = "1" + char * 67
        assert checksum(line) == 1
        assert not verify_checksum(line + char)


class TestFieldWidths:
    @given(element_sets())
    @settings(max_examples=300)
    def test_lines_are_exactly_69_columns(self, elements):
        line1, line2 = format_tle(elements)
        assert len(line1) == len(line2) == TLE_LINE_LENGTH
        assert line1[0] == "1" and line2[0] == "2"

    @given(element_sets())
    @settings(max_examples=300)
    def test_separator_columns_stay_blank(self, elements):
        line1, line2 = format_tle(elements)
        for column in LINE1_BLANKS:
            assert line1[column] == " ", (column, line1)
        for column in LINE2_BLANKS:
            assert line2[column] == " ", (column, line2)

    @given(element_sets())
    @settings(max_examples=200)
    def test_catalog_field_matches_between_lines(self, elements):
        line1, line2 = format_tle(elements)
        assert line1[2:7] == line2[2:7] == encode_alpha5(elements.catalog_number)

    @given(element_sets())
    @settings(max_examples=200)
    def test_reformatting_parsed_lines_preserves_widths(self, elements):
        # Width preservation through a full round trip: no field may
        # grow or shift even for extreme in-range values.  Compare the
        # column layout, not the text: a sign column may legitimately
        # flip between '-', '+', and blank (e.g. -0.0 round-trips to an
        # unsigned zero) without any field moving.
        def layout(line):
            return "".join(
                "d" if c.isdigit() else "s" if c in " +-" else c
                for c in line
            )

        first = format_tle(elements)
        second = format_tle(parse_tle(*first))
        assert [layout(line) for line in first] == [
            layout(line) for line in second
        ]


class TestFieldCodecs:
    @given(st.integers(0, 339999))
    @settings(max_examples=300)
    def test_alpha5_round_trip(self, catalog_number):
        field = encode_alpha5(catalog_number)
        assert len(field) == 5
        assert decode_alpha5(field) == catalog_number

    @given(st.floats(-0.5, 0.5, allow_nan=False))
    @settings(max_examples=300)
    def test_implied_decimal_round_trip(self, value):
        field = format_implied_decimal(value)
        assert len(field) == 8
        parsed = parse_implied_decimal(field)
        if abs(value) < 1e-10:
            assert parsed == 0.0
        else:
            assert abs(parsed - value) <= max(1e-10, abs(value) * 1e-4)
