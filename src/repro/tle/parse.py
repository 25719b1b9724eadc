"""TLE parsing.

``parse_tle`` is strict: exact column layout, verified checksums,
physical field domains.  ``parse_tle_file`` is the lenient bulk path
the ingest layer uses on real-world dumps: it skips name lines, tracks
malformed records, and never aborts the whole file because of one bad
entry (the paper's dataset contains gross tracking errors by design).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import ReproError, TLEChecksumError, TLEFieldError, TLEFormatError
from repro.time import Epoch
from repro.tle.elements import MeanElements
from repro.tle.fields import (
    TLE_LINE_LENGTH,
    decode_alpha5,
    parse_assumed_point_fraction,
    parse_implied_decimal,
    verify_checksum,
)


def _float_field(text: str, description: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise TLEFieldError(f"bad {description}: {text!r}") from exc


def _int_field(text: str, description: str) -> int:
    text = text.strip()
    if not text:
        return 0
    try:
        return int(text)
    except ValueError as exc:
        raise TLEFieldError(f"bad {description}: {text!r}") from exc


def _parse_ndot(text: str) -> float:
    """First derivative field: a signed fraction like ``-.00002182``."""
    text = text.strip()
    if not text:
        return 0.0
    sign = 1.0
    if text[0] in "+-":
        if text[0] == "-":
            sign = -1.0
        text = text[1:]
    if text.startswith("."):
        text = "0" + text
    return sign * _float_field(text, "mean motion first derivative")


def parse_tle(line1: str, line2: str, *, verify: bool = True) -> MeanElements:
    """Parse one TLE (two 69-column lines) into :class:`MeanElements`.

    With ``verify=True`` (default) both checksums must match, matching
    CSpOC distribution rules; disable only for synthetic test vectors.
    """
    line1 = line1.rstrip("\n")
    line2 = line2.rstrip("\n")
    # Python's int()/float() and str.isdigit() accept non-ASCII digits
    # ("٥", "²"); the format has none, so such a line is malformed.
    if not line1.isascii():
        raise TLEFormatError(f"line 1 is not ASCII: {line1!r}")
    if not line2.isascii():
        raise TLEFormatError(f"line 2 is not ASCII: {line2!r}")
    if len(line1) < TLE_LINE_LENGTH:
        raise TLEFormatError(f"line 1 too short ({len(line1)} cols)")
    if len(line2) < TLE_LINE_LENGTH:
        raise TLEFormatError(f"line 2 too short ({len(line2)} cols)")
    if line1[0] != "1":
        raise TLEFormatError(f"line 1 must start with '1': {line1[:8]!r}")
    if line2[0] != "2":
        raise TLEFormatError(f"line 2 must start with '2': {line2[:8]!r}")
    if verify:
        if not verify_checksum(line1):
            raise TLEChecksumError(f"line 1 checksum mismatch: {line1!r}")
        if not verify_checksum(line2):
            raise TLEChecksumError(f"line 2 checksum mismatch: {line2!r}")

    catalog1 = decode_alpha5(line1[2:7])
    catalog2 = decode_alpha5(line2[2:7])
    if catalog1 != catalog2:
        raise TLEFormatError(
            f"catalog number mismatch between lines: {catalog1} vs {catalog2}"
        )

    epoch_year = _int_field(line1[18:20], "epoch year")
    epoch_day = _float_field(line1[20:32], "epoch day")

    return MeanElements(
        catalog_number=catalog1,
        classification=line1[7],
        intl_designator=line1[9:17].strip(),
        epoch=Epoch.from_tle_epoch(epoch_year, epoch_day),
        ndot_over_2=_parse_ndot(line1[33:43]),
        nddot_over_6=parse_implied_decimal(line1[44:52]),
        bstar=parse_implied_decimal(line1[53:61]),
        ephemeris_type=_int_field(line1[62:63], "ephemeris type"),
        element_number=_int_field(line1[64:68], "element number"),
        inclination_deg=_float_field(line2[8:16], "inclination"),
        raan_deg=_float_field(line2[17:25], "RAAN"),
        eccentricity=parse_assumed_point_fraction(line2[26:33]),
        argp_deg=_float_field(line2[34:42], "argument of perigee"),
        mean_anomaly_deg=_float_field(line2[43:51], "mean anomaly"),
        mean_motion_rev_day=_float_field(line2[52:63], "mean motion"),
        rev_number=_int_field(line2[63:68], "revolution number"),
    )


@dataclass(slots=True)
class ParseReport:
    """Outcome of a lenient bulk parse."""

    elements: list[MeanElements] = field(default_factory=list)
    errors: list[tuple[int, str]] = field(default_factory=list)

    @property
    def parsed_count(self) -> int:
        return len(self.elements)

    @property
    def error_count(self) -> int:
        return len(self.errors)


def parse_tle_file(lines: Iterable[str], *, verify: bool = True) -> ParseReport:
    """Leniently parse a TLE dump (optionally with satellite name lines).

    Any record that fails to parse is recorded in ``report.errors`` with
    its line number; parsing continues with the next record.
    """
    report = ParseReport()
    pending: tuple[int, str] | None = None
    for line_number, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        width = len(line.strip())
        if not width:
            continue
        lead = line[0]
        if lead == "1" and width > 24:
            if pending is not None:
                # Two line 1s in a row: at least one line 2 went missing,
                # and a line 2 arriving later cannot be attributed to
                # either epoch safely (line 2 carries no epoch, so a
                # wrong pairing would silently fabricate a record).
                # Refuse to pair: enumerate BOTH orphans and resync.
                report.errors.append(
                    (
                        pending[0],
                        "line 1 without matching line 2 "
                        f"(displaced by line 1 at line {line_number})",
                    )
                )
                report.errors.append(
                    (
                        line_number,
                        "line 1 discarded: follows unpaired line 1 "
                        f"at line {pending[0]}",
                    )
                )
                pending = None
                continue
            pending = (line_number, line)
        elif lead == "2" and width > 24:
            if pending is None:
                report.errors.append((line_number, "line 2 without preceding line 1"))
                continue
            try:
                report.elements.append(parse_tle(pending[1], line, verify=verify))
            except ReproError as exc:
                report.errors.append((pending[0], str(exc)))
            pending = None
        else:
            # Satellite name line (3LE format) or junk: skip.
            continue
    if pending is not None:
        report.errors.append((pending[0], "line 1 without matching line 2"))
    return report
