"""TLE field-level encodings: checksums, alpha-5 catalog numbers, and
the "assumed decimal point" exponent notation.

These are the low-level quirks of the 1970s-era format; keeping them in
one module means the parser and formatter stay readable.
"""

from __future__ import annotations

from repro.errors import TLEFieldError, TLEFormatError

#: Alpha-5 letters: I and O are excluded to avoid confusion with 1 and 0.
_ALPHA5_LETTERS = "ABCDEFGHJKLMNPQRSTUVWXYZ"
_ALPHA5_VALUES = {letter: 10 + i for i, letter in enumerate(_ALPHA5_LETTERS)}
_ALPHA5_REVERSE = {v: k for k, v in _ALPHA5_VALUES.items()}

TLE_LINE_LENGTH = 69

#: Checksum weight of every byte value: ASCII ``0``-``9`` add their
#: value, ``-`` adds 1, every other byte (all of UTF-8's multi-byte
#: sequences included) adds 0.
_CHECKSUM_WEIGHTS = bytes(
    byte - 48 if 48 <= byte <= 57 else 1 if byte == 45 else 0 for byte in range(256)
)


def checksum(line: str) -> int:
    """Modulo-10 checksum of the first 68 columns of a TLE line.

    ASCII digits add their value; a minus sign adds 1; everything else
    (other Unicode digits included) adds 0.
    """
    body = line[:68].encode("utf-8", "surrogatepass")
    return sum(body.translate(_CHECKSUM_WEIGHTS)) % 10


def verify_checksum(line: str) -> bool:
    """True when the line's final column is the ASCII digit of its checksum."""
    if len(line) < TLE_LINE_LENGTH or line[68] not in "0123456789":
        return False
    return ord(line[68]) - 48 == checksum(line)


def append_checksum(line68: str) -> str:
    """Append the checksum digit to a 68-column line body."""
    if len(line68) != 68:
        raise TLEFormatError(f"line body must be 68 columns, got {len(line68)}")
    return line68 + str(checksum(line68))


def decode_alpha5(field: str) -> int:
    """Decode a 5-character catalog number field (alpha-5 scheme).

    Plain digits cover 0-99999; a leading letter (A=10 … Z=33, skipping
    I and O) extends the range to 339999.
    """
    field = field.strip()
    if not field:
        raise TLEFieldError("empty catalog number field")
    head = field[0]
    if head.isdigit():
        try:
            return int(field)
        except ValueError as exc:
            raise TLEFieldError(f"bad catalog number: {field!r}") from exc
    if head.upper() not in _ALPHA5_VALUES:
        raise TLEFieldError(f"bad alpha-5 leading character: {field!r}")
    tail = field[1:]
    if not tail.isdigit() or len(tail) != 4:
        raise TLEFieldError(f"bad alpha-5 catalog number: {field!r}")
    return _ALPHA5_VALUES[head.upper()] * 10000 + int(tail)


def encode_alpha5(catalog_number: int) -> str:
    """Encode a catalog number into the 5-character alpha-5 field."""
    if catalog_number < 0:
        raise TLEFieldError(f"catalog number must be non-negative: {catalog_number}")
    if catalog_number <= 99999:
        return f"{catalog_number:5d}"
    head, tail = divmod(catalog_number, 10000)
    if head not in _ALPHA5_REVERSE:
        raise TLEFieldError(f"catalog number too large for alpha-5: {catalog_number}")
    return f"{_ALPHA5_REVERSE[head]}{tail:04d}"


def parse_implied_decimal(field: str) -> float:
    """Parse the TLE "assumed decimal point" notation.

    ``' 12345-4'`` means ``0.12345e-4``; a leading sign applies to the
    mantissa.  An all-blank or all-zero field is 0.
    """
    field = field.strip()
    if not field or field in {"00000-0", "00000+0", "0"}:
        return 0.0
    sign = 1.0
    if field[0] in "+-":
        if field[0] == "-":
            sign = -1.0
        field = field[1:]
    # Exponent is the trailing signed digit.
    if len(field) >= 2 and field[-2] in "+-":
        mantissa_text, exp_text = field[:-2], field[-2:]
    else:
        mantissa_text, exp_text = field, "+0"
    if not mantissa_text.isdigit() or exp_text[1] not in "0123456789":
        raise TLEFieldError(f"bad implied-decimal field: {field!r}")
    mantissa = int(mantissa_text) / (10 ** len(mantissa_text))
    return sign * mantissa * 10 ** int(exp_text)


def format_implied_decimal(value: float) -> str:
    """Format a float into the 8-column assumed-decimal-point field."""
    if value == 0.0:
        return " 00000+0"
    sign = "-" if value < 0 else " "
    magnitude = abs(value)
    exponent = 0
    # Normalize the mantissa into [0.1, 1).
    while magnitude >= 1.0:
        magnitude /= 10.0
        exponent += 1
    while magnitude < 0.1:
        magnitude *= 10.0
        exponent -= 1
    mantissa = round(magnitude * 100000)
    if mantissa >= 100000:  # rounding carried, e.g. 0.999999
        mantissa = 10000
        exponent += 1
    if exponent < -9:
        # Below the field's resolution: underflows to zero, matching
        # how real TLE producers emit negligible drag terms.
        return " 00000+0"
    if exponent > 9:
        raise TLEFieldError(f"value out of implied-decimal range: {value}")
    exp_sign = "-" if exponent < 0 else "+"
    return f"{sign}{mantissa:05d}{exp_sign}{abs(exponent)}"


def parse_assumed_point_fraction(field: str) -> float:
    """Parse a 7-digit field with an assumed leading ``0.`` (eccentricity)."""
    field = field.strip()
    if not field.isdigit():
        raise TLEFieldError(f"bad assumed-point fraction: {field!r}")
    return int(field) / 10 ** len(field)
