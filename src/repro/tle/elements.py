"""The :class:`MeanElements` record: one parsed TLE.

This is the central value type of the measurement pipeline: every TLE
observation becomes one ``MeanElements`` carrying the six Keplerian
elements, the drag terms, and identification metadata, plus the derived
quantities the paper analyzes (altitude from mean motion, period).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import get_type_hints

from repro.errors import TLEFieldError
from repro.orbits.conversions import (
    altitude_from_mean_motion,
    orbital_period_minutes,
    sma_from_mean_motion,
)
from repro.time import Epoch


@dataclass(frozen=True, slots=True)
class MeanElements:
    """Mean orbital elements and metadata from one TLE record."""

    #: NORAD catalog number (unique per tracked object).
    catalog_number: int
    #: Epoch of the element set.
    epoch: Epoch
    #: Orbit inclination [deg].
    inclination_deg: float
    #: Right ascension of the ascending node [deg].
    raan_deg: float
    #: Orbit eccentricity (dimensionless, 0 <= e < 1).
    eccentricity: float
    #: Argument of perigee [deg].
    argp_deg: float
    #: Mean anomaly at epoch [deg].
    mean_anomaly_deg: float
    #: Mean motion [rev/day].
    mean_motion_rev_day: float
    #: B* drag term [1/earth-radii]; the paper's "atmospheric drag".
    bstar: float = 0.0
    #: First time-derivative of mean motion / 2 [rev/day^2].
    ndot_over_2: float = 0.0
    #: Second time-derivative of mean motion / 6 [rev/day^3].
    nddot_over_6: float = 0.0
    #: Security classification character.
    classification: str = "U"
    #: International designator (launch year/number/piece), e.g. "19074A".
    intl_designator: str = ""
    #: Element set number.
    element_number: int = 0
    #: Revolution count at epoch.
    rev_number: int = 0
    #: Ephemeris type column (0 for distributed TLEs).
    ephemeris_type: int = 0

    def __post_init__(self) -> None:
        if self.catalog_number < 0:
            raise TLEFieldError(f"negative catalog number: {self.catalog_number}")
        if not 0.0 <= self.eccentricity < 1.0:
            raise TLEFieldError(f"eccentricity out of range: {self.eccentricity}")
        if not 0.0 <= self.inclination_deg <= 180.0:
            raise TLEFieldError(f"inclination out of range: {self.inclination_deg}")
        if self.mean_motion_rev_day <= 0.0:
            raise TLEFieldError(
                f"mean motion must be positive: {self.mean_motion_rev_day}"
            )
        # Spelled out rather than looped over FLOAT_FIELDS: this runs for
        # every parsed record (a test holds it to every float field).
        isfinite = math.isfinite
        if not (
            isfinite(self.inclination_deg)
            and isfinite(self.raan_deg)
            and isfinite(self.eccentricity)
            and isfinite(self.argp_deg)
            and isfinite(self.mean_anomaly_deg)
            and isfinite(self.mean_motion_rev_day)
            and isfinite(self.bstar)
            and isfinite(self.ndot_over_2)
            and isfinite(self.nddot_over_6)
        ):
            name = next(n for n in FLOAT_FIELDS if not isfinite(getattr(self, n)))
            raise TLEFieldError(f"{name} must be finite: {getattr(self, name)}")

    # --- derived quantities (the paper's measured variables) --------------
    @property
    def altitude_km(self) -> float:
        """Mean altitude [km] derived from mean motion (the paper's metric)."""
        return altitude_from_mean_motion(self.mean_motion_rev_day)

    @property
    def sma_km(self) -> float:
        """Semi-major axis [km]."""
        return sma_from_mean_motion(self.mean_motion_rev_day)

    @property
    def period_minutes(self) -> float:
        """Orbital period [min]."""
        return orbital_period_minutes(self.mean_motion_rev_day)

    @property
    def perigee_altitude_km(self) -> float:
        """Perigee height above the equatorial radius [km]."""
        from repro.constants import EARTH_RADIUS_KM

        return self.sma_km * (1.0 - self.eccentricity) - EARTH_RADIUS_KM

    @property
    def apogee_altitude_km(self) -> float:
        """Apogee height above the equatorial radius [km]."""
        from repro.constants import EARTH_RADIUS_KM

        return self.sma_km * (1.0 + self.eccentricity) - EARTH_RADIUS_KM

    def with_epoch(self, epoch: Epoch) -> "MeanElements":
        """Copy with a different epoch."""
        return replace(self, epoch=epoch)

    def with_mean_motion(self, mean_motion_rev_day: float) -> "MeanElements":
        """Copy with a different mean motion."""
        return replace(self, mean_motion_rev_day=mean_motion_rev_day)

    def with_bstar(self, bstar: float) -> "MeanElements":
        """Copy with a different B* drag term."""
        return replace(self, bstar=bstar)


#: The float fields in declaration order; every one must be finite.
FLOAT_FIELDS: tuple[str, ...] = tuple(
    name for name, hint in get_type_hints(MeanElements).items() if hint is float
)
