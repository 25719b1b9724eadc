"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers embedding the pipeline can catch one base class.  Substrate
packages define narrower subclasses here (rather than locally) so the
full hierarchy is visible in one place.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class TimeError(ReproError):
    """Invalid or unrepresentable epoch/time value."""


class TimeSeriesError(ReproError):
    """Structural problem in a time series (ordering, shape, emptiness)."""


class TLEError(ReproError):
    """Base class for Two-Line Element set problems."""


class TLEFormatError(TLEError):
    """A TLE line does not have the required layout."""


class TLEChecksumError(TLEError):
    """A TLE line fails its modulo-10 checksum."""


class TLEFieldError(TLEError):
    """A TLE field holds a value outside its physical domain."""


class PropagationError(ReproError):
    """SGP4 propagation failed (decayed orbit, non-convergence, ...)."""


class SpaceWeatherError(ReproError):
    """Problem with space-weather (Dst) data handling."""


class WDCFormatError(SpaceWeatherError):
    """A WDC Kyoto Dst record cannot be parsed."""


class SimulationError(ReproError):
    """Inconsistent simulation configuration or state."""


class PipelineError(ReproError):
    """CosmicDance pipeline misconfiguration or mis-sequenced calls."""


class IngestError(PipelineError):
    """Data could not be ingested into the pipeline."""


class InputError(IngestError):
    """A public-API input could not be coerced to its parsed form."""


class StreamError(PipelineError):
    """Malformed feed chunk or mis-sequenced streaming-monitor call."""


class ServeError(ReproError):
    """Base class for analysis-service (``repro.serve``) problems."""


class ProtocolError(ServeError):
    """A service request or response violates the wire protocol."""


class OverloadedError(ServeError):
    """The service request queue is full — backpressure; retry later."""


class SessionError(ServeError):
    """Invalid session id or mis-sequenced session operation."""


class RobustnessError(ReproError):
    """Problem in the fault-tolerance layer (retry policies, fault plans)."""


class FaultPlanError(RobustnessError):
    """A fault-injection plan is inconsistent (bad rates, counts, seeds)."""
