"""Execution-layer value type: the fleet stage's per-satellite outcome.

The fleet stage of the pipeline (clean → detect → assess, once per
satellite) treats each satellite in isolation: satellites share no
state until the association step.  Its unit of work is the live
:class:`~repro.tle.catalog.SatelliteHistory`, which owns its content
digest; this module defines the unit of result
(:class:`SatelliteOutcome`).  Outcomes carry failures as *strings*,
never live exception objects, so they can be cached and compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.core.cleaning import CleanedHistory, CleaningReport
    from repro.core.decay import DecayAssessment
    from repro.core.relations import TrajectoryEvent


@dataclass(frozen=True, slots=True)
class SatelliteOutcome:
    """Everything the per-satellite stage produced for one satellite.

    Exactly one of these holds per outcome:

    * success — ``cleaned``/``assessment`` set (``cleaned`` is None when
      the cleaning filters removed every record, which is a valid,
      cacheable result, not a failure);
    * failure — ``error`` holds ``"ExcType: message"`` and
      ``error_stage`` names the sub-stage (``clean``/``detect``/
      ``assess``) that raised; the pipeline quarantines the satellite.
    """

    catalog_number: int
    cleaned: "CleanedHistory | None"
    events: tuple["TrajectoryEvent", ...]
    assessment: "DecayAssessment | None"
    #: Per-satellite cleaning bookkeeping (None only when cleaning
    #: itself failed before producing a report).
    report: "CleaningReport | None"
    #: ``"ExcType: message"`` when the stage failed, else None.
    error: str | None = None
    #: Which sub-stage failed (``clean``/``detect``/``assess``).
    error_stage: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


#: Span name for one per-satellite stage unit.
SATELLITE_SPAN = "satellite"
