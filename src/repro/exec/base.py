"""Execution-layer value types: the fleet stage's tasks and outcomes.

The fleet stage of the pipeline (clean → detect → assess, once per
satellite) treats each satellite in isolation: satellites share no
state until the association step.  This module defines the unit of
work (:class:`SatelliteTask`) and the unit of result
(:class:`SatelliteOutcome`).  Outcomes carry failures as *strings*,
never live exception objects, so they can be cached and compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.core.cleaning import CleanedHistory, CleaningReport
    from repro.core.decay import DecayAssessment
    from repro.core.relations import TrajectoryEvent
    from repro.tle.elements import MeanElements


@dataclass(frozen=True, slots=True)
class SatelliteTask:
    """One satellite's raw history, packaged for the fleet stage.

    ``digest`` is the stable content hash of the element sets (see
    :func:`repro.exec.digests.history_digest`); together with the config
    digest it keys the stage-memoization cache.
    """

    catalog_number: int
    #: Epoch-ordered raw element sets (pre-cleaning).
    elements: tuple["MeanElements", ...]
    #: Content digest of *elements* (memoization key half).
    digest: str

    @property
    def record_count(self) -> int:
        """Raw record count (the ``records`` span attribute)."""
        return len(self.elements)


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
    #: True when this outcome was served from the stage cache.
    from_cache: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


#: Span name for one per-satellite stage unit.
SATELLITE_SPAN = "satellite"


def outcome_span_attrs(
    task: SatelliteTask, outcome: SatelliteOutcome
) -> dict[str, Any]:
    """The canonical span attributes for one executed satellite.

    Catalog number, record count, ``cache="miss"`` (cache hits never
    run the stage; the pipeline spans those with ``cache="hit"``), and
    — on failure — the quarantine stage and reason.
    """
    attrs: dict[str, Any] = {
        "catalog_number": task.catalog_number,
        "records": task.record_count,
        "cache": "miss",
    }
    if outcome.error is not None:
        attrs["quarantined"] = True
        attrs["error_stage"] = outcome.error_stage
        attrs["reason"] = outcome.error
    return attrs

