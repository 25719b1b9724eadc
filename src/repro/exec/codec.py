"""Exact JSON round-trip for stage outcomes.

The persistent stage cache (``DataStore`` ``stage_cache/`` entries)
stores one :class:`~repro.exec.base.SatelliteOutcome` per file.  The
encoding must be *exact*: a cache hit has to equal the recompute
byte-for-byte, so elements are serialized field-by-field (``json``
round-trips finite floats via ``repr`` exactly) rather than through the
fixed-precision TLE text format, which would quantize them.

Decoding is strict — anything structurally off raises (``KeyError`` /
``TypeError`` / ``ValueError`` / a ``ReproError``), and the caller
treats the entry as corrupt (quarantine + cache miss).
"""

from __future__ import annotations

import json
from typing import Any

from repro.core.cleaning import CleanedHistory, CleaningReport
from repro.core.decay import DecayAssessment, DecayState
from repro.core.relations import TrajectoryEvent, TrajectoryEventKind
from repro.exec.base import SatelliteOutcome
from repro.time import Epoch
from repro.tle.elements import MeanElements

#: Bumped whenever the encoding changes shape; readers reject other
#: versions (a stale entry is just a cache miss, never a crash).
CODEC_VERSION = 1

_ELEMENT_FIELDS = (
    "catalog_number",
    "inclination_deg",
    "raan_deg",
    "eccentricity",
    "argp_deg",
    "mean_anomaly_deg",
    "mean_motion_rev_day",
    "bstar",
    "ndot_over_2",
    "nddot_over_6",
    "classification",
    "intl_designator",
    "element_number",
    "rev_number",
    "ephemeris_type",
)


def _element_to_jsonable(element: MeanElements) -> dict[str, Any]:
    payload = {name: getattr(element, name) for name in _ELEMENT_FIELDS}
    payload["epoch_jd"] = element.epoch.jd
    return payload


def _element_from_jsonable(payload: dict[str, Any]) -> MeanElements:
    kwargs = {name: payload[name] for name in _ELEMENT_FIELDS}
    return MeanElements(epoch=Epoch(payload["epoch_jd"]), **kwargs)


def _report_to_jsonable(report: CleaningReport) -> list[int]:
    return [report.total_records, report.gross_errors, report.orbit_raising, report.kept]


def _report_from_jsonable(payload: list[int]) -> CleaningReport:
    total, gross, raising, kept = payload
    return CleaningReport(int(total), int(gross), int(raising), int(kept))


def _cleaned_to_jsonable(cleaned: CleanedHistory) -> dict[str, Any]:
    return {
        "catalog_number": cleaned.catalog_number,
        "elements": [_element_to_jsonable(e) for e in cleaned.elements],
        "operational_from_jd": (
            cleaned.operational_from.jd if cleaned.operational_from else None
        ),
        "report": _report_to_jsonable(cleaned.report),
    }


def _cleaned_from_jsonable(payload: dict[str, Any]) -> CleanedHistory:
    operational_jd = payload["operational_from_jd"]
    return CleanedHistory(
        catalog_number=int(payload["catalog_number"]),
        elements=tuple(_element_from_jsonable(e) for e in payload["elements"]),
        operational_from=Epoch(operational_jd) if operational_jd is not None else None,
        report=_report_from_jsonable(payload["report"]),
    )


def _event_to_jsonable(event: TrajectoryEvent) -> dict[str, Any]:
    return {
        "catalog_number": event.catalog_number,
        "kind": event.kind.value,
        "epoch_jd": event.epoch.jd,
        "magnitude": event.magnitude,
    }


def _event_from_jsonable(payload: dict[str, Any]) -> TrajectoryEvent:
    return TrajectoryEvent(
        catalog_number=int(payload["catalog_number"]),
        kind=TrajectoryEventKind(payload["kind"]),
        epoch=Epoch(payload["epoch_jd"]),
        magnitude=float(payload["magnitude"]),
    )


def _assessment_to_jsonable(assessment: DecayAssessment) -> dict[str, Any]:
    return {
        "catalog_number": assessment.catalog_number,
        "state": assessment.state.value,
        "long_term_median_km": assessment.long_term_median_km,
        "final_altitude_km": assessment.final_altitude_km,
        "final_deficit_km": assessment.final_deficit_km,
        "decay_onset_jd": assessment.decay_onset.jd if assessment.decay_onset else None,
    }


def _assessment_from_jsonable(payload: dict[str, Any]) -> DecayAssessment:
    onset_jd = payload["decay_onset_jd"]
    return DecayAssessment(
        catalog_number=int(payload["catalog_number"]),
        state=DecayState(payload["state"]),
        long_term_median_km=float(payload["long_term_median_km"]),
        final_altitude_km=float(payload["final_altitude_km"]),
        final_deficit_km=float(payload["final_deficit_km"]),
        decay_onset=Epoch(onset_jd) if onset_jd is not None else None,
    )


def encode_outcome(outcome: SatelliteOutcome) -> str:
    """Serialize a (successful) outcome to canonical JSON text."""
    payload = {
        "version": CODEC_VERSION,
        "catalog_number": outcome.catalog_number,
        "cleaned": _cleaned_to_jsonable(outcome.cleaned) if outcome.cleaned else None,
        "events": [_event_to_jsonable(e) for e in outcome.events],
        "assessment": (
            _assessment_to_jsonable(outcome.assessment) if outcome.assessment else None
        ),
        "report": _report_to_jsonable(outcome.report) if outcome.report else None,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def decode_outcome(text: str) -> SatelliteOutcome:
    """Parse an outcome back; raises on any structural mismatch."""
    payload = json.loads(text)
    if not isinstance(payload, dict) or payload.get("version") != CODEC_VERSION:
        raise ValueError(
            f"unsupported stage-cache entry version: {payload!r:.80}"
        )
    cleaned = payload["cleaned"]
    assessment = payload["assessment"]
    report = payload["report"]
    return SatelliteOutcome(
        catalog_number=int(payload["catalog_number"]),
        cleaned=_cleaned_from_jsonable(cleaned) if cleaned is not None else None,
        events=tuple(_event_from_jsonable(e) for e in payload["events"]),
        assessment=(
            _assessment_from_jsonable(assessment) if assessment is not None else None
        ),
        report=_report_from_jsonable(report) if report is not None else None,
    )
