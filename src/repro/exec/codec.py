"""Exact JSON round-trip for stage outcomes.

The persistent stage cache (``DataStore`` ``stage_cache/`` entries)
stores one :class:`~repro.exec.base.SatelliteOutcome` per file.  The
encoding must be *exact*: a cache hit has to equal the recompute
byte-for-byte.  An entry is only ever read back for a history whose
digest is in its key, which proves the live records are the ones the
outcome was computed from — so the cleaned history is stored as the
``[start, stop)`` runs of history positions cleaning kept, and rebuilt
by slicing the live history's own records.  Everything else (events,
assessment, report) is stored as raw values (``json`` round-trips
finite floats via ``repr`` exactly).

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
from repro.tle.catalog import SatelliteHistory
from repro.tle.elements import MeanElements

#: Bumped whenever the encoding changes shape; readers reject other
#: versions (a stale entry is just a cache miss, never a crash).
CODEC_VERSION = 2


def _report_to_jsonable(report: CleaningReport) -> list[int]:
    return [report.total_records, report.gross_errors, report.orbit_raising, report.kept]


def _report_from_jsonable(payload: list[int]) -> CleaningReport:
    total, gross, raising, kept = payload
    return CleaningReport(int(total), int(gross), int(raising), int(kept))


def _kept_runs(cleaned: CleanedHistory, history: SatelliteHistory) -> list[list[int]]:
    """``[start, stop)`` runs of the history positions *cleaned* kept."""
    runs: list[list[int]] = []
    kept = iter(cleaned.elements)
    wanted = next(kept, None)
    for position, element in enumerate(history):
        if wanted is not None and (element is wanted or element == wanted):
            if runs and runs[-1][1] == position:
                runs[-1][1] += 1
            else:
                runs.append([position, position + 1])
            wanted = next(kept, None)
    if wanted is not None:
        raise ValueError(
            f"satellite {cleaned.catalog_number}: cleaned records are not "
            "a subsequence of the history"
        )
    return runs


def _cleaned_from_runs(
    runs: list[list[int]], history: SatelliteHistory, report: CleaningReport
) -> CleanedHistory | None:
    """Slice the kept records back out of the live history."""
    records = list(history)
    elements: list[MeanElements] = []
    floor = 0
    for start, stop in runs:
        if not floor <= start < stop <= len(records):
            raise ValueError(
                f"stage-cache run [{start}, {stop}) out of range or order "
                f"for a {len(records)}-record history"
            )
        elements.extend(records[start:stop])
        floor = stop
    if len(elements) != report.kept:
        raise ValueError(
            f"stage-cache entry keeps {len(elements)} records, "
            f"its report says {report.kept}"
        )
    if not elements:
        return None
    return CleanedHistory(
        catalog_number=history.catalog_number,
        elements=tuple(elements),
        operational_from=elements[0].epoch,
        report=report,
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


def encode_outcome(outcome: SatelliteOutcome, history: SatelliteHistory) -> str:
    """Serialize a successful *outcome* of *history* to canonical JSON text.

    The cleaned history's report is the outcome's report, as
    :func:`~repro.core.pipeline.process_satellite` builds it.
    """
    payload = {
        "version": CODEC_VERSION,
        "catalog_number": outcome.catalog_number,
        "kept": (
            _kept_runs(outcome.cleaned, history) if outcome.cleaned is not None else []
        ),
        "events": [_event_to_jsonable(e) for e in outcome.events],
        "assessment": (
            _assessment_to_jsonable(outcome.assessment) if outcome.assessment else None
        ),
        "report": _report_to_jsonable(outcome.report),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def decode_outcome(text: str, history: SatelliteHistory) -> SatelliteOutcome:
    """Parse an outcome of *history* back; raises on any structural
    mismatch, or when the entry does not fit the history."""
    payload = json.loads(text)
    if not isinstance(payload, dict) or payload.get("version") != CODEC_VERSION:
        raise ValueError(
            f"unsupported stage-cache entry version: {payload!r:.80}"
        )
    catalog_number = int(payload["catalog_number"])
    if catalog_number != history.catalog_number:
        raise ValueError(
            f"stage-cache entry is for satellite {catalog_number}, "
            f"not {history.catalog_number}"
        )
    report = _report_from_jsonable(payload["report"])
    assessment = payload["assessment"]
    return SatelliteOutcome(
        catalog_number=catalog_number,
        cleaned=_cleaned_from_runs(payload["kept"], history, report),
        events=tuple(_event_from_jsonable(e) for e in payload["events"]),
        assessment=(
            _assessment_from_jsonable(assessment) if assessment is not None else None
        ),
        report=report,
    )
