"""Run-health bookkeeping: what was skipped, where, and why.

A fault-tolerant run never silently drops data.  Every satellite or
artifact the pipeline (or the :class:`~repro.io.store.DataStore`) sets
aside lands in a :class:`QuarantineLedger` entry with the stage that
skipped it and a human-readable reason.  :class:`RunHealth` is the
immutable roll-up attached to each :class:`~repro.core.pipeline.
PipelineResult` so operators can tell a clean run from a degraded one.

Ledger entries are ordered (insertion order) and their canonical text
form (:meth:`QuarantineLedger.to_text`) is deterministic: two runs over
the same inputs with the same fault seed produce byte-identical text —
the property the chaos suite asserts.  Reasons therefore must not embed
absolute paths or timestamps; use file *names* and stable counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:
    from repro.obs.metrics import MetricSample


#: Entry kinds — a whole satellite was skipped vs. a single cache file
#: or text batch was skipped/salvaged while the satellite survived.
KIND_SATELLITE = "satellite"
KIND_ARTIFACT = "artifact"


@dataclass(frozen=True, slots=True)
class QuarantineEntry:
    """One skipped satellite or artifact, with provenance."""

    #: ``"satellite"`` or ``"artifact"``.
    kind: str
    #: Catalog number (as text) or artifact name (a file name, never a path).
    identifier: str
    #: Stage that quarantined it (``storage``, ``ingest``, ``detect`` ...).
    stage: str
    #: Human-readable reason.
    reason: str

    def to_line(self) -> str:
        """Canonical single-line form (tab-separated)."""
        return f"{self.kind}\t{self.identifier}\t{self.stage}\t{self.reason}"


class QuarantineLedger:
    """Append-only record of everything skipped during a run."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Iterable[QuarantineEntry] = ()) -> None:
        self._entries: list[QuarantineEntry] = list(entries)

    # --- recording ---------------------------------------------------------
    def quarantine_satellite(
        self, catalog_number: int, stage: str, reason: str
    ) -> QuarantineEntry:
        """Record that a whole satellite was skipped."""
        entry = QuarantineEntry(KIND_SATELLITE, str(catalog_number), stage, reason)
        self._entries.append(entry)
        return entry

    def quarantine_artifact(self, name: str, stage: str, reason: str) -> QuarantineEntry:
        """Record that one artifact (cache file, text batch) was skipped
        or salvaged."""
        entry = QuarantineEntry(KIND_ARTIFACT, name, stage, reason)
        self._entries.append(entry)
        return entry

    def extend(self, entries: Iterable[QuarantineEntry]) -> None:
        """Merge entries from another ledger (order-preserving)."""
        self._entries.extend(entries)

    # --- inspection --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __iter__(self) -> Iterator[QuarantineEntry]:
        return iter(self._entries)

    @property
    def entries(self) -> tuple[QuarantineEntry, ...]:
        return tuple(self._entries)

    def snapshot(self) -> tuple[QuarantineEntry, ...]:
        """Immutable copy of the current entries."""
        return tuple(self._entries)

    @property
    def satellites(self) -> list[int]:
        """Sorted unique catalog numbers of quarantined satellites."""
        return sorted(
            {int(e.identifier) for e in self._entries if e.kind == KIND_SATELLITE}
        )

    def reasons_by_satellite(self) -> dict[int, str]:
        """Catalog number -> joined reasons for every quarantined satellite."""
        reasons: dict[int, list[str]] = {}
        for entry in self._entries:
            if entry.kind == KIND_SATELLITE:
                reasons.setdefault(int(entry.identifier), []).append(entry.reason)
        return {number: "; ".join(parts) for number, parts in reasons.items()}

    def to_text(self) -> str:
        """Canonical text form, one entry per line; byte-for-byte stable
        for identical runs."""
        return "".join(entry.to_line() + "\n" for entry in self._entries)


@dataclass(frozen=True, slots=True)
class StageHealth:
    """Outcome counters of one isolated pipeline stage."""

    stage: str
    attempted: int
    succeeded: int
    quarantined: int
    #: Wall-clock duration of the stage [s] (0.0 when untimed).
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.quarantined == 0 and self.succeeded == self.attempted


@dataclass(frozen=True, slots=True)
class RunHealth:
    """Health roll-up of one pipeline run (stages + quarantine entries)."""

    stages: tuple[StageHealth, ...]
    entries: tuple[QuarantineEntry, ...]
    #: Stage-memoization accounting for this run: satellites served
    #: from cache vs recomputed (both 0 when caching is off).
    cache_hits: int = 0
    cache_misses: int = 0
    #: Persistent stage-cache entries this run quarantined as corrupt or
    #: unreadable.  Execution health only: they are not ledger entries,
    #: so ``ledger_text()`` (and the result digest) never see them.
    cache_quarantined: int = 0
    #: Top-level observability metrics for this run (empty unless the
    #: pipeline ran with ``config.trace`` — see ``repro.obs``).
    metrics: tuple["MetricSample", ...] = ()

    @classmethod
    def empty(cls) -> "RunHealth":
        return cls(stages=(), entries=())

    @classmethod
    def from_ledger(
        cls,
        stages: Iterable[StageHealth],
        ledger: QuarantineLedger,
        *,
        cache_hits: int = 0,
        cache_misses: int = 0,
        cache_quarantined: int = 0,
        metrics: Iterable["MetricSample"] = (),
    ) -> "RunHealth":
        return cls(
            stages=tuple(stages),
            entries=ledger.snapshot(),
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            cache_quarantined=cache_quarantined,
            metrics=tuple(metrics),
        )

    def metric(self, name: str) -> "MetricSample | None":
        """Look up one folded metric sample by name, or None."""
        for sample in self.metrics:
            if sample.name == name:
                return sample
        return None

    @property
    def ok(self) -> bool:
        return not self.entries and all(stage.ok for stage in self.stages)

    @property
    def quarantined_satellites(self) -> dict[int, str]:
        """Catalog number -> reason(s) for every quarantined satellite."""
        ledger = QuarantineLedger(self.entries)
        return ledger.reasons_by_satellite()

    def ledger_text(self) -> str:
        """Canonical ledger text (see :meth:`QuarantineLedger.to_text`)."""
        return QuarantineLedger(self.entries).to_text()

    def summary(self) -> str:
        """One-line human summary."""
        if self.ok:
            text = "healthy: nothing quarantined"
        else:
            satellites = len(self.quarantined_satellites)
            artifacts = sum(1 for e in self.entries if e.kind == KIND_ARTIFACT)
            text = (
                f"degraded: {satellites} satellite(s) and "
                f"{artifacts} artifact(s) quarantined"
            )
        if self.cache_hits or self.cache_misses:
            text += (
                f" (stage cache: {self.cache_hits} hit(s), "
                f"{self.cache_misses} miss(es)"
            )
            if self.cache_quarantined:
                text += f", {self.cache_quarantined} quarantined"
            text += ")"
        return text
