"""The :class:`DataStore` local cache.

Directory layout::

    <root>/
      dst.csv                 hourly Dst cache
      catalog_numbers.txt     one catalog number per line
      tles/<catalog>.tle      per-satellite TLE history (2LE text)
      stage_cache/            memoized per-satellite stage outcomes
      obs/<name>.jsonl        persisted observability traces
      alerts/<name>.jsonl     append-only streaming alert log
      quarantine/             corrupt files moved aside in salvage mode

`save_*` methods overwrite atomically and durably (unique temp file in
the target directory, ``fsync``, then ``os.replace``); stale ``*.tmp``
files from interrupted writers are swept on construction.  `load_*`
methods return None when the artifact is absent, so callers can fall
back to fetching/generating.

Fault tolerance (see ``docs/ROBUSTNESS.md``):

* ``retry=RetryPolicy(...)`` retries raw reads/writes on transient
  ``OSError`` with seeded exponential backoff.
* ``salvage=True`` switches corrupt-cache handling from raise to
  degrade: parseable records are kept (and the cache file rewritten
  with only those), corrupt files move to ``<root>/quarantine/``, and
  every skip is recorded in the store's :class:`QuarantineLedger` —
  one corrupt file never discards the rest of the catalog.
* ``salvage=False`` (default) preserves strict behaviour: corruption
  raises on first contact.
"""

from __future__ import annotations

import io
import os
import pathlib
import tempfile
from typing import Any, Callable, Iterable, TypeVar

from repro.errors import IngestError, ReproError, TLEError
from repro.io.csvio import read_dst_csv, write_dst_csv
from repro.robustness.health import QuarantineLedger
from repro.robustness.retry import RetryPolicy
from repro.spaceweather.dst import DstIndex
from repro.tle.catalog import SatelliteCatalog, SatelliteHistory
from repro.tle.format import format_tle
from repro.tle.parse import parse_tle_file

T = TypeVar("T")

#: Ledger stage name for everything the store quarantines.
STORAGE_STAGE = "storage"


def _replace_undecodable(exc: UnicodeDecodeError) -> str:
    """The whole text a failed read held, each undecodable byte as U+FFFD,
    so that only the lines holding such bytes are lost."""
    return exc.object.decode(exc.encoding, errors="replace")


class DataStore:
    """A directory-backed cache of ingested data."""

    def __init__(
        self,
        root: str | os.PathLike,
        *,
        retry: RetryPolicy | None = None,
        salvage: bool = False,
        ledger: QuarantineLedger | None = None,
    ) -> None:
        self.root = pathlib.Path(root)
        self.retry = retry
        self.salvage = salvage
        self.ledger = ledger if ledger is not None else QuarantineLedger()
        self.root.mkdir(parents=True, exist_ok=True)
        self._sweep_stale_tmp()

    # --- internals --------------------------------------------------------
    def _call(self, func: Callable[..., T], *args: Any) -> T:
        """Run one raw I/O operation under the retry policy, if any."""
        if self.retry is None:
            return func(*args)
        return self.retry.call(func, *args)

    def _sweep_stale_tmp(self) -> None:
        """Remove temp files left behind by interrupted writers."""
        try:
            stale = list(self.root.rglob("*.tmp"))
        except OSError:
            return
        for path in stale:
            try:
                path.unlink()
            except OSError:
                pass  # another process may have won the race

    def _read_text(self, path: pathlib.Path) -> str:
        """Raw file read — the override point for fault injection."""
        return path.read_text()

    def _write_once(self, path: pathlib.Path, text: str) -> None:
        """Raw durable atomic write — the override point for fault
        injection.  Unique temp name (concurrent writers never collide)
        + fsync before rename (no torn cache after a crash)."""
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=path.name + ".", suffix=".tmp"
        )
        tmp = pathlib.Path(tmp_name)
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    def _atomic_write(self, path: pathlib.Path, text: str) -> None:
        self._call(self._write_once, path, text)

    def _quarantine_file(self, path: pathlib.Path) -> None:
        """Move a corrupt file aside (best effort, never raises)."""
        try:
            self._quarantine_dir.mkdir(exist_ok=True)
            os.replace(path, self._quarantine_dir / path.name)
        except OSError:
            pass

    @property
    def _dst_path(self) -> pathlib.Path:
        return self.root / "dst.csv"

    @property
    def _numbers_path(self) -> pathlib.Path:
        return self.root / "catalog_numbers.txt"

    @property
    def _tle_dir(self) -> pathlib.Path:
        return self.root / "tles"

    @property
    def _quarantine_dir(self) -> pathlib.Path:
        return self.root / "quarantine"

    @property
    def _stage_cache_dir(self) -> pathlib.Path:
        return self.root / "stage_cache"

    @property
    def _obs_dir(self) -> pathlib.Path:
        return self.root / "obs"

    @property
    def _alerts_dir(self) -> pathlib.Path:
        return self.root / "alerts"

    # --- Dst -------------------------------------------------------------
    def save_dst(self, dst: DstIndex) -> None:
        """Cache the Dst index (overwrites)."""
        buffer = io.StringIO()
        write_dst_csv(dst, buffer)
        self._atomic_write(self._dst_path, buffer.getvalue())

    def load_dst(self) -> DstIndex | None:
        """Load the cached Dst index, or None when absent (or, in
        salvage mode, unloadable)."""
        if not self._dst_path.exists():
            return None
        try:
            return read_dst_csv(self._call(self._read_text, self._dst_path))
        except (OSError, ReproError, ValueError) as exc:
            if not self.salvage:
                raise
            self.ledger.quarantine_artifact(
                "dst.csv",
                STORAGE_STAGE,
                f"unloadable Dst cache ({type(exc).__name__})",
            )
            self._quarantine_file(self._dst_path)
            return None

    # --- catalog numbers (fetched once, per the paper) ----------------------
    def save_catalog_numbers(self, numbers: Iterable[int]) -> None:
        """Cache the discovered catalog-number set."""
        text = "\n".join(str(n) for n in sorted(set(numbers)))
        self._atomic_write(self._numbers_path, text + "\n" if text else "")

    def load_catalog_numbers(self) -> list[int] | None:
        """Load cached catalog numbers, or None when absent."""
        if not self._numbers_path.exists():
            return None
        try:
            text = self._call(self._read_text, self._numbers_path)
        except UnicodeDecodeError as exc:
            text = _replace_undecodable(exc)
        except OSError as exc:
            if not self.salvage:
                raise
            self.ledger.quarantine_artifact(
                "catalog_numbers.txt",
                STORAGE_STAGE,
                f"unreadable catalog-number cache ({type(exc).__name__})",
            )
            return None
        numbers = []
        bad = 0
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                numbers.append(int(line))
            except ValueError as exc:
                if not self.salvage:
                    raise IngestError(
                        f"corrupt catalog-number cache: {line!r}"
                    ) from exc
                bad += 1
        if bad:
            self.ledger.quarantine_artifact(
                "catalog_numbers.txt",
                STORAGE_STAGE,
                f"skipped {bad} corrupt catalog-number line(s)",
            )
        return numbers

    # --- TLE histories ----------------------------------------------------
    def save_history(self, history: SatelliteHistory) -> None:
        """Cache one satellite's TLE history as 2LE text."""
        self._tle_dir.mkdir(exist_ok=True)
        lines: list[str] = []
        for elements in history:
            line1, line2 = format_tle(elements)
            lines.append(line1)
            lines.append(line2)
        path = self._tle_dir / f"{history.catalog_number}.tle"
        self._atomic_write(path, "\n".join(lines) + ("\n" if lines else ""))

    def save_catalog(self, catalog: SatelliteCatalog) -> None:
        """Cache every satellite's history and the number list."""
        for history in catalog:
            self.save_history(history)
        self.save_catalog_numbers(catalog.catalog_numbers)

    def load_history(self, catalog_number: int) -> SatelliteHistory | None:
        """Load one cached history, or None when absent.

        In salvage mode a corrupt file yields whatever records still
        parse: the original moves to ``quarantine/``, the cache file is
        rewritten with the salvaged records, and the skip is ledgered.
        A file with nothing salvageable quarantines the satellite.
        """
        path = self._tle_dir / f"{catalog_number}.tle"
        if not path.exists():
            return None
        undecodable = 0
        try:
            text = self._call(self._read_text, path)
        except UnicodeDecodeError as exc:
            if not self.salvage:
                raise IngestError(
                    f"corrupt TLE cache for {catalog_number}: not UTF-8 text"
                ) from exc
            text = _replace_undecodable(exc)
            # The parser skips a line it cannot read as a TLE line, as it
            # skips a 3LE name line, so count these lines here (one that
            # sits inside a record also fails that record).
            undecodable = sum("\ufffd" in line for line in text.splitlines())
        except OSError as exc:
            if not self.salvage:
                raise
            self.ledger.quarantine_satellite(
                catalog_number,
                STORAGE_STAGE,
                f"unreadable TLE cache ({type(exc).__name__}: {exc})",
            )
            self._quarantine_file(path)
            return None
        report = parse_tle_file(text.splitlines())
        if report.error_count and not self.salvage:
            raise IngestError(
                f"corrupt TLE cache for {catalog_number}: "
                f"{report.error_count} bad records"
            )
        history = SatelliteHistory(catalog_number)
        mismatched = 0
        for elements in report.elements:
            if self.salvage and elements.catalog_number != catalog_number:
                mismatched += 1
                continue
            history.add(elements)
        corrupt = report.error_count + mismatched + undecodable
        if self.salvage:
            if corrupt and not len(history):
                self.ledger.quarantine_satellite(
                    catalog_number,
                    STORAGE_STAGE,
                    f"corrupt TLE cache: {corrupt} bad record(s), none salvageable",
                )
                self._quarantine_file(path)
                return None
            if not len(history) and text.strip():
                self.ledger.quarantine_satellite(
                    catalog_number,
                    STORAGE_STAGE,
                    "TLE cache holds no parseable records",
                )
                self._quarantine_file(path)
                return None
            if corrupt:
                self.ledger.quarantine_artifact(
                    path.name,
                    STORAGE_STAGE,
                    f"satellite {catalog_number}: salvaged {len(history)} "
                    f"record(s), {corrupt} corrupt",
                )
                self._quarantine_file(path)
                self.save_history(history)  # self-heal the cache
        return history

    # --- stage-outcome cache (see repro.exec.memo) --------------------------
    def save_stage_outcome(self, key: str, payload: str) -> None:
        """Persist one encoded stage outcome under its cache key."""
        self._stage_cache_dir.mkdir(exist_ok=True)
        self._atomic_write(self._stage_cache_dir / f"{key}.json", payload)

    def load_stage_outcome(self, key: str) -> str | None:
        """Load one encoded stage outcome, or None when absent.

        Raises :class:`OSError` when the entry exists but cannot be
        read.  Content-addressed entries are disposable by design, so
        the caller (:class:`~repro.exec.memo.StageMemo`) quarantines it
        with :meth:`discard_stage_outcome` and recomputes the satellite.
        """
        path = self._stage_cache_dir / f"{key}.json"
        if not path.exists():
            return None
        return self._call(self._read_text, path)

    def discard_stage_outcome(self, key: str, reason: str) -> None:
        """Quarantine one stage-cache entry (corrupt or stale)."""
        path = self._stage_cache_dir / f"{key}.json"
        self.ledger.quarantine_artifact(path.name, STORAGE_STAGE, reason)
        self._quarantine_file(path)

    # --- observability traces (see repro.obs) -------------------------------
    def save_trace(self, payload: str, *, name: str = "trace") -> None:
        """Persist one JSONL trace document under ``obs/<name>.jsonl``.

        Same atomic/durable write discipline as every other artifact;
        the directory is only ever created on an actual save, so a run
        with tracing disabled performs no ``obs/`` I/O at all.
        """
        self._obs_dir.mkdir(exist_ok=True)
        self._atomic_write(self._obs_dir / f"{name}.jsonl", payload)

    def load_trace(self, *, name: str = "trace") -> str | None:
        """Load one persisted trace, or None when absent.

        Traces are disposable observability artifacts: an unreadable
        file is ledgered and treated as absent, never raised.
        """
        path = self._obs_dir / f"{name}.jsonl"
        if not path.exists():
            return None
        try:
            return self._call(self._read_text, path)
        except (OSError, UnicodeDecodeError) as exc:
            self.ledger.quarantine_artifact(
                path.name,
                STORAGE_STAGE,
                f"unreadable trace ({type(exc).__name__})",
            )
            self._quarantine_file(path)
            return None

    def list_traces(self) -> list[str]:
        """Names of every persisted trace (without the ``.jsonl``)."""
        if not self._obs_dir.is_dir():
            return []
        return sorted(p.stem for p in self._obs_dir.glob("*.jsonl"))

    # --- streaming alert log (see repro.stream.alerts) ----------------------
    def append_alerts(self, lines: Iterable[str], *, name: str = "alerts") -> int:
        """Append JSONL alert lines to ``alerts/<name>.jsonl``.

        An alert log is an *event journal*, not a cache: unlike every
        other artifact it must never lose already-written history, so
        it appends (with flush + fsync for durability) instead of the
        overwrite-by-rename discipline.  Returns how many lines were
        written.
        """
        lines = [line.rstrip("\n") for line in lines]
        if not lines:
            return 0
        self._alerts_dir.mkdir(exist_ok=True)
        path = self._alerts_dir / f"{name}.jsonl"

        def _append() -> None:
            with open(path, "a") as handle:
                handle.write("".join(line + "\n" for line in lines))
                handle.flush()
                os.fsync(handle.fileno())

        self._call(_append)
        return len(lines)

    def load_alerts(self, *, name: str = "alerts") -> list[str] | None:
        """Load the alert log's JSONL lines, or None when absent.

        Like traces, alert logs are observability artifacts: an
        unreadable file is ledgered and treated as absent, never
        raised.
        """
        path = self._alerts_dir / f"{name}.jsonl"
        if not path.exists():
            return None
        try:
            text = self._call(self._read_text, path)
        except (OSError, UnicodeDecodeError) as exc:
            self.ledger.quarantine_artifact(
                path.name,
                STORAGE_STAGE,
                f"unreadable alert log ({type(exc).__name__})",
            )
            self._quarantine_file(path)
            return None
        return [line for line in text.splitlines() if line.strip()]

    def load_catalog(self) -> SatelliteCatalog | None:
        """Load the whole cached catalog, or None when nothing is cached.

        In salvage mode per-satellite corruption is quarantined and the
        rest of the catalog survives; strict mode raises on the first
        corrupt artifact.
        """
        numbers = self.load_catalog_numbers()
        if numbers is None:
            return None
        catalog = SatelliteCatalog()
        for number in numbers:
            try:
                history = self.load_history(number)
            except (OSError, TLEError) as exc:
                if not self.salvage:
                    raise
                # Residual failures load_history could not absorb.
                self.ledger.quarantine_satellite(
                    number,
                    STORAGE_STAGE,
                    f"history load failed ({type(exc).__name__}: {exc})",
                )
                continue
            if history is not None:
                for elements in history:
                    catalog.add(elements)
        return catalog
