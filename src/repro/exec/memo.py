"""Stage memoization: skip recomputing satellites whose inputs are clean.

The paper's operating loop is *incremental fetch → re-run*: new TLEs
and Dst hours arrive, the pipeline runs again.  Most satellites' raw
histories are unchanged between runs, and the per-satellite stage is a
pure function of (history, analysis config) — so its outcome can be
memoized under the digest pair from :mod:`repro.exec.digests` and
served back instantly on the next run.  Only *dirty* satellites (new or
changed records) recompute.

:class:`StageMemo` is a two-tier cache:

* an in-memory dict — hot within one process, covers the repeated
  ``run()`` pattern of a long-lived :class:`~repro.core.pipeline.
  CosmicDance`;
* optionally, a :class:`~repro.io.store.DataStore` ``stage_cache/``
  directory — write-through persistence, so a fresh process (e.g. the
  next ``cosmicdance analyze --cache``) starts warm.  An entry points
  into the history it was computed from (:mod:`repro.exec.codec`), so
  every call passes the live history, not just its digest.

Failed outcomes are never cached (transient faults must retry), and a
corrupt, stale or unreadable persistent entry degrades to a cache miss
— it is quarantined through the store's ledger, never raised, and
named to the caller so a run can report it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.exec.base import SatelliteOutcome
from repro.exec.codec import decode_outcome, encode_outcome
from repro.exec.digests import cache_key

if TYPE_CHECKING:
    from repro.io.store import DataStore
    from repro.obs.metrics import MetricsRegistry
    from repro.tle.catalog import SatelliteHistory


class StageMemo:
    """Memoized per-satellite stage outcomes keyed by digest pair."""

    def __init__(self, store: "DataStore | None" = None) -> None:
        self._memory: dict[tuple[str, str], SatelliteOutcome] = {}
        #: Optional persistence tier; assignable after construction
        #: (the CLI attaches the hydration store here).
        self.store = store
        #: Lifetime counters (across runs; per-run counts live in
        #: :class:`~repro.robustness.health.RunHealth`).
        self.hits = 0
        self.misses = 0
        #: Optional observability registry; assignable after
        #: construction (the pipeline attaches its run registry when
        #: tracing).  Counters: ``memo.hits`` / ``memo.misses`` /
        #: ``memo.persistent_hits`` / ``memo.puts``.
        self.metrics: "MetricsRegistry | None" = None

    def __len__(self) -> int:
        return len(self._memory)

    def get(
        self,
        history: "SatelliteHistory",
        config_digest: str,
        *,
        quarantined: list[str] | None = None,
    ) -> SatelliteOutcome | None:
        """The cached outcome for *history* under a config digest, or None.

        A persistent entry this call quarantines (corrupt or unreadable)
        has its cache key appended to *quarantined*: the caller's
        per-run tally, since one memo may serve several sessions.
        """
        key = (history.digest, config_digest)
        outcome = self._memory.get(key)
        if outcome is None and self.store is not None:
            outcome = self._load_persistent(key, history, quarantined)
            if outcome is not None and self.metrics is not None:
                self.metrics.counter("memo.persistent_hits").inc()
        if outcome is None:
            self.misses += 1
            if self.metrics is not None:
                self.metrics.counter("memo.misses").inc()
            return None
        self.hits += 1
        if self.metrics is not None:
            self.metrics.counter("memo.hits").inc()
        return outcome

    def peek(self, history: "SatelliteHistory", config_digest: str) -> bool:
        """Whether an outcome is cached for *history* — a pure membership
        probe that moves no hit/miss counters and loads nothing into the
        memory tier.  The streaming planner uses this to predict which
        (satellite, stage) pairs a run would actually recompute."""
        key = (history.digest, config_digest)
        if key in self._memory:
            return True
        if self.store is not None:
            try:
                return self.store.load_stage_outcome(cache_key(*key)) is not None
            except OSError:
                return False
        return False

    def put(
        self,
        history: "SatelliteHistory",
        config_digest: str,
        outcome: SatelliteOutcome,
    ) -> None:
        """Memoize a successful outcome of *history* (never a failure)."""
        if not outcome.ok:
            return
        key = (history.digest, config_digest)
        self._memory[key] = outcome
        if self.metrics is not None:
            self.metrics.counter("memo.puts").inc()
        if self.store is not None:
            self.store.save_stage_outcome(
                cache_key(*key), encode_outcome(outcome, history)
            )

    def clear(self) -> None:
        """Drop the in-memory tier (persistent entries survive)."""
        self._memory.clear()

    def _load_persistent(
        self,
        key: tuple[str, str],
        history: "SatelliteHistory",
        quarantined: list[str] | None,
    ) -> SatelliteOutcome | None:
        assert self.store is not None
        name = cache_key(*key)
        try:
            payload = self.store.load_stage_outcome(name)
            if payload is None:
                return None
            outcome = decode_outcome(payload, history)
        except OSError as exc:
            reason = f"unreadable stage-cache entry ({type(exc).__name__})"
        except Exception as exc:
            reason = f"corrupt stage-cache entry ({type(exc).__name__})"
        else:
            self._memory[key] = outcome
            return outcome
        self.store.discard_stage_outcome(name, reason)
        if quarantined is not None:
            quarantined.append(name)
        return None
