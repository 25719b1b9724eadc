"""Maximal runs of a boolean mask: the one rule behind every stretch the
pipeline reports.

Storm episodes (paper §4, Fig. 2), band-restricted episodes, decay
onsets and drag-spike excursions are all maximal runs of samples that
meet a condition, split wherever the sample clock jumps past an allowed
gap.  :func:`runs` finds them in one vectorized pass.
"""

from __future__ import annotations

import numpy as np


def runs(
    mask: np.ndarray,
    times: np.ndarray | None = None,
    unit: float = 1.0,
    *,
    max_gap: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """First and last index of every maximal run of true samples.

    Two consecutive true samples ``i < j`` share a run when
    ``round((times[j] - times[i]) / unit) - 1 <= max_gap``: at most
    *max_gap* whole units lie between them, whether those units hold
    false samples or none at all.  Rounding is half to even, as
    Python's ``round``.  Without *times*, positions are the clock, so
    ``max_gap=0`` gives unbroken stretches of true positions.
    """
    on = np.flatnonzero(mask)
    clock = on if times is None else np.asarray(times)[on]
    breaks = np.flatnonzero(np.rint(np.diff(clock) / unit) - 1 > max_gap)
    first = np.concatenate((on[:1], on[breaks + 1]))
    last = np.concatenate((on[breaks], on[-1:]))
    return first, last
