"""Shared sample statistics: nearest-rank percentiles and trial summaries.

The runner's per-run wall-time tail summary and the service layer's
latency histograms both report nearest-rank percentiles; this module is
the single definition of that rank arithmetic so the two cannot drift.

The convention is the classic nearest-rank estimator: the percentile of
a sample of ``count`` ordered values at ``fraction`` is the value at
(1-based) rank ``round(fraction * count)``, clamped into the sample.
It always returns an observed value (no interpolation), which keeps
every derived statistic exactly reproducible across platforms.

:func:`summarize` (mean/std/min/max over repeated trials) lives here too,
below every layer that reports it: the epoch-trace summary in
``repro.quartz.trace`` and the validation experiments both use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import ValidationError


def nearest_rank_index(count: int, fraction: float) -> int:
    """The 0-based index of the nearest-rank percentile in a sorted sample.

    ``count`` is the sample size; ``fraction`` the percentile in [0, 1].
    The result is clamped to ``[0, count - 1]``, so any fraction is safe
    against a non-empty sample.  ``count`` must be positive.
    """
    if count <= 0:
        raise ValueError(f"sample count must be positive: {count}")
    return min(count - 1, max(0, round(fraction * count) - 1))


def percentile(values: Sequence[float], fraction: float) -> Optional[float]:
    """Nearest-rank percentile of *values* (``None`` for an empty sample).

    Sorts a copy; the input order is irrelevant and unmodified.
    """
    if not values:
        return None
    ordered = sorted(values)
    return ordered[nearest_rank_index(len(ordered), fraction)]


@dataclass(frozen=True)
class TrialStats:
    """Summary of repeated trials of one measurement."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float

    @property
    def spread(self) -> float:
        """Max minus min (the paper's error bars in Figure 12)."""
        return self.maximum - self.minimum


def summarize(values: list[float]) -> TrialStats:
    """Mean/std/min/max over trial values.

    ``std`` is the *sample* standard deviation (Bessel's ``n - 1``
    correction) — the right estimator for the paper's small repeated-trial
    error bars; a single trial has no spread estimate and reports 0.0.
    """
    if not values:
        raise ValidationError("no trial values to summarize")
    count = len(values)
    mean = sum(values) / count
    if count > 1:
        variance = sum((value - mean) ** 2 for value in values) / (count - 1)
        std = math.sqrt(variance)
    else:
        std = 0.0
    return TrialStats(
        count=count,
        mean=mean,
        std=std,
        minimum=min(values),
        maximum=max(values),
    )
