"""Error metrics and trial statistics for validation experiments."""

from __future__ import annotations

from repro.errors import ValidationError
from repro.stats_util import TrialStats, summarize

__all__ = ["TrialStats", "relative_error", "summarize"]


def relative_error(measured: float, reference: float) -> float:
    """|measured - reference| / reference (the paper's emulation error)."""
    if reference == 0:
        raise ValidationError("reference value is zero")
    return abs(measured - reference) / abs(reference)
