"""Commit-time quantiles (Appendix F, Fig. 5).

For each run the paper reports when the first element commits and when 10 %,
20 %, 30 %, 40 % and 50 % of the *added* elements have committed.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from .metrics import MetricsCollector

#: The fractions plotted in Fig. 5 (plus the "first element" point).
PAPER_COMMIT_FRACTIONS = (0.1, 0.2, 0.3, 0.4, 0.5)


@dataclass(frozen=True)
class CommitTimeSummary:
    """Commit times of the first element and of the Fig. 5 fractions."""

    label: str
    first_element: float | None
    #: fraction -> simulated time at which that share of added elements committed
    #: (``None`` when the run never reached the fraction).
    fraction_times: dict[float, float | None]


def commit_time_quantiles(metrics: MetricsCollector, total_added: int | None = None,
                          fractions: tuple[float, ...] = PAPER_COMMIT_FRACTIONS,
                          label: str = "") -> CommitTimeSummary:
    """Compute Fig. 5's commit-time points from a run's metrics."""
    for fraction in fractions:
        if not 0.0 < fraction <= 1.0:
            raise ConfigurationError("fractions must lie in (0, 1]")
    added = total_added if total_added is not None else metrics.injected_count
    commit_times = metrics.commit_times()
    first = commit_times[0] if commit_times else None
    fraction_times: dict[float, float | None] = {}
    for fraction in fractions:
        needed = int(round(fraction * added))
        if needed == 0:
            fraction_times[fraction] = first
            continue
        if needed <= len(commit_times):
            fraction_times[fraction] = commit_times[needed - 1]
        else:
            fraction_times[fraction] = None
    return CommitTimeSummary(label=label, first_element=first,
                             fraction_times=fraction_times)
