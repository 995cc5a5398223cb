"""The efficiency metric (Fig. 3).

Efficiency = committed elements / added elements, computed after 50, 75 and
100 seconds.  Clients stop adding at 50 s, so an unstressed algorithm shows
efficiency close to 1 at 50 s and exactly 1 by 75 s.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from ..errors import ConfigurationError
from .metrics import MetricsCollector

#: The paper's three evaluation instants (seconds).
PAPER_EFFICIENCY_TIMES = (50.0, 75.0, 100.0)


@dataclass(frozen=True)
class EfficiencyResult:
    """Efficiency of one run at the three standard instants."""

    label: str
    at_50: float
    at_75: float
    at_100: float

    def as_dict(self) -> dict[str, float]:
        return {"50s": self.at_50, "75s": self.at_75, "100s": self.at_100}


def efficiency_at(metrics: MetricsCollector, time: float,
                  total_added: int | None = None) -> float:
    """Committed/added ratio considering only commits at or before ``time``."""
    if time <= 0:
        raise ConfigurationError("time must be positive")
    added = total_added if total_added is not None else metrics.injected_count
    if added == 0:
        return 0.0
    committed = bisect_right(metrics.commit_times(), time)
    return min(1.0, committed / added)


def efficiency_profile(metrics: MetricsCollector, label: str = "",
                       total_added: int | None = None) -> EfficiencyResult:
    """Efficiency at the paper's 50/75/100 s instants."""
    values = [efficiency_at(metrics, t, total_added) for t in PAPER_EFFICIENCY_TIMES]
    return EfficiencyResult(label=label, at_50=values[0], at_75=values[1],
                            at_100=values[2])
