"""Throughput over time (Fig. 1 / Fig. 2 left / Table 2).

The paper plots the rolling average number of elements *committed* per second
over a 9-second window, and Table 2 reports the average throughput over the
first 50 seconds.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import ceil

from ..errors import ConfigurationError

#: The paper's rolling window (seconds).
PAPER_ROLLING_WINDOW = 9.0


@dataclass(frozen=True)
class ThroughputSeries:
    """A (time, elements-per-second) series."""

    times: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.times) != len(self.values):
            raise ConfigurationError("times and values must have equal length")

    def peak(self) -> float:
        return max(self.values) if self.values else 0.0

    def at(self, time: float) -> float:
        """Series value at the sample nearest to ``time`` (0 when empty)."""
        if not self.times:
            return 0.0
        index = min(range(len(self.times)),
                    key=lambda i: abs(self.times[i] - time))
        return self.values[index]


def _arange(start: float, stop: float, step: float) -> list[float]:
    """``ceil((stop - start) / step)`` floats, the i-th being ``start + i *
    delta`` with ``delta = (start + step) - start``: the sample instants the
    recorded artifacts carry, bit for bit (tests/test_analysis.py holds the
    differential check)."""
    delta = (start + step) - start
    return [start + i * delta
            for i in range(max(0, ceil((stop - start) / step)))]


def rolling_throughput(commit_times: list[float], window: float = PAPER_ROLLING_WINDOW,
                       step: float = 1.0, horizon: float | None = None) -> ThroughputSeries:
    """Rolling-average committed el/s, sampled every ``step`` seconds.

    ``commit_times`` are the simulated times at which elements committed.  The
    value at sample time ``t`` is the number of commits in ``(t - window, t]``
    divided by the window length, matching the paper's 9-second rolling plots.
    """
    if window <= 0 or step <= 0:
        raise ConfigurationError("window and step must be positive")
    if not commit_times:
        return ThroughputSeries(times=(), values=())
    times = sorted(commit_times)
    end = horizon if horizon is not None else float(times[-1]) + step
    samples = _arange(step, end + step / 2, step)
    # Count commits in (t - window, t] via two bisections.
    values = tuple((bisect_right(times, t) - bisect_right(times, t - window))
                   / window for t in samples)
    return ThroughputSeries(times=tuple(samples), values=values)


def recent_throughput(commit_times: list[float], now: float,
                      window: float = PAPER_ROLLING_WINDOW) -> float:
    """Committed el/s over ``(now - window, now]`` — the live-metrics gauge.

    A single sample of the paper's rolling window ending at the current
    simulated time, cheap enough for a ``/metrics`` endpoint to compute on
    every scrape.
    """
    if window <= 0:
        raise ConfigurationError("window must be positive")
    count = sum(1 for t in commit_times if now - window < t <= now)
    return count / window


def average_throughput(commit_times: list[float], up_to: float = 50.0) -> float:
    """Average committed el/s over ``[0, up_to]`` (Table 2's metric)."""
    if up_to <= 0:
        raise ConfigurationError("up_to must be positive")
    committed = sum(1 for t in commit_times if t <= up_to)
    return committed / up_to


def instantaneous_throughput(commit_times: list[float], bin_width: float = 1.0,
                             horizon: float | None = None) -> ThroughputSeries:
    """Per-bin committed el/s (no rolling window), for finer-grained inspection."""
    if bin_width <= 0:
        raise ConfigurationError("bin_width must be positive")
    if not commit_times:
        return ThroughputSeries(times=(), values=())
    times = sorted(commit_times)
    end = horizon if horizon is not None else float(times[-1]) + bin_width
    edges = _arange(0.0, end + bin_width, bin_width)
    # Bins are [lo, hi) except the last, which also holds its right edge.
    cuts = [bisect_left(times, edge) for edge in edges[:-1]]
    cuts.append(bisect_right(times, edges[-1]))
    return ThroughputSeries(
        times=tuple((lo + hi) / 2 for lo, hi in zip(edges, edges[1:])),
        values=tuple((after - before) / bin_width
                     for before, after in zip(cuts, cuts[1:])))
