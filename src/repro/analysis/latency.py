"""Latency CDFs to the five processing stages of Fig. 4.

For every element the paper measures the time from client injection until the
element reaches:

1. the first CometBFT mempool,
2. f+1 CometBFT mempools,
3. all CometBFT mempools,
4. the ledger (inclusion in a finalized block),
5. commit (f+1 epoch-proofs of its epoch in the ledger).

Stages 1-3 are reconstructed post-run from the mempool arrival tables of the
ledger nodes plus the tx→elements mapping recorded at append time; stages 4-5
come directly from the element lifecycle records.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import floor
from typing import Sequence

from ..errors import ConfigurationError
from .metrics import MetricsCollector

STAGES = ("first_mempool", "quorum_mempools", "all_mempools", "ledger", "committed")


@dataclass(frozen=True)
class LatencyCDF:
    """Empirical CDF of one stage's latencies."""

    stage: str
    latencies: tuple[float, ...]

    @property
    def count(self) -> int:
        return len(self.latencies)

    def fraction_below(self, threshold: float) -> float:
        """F(threshold): fraction of observed latencies at or below ``threshold``."""
        if not self.latencies:
            return 0.0
        return sum(1 for v in self.latencies if v <= threshold) / len(self.latencies)

    def quantile(self, q: float) -> float:
        """The q-quantile latency (q in [0, 1])."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError("quantile must be in [0, 1]")
        if not self.latencies:
            return float("nan")
        # Linear interpolation between the two nearest ranks, stepping from
        # whichever rank is nearer: the rounding the recorded artifacts carry
        # (tests/test_analysis.py holds the differential check).
        values = sorted(self.latencies)
        position = q * (len(values) - 1)
        low = floor(position)
        high = min(low + 1, len(values) - 1)
        t = position - low
        gap = values[high] - values[low]
        return float(values[low] + gap * t if t < 0.5
                     else values[high] - gap * (1 - t))

    def curve(self, points: int = 100) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """(x, F(x)) samples of the CDF, suitable for plotting or tabulation."""
        if not self.latencies:
            return (), ()
        values = sorted(self.latencies)
        top = float(values[-1])
        if points > 1:
            step = top / (points - 1)
            # The end point is ``top`` exactly, whatever the rounding of step.
            xs = [i * step for i in range(points - 1)] + [top]
        else:
            xs = [0.0] * points
        return (tuple(xs),
                tuple(bisect_right(values, x) / len(values) for x in xs))


def _mempool_stage_times(metrics: MetricsCollector,
                         mempool_arrivals: Sequence[dict[int, float]],
                         quorum: int) -> dict[int, tuple[float | None, float | None, float | None]]:
    """Per-element (first, quorum-th, all) mempool arrival times."""
    element_arrivals: dict[int, list[float]] = {}
    for arrivals in mempool_arrivals:
        for tx_id, time in arrivals.items():
            for element_id in metrics.tx_elements.get(tx_id, ()):
                element_arrivals.setdefault(element_id, []).append(time)
    n_mempools = len(mempool_arrivals)
    stages: dict[int, tuple[float | None, float | None, float | None]] = {}
    for element_id, times in element_arrivals.items():
        times.sort()
        first = times[0]
        quorum_time = times[quorum - 1] if len(times) >= quorum else None
        all_time = times[-1] if len(times) >= n_mempools else None
        stages[element_id] = (first, quorum_time, all_time)
    return stages


def stage_latencies(metrics: MetricsCollector,
                    mempool_arrivals: Sequence[dict[int, float]] | None = None,
                    quorum: int = 1) -> dict[str, LatencyCDF]:
    """Latency CDFs for every stage that can be computed from the inputs.

    ``mempool_arrivals`` is the list of per-ledger-node ``{tx_id: arrival_time}``
    tables (``Mempool.arrival_times``); when omitted, only the ledger and
    commit stages are produced (e.g. for ideal-ledger runs).
    """
    ledger_latencies: list[float] = []
    commit_latencies: list[float] = []
    first_latencies: list[float] = []
    quorum_latencies: list[float] = []
    all_latencies: list[float] = []

    mempool_stages = ( _mempool_stage_times(metrics, mempool_arrivals, quorum)
                       if mempool_arrivals else {})

    for record in metrics.elements.values():
        if record.injected_at is None:
            continue
        start = record.injected_at
        if record.in_ledger_at is not None:
            ledger_latencies.append(record.in_ledger_at - start)
        if record.committed_at is not None:
            commit_latencies.append(record.committed_at - start)
        stage = mempool_stages.get(record.element_id)
        if stage is not None:
            first, quorum_time, all_time = stage
            if first is not None:
                first_latencies.append(first - start)
            if quorum_time is not None:
                quorum_latencies.append(quorum_time - start)
            if all_time is not None:
                all_latencies.append(all_time - start)

    result = {
        "ledger": LatencyCDF("ledger", tuple(sorted(ledger_latencies))),
        "committed": LatencyCDF("committed", tuple(sorted(commit_latencies))),
    }
    if mempool_arrivals:
        result["first_mempool"] = LatencyCDF("first_mempool", tuple(sorted(first_latencies)))
        result["quorum_mempools"] = LatencyCDF("quorum_mempools", tuple(sorted(quorum_latencies)))
        result["all_mempools"] = LatencyCDF("all_mempools", tuple(sorted(all_latencies)))
    return result
