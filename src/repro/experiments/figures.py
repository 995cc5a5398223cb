"""Regenerators for every figure of the evaluation.

Each ``figure*`` function runs the corresponding (scaled) scenarios and
returns plain data structures — series, efficiency values, CDFs — that the
benchmarks print and EXPERIMENTS.md summarises.  No plotting dependency is
required; the series are the figures' content.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.analytical import blocksize_sweep
from ..analysis.latency import LatencyCDF
from ..analysis.throughput import ThroughputSeries
from ..api import RunResult, Session
from ..config import ExperimentConfig
from .scenarios import (
    figure1_scenarios,
    figure2_left_scenarios,
    figure3a_grid,
    figure3b_grid,
    figure3c_grid,
    figure4_scenarios,
    figure5_grids,
)

#: Default scale factor for simulation-backed figures (documented in EXPERIMENTS.md).
DEFAULT_SCALE = 10.0
#: Reduced drain used by the figure runs to bound runtime.
_FIGURE_HORIZON = 150.0


def run_point(config: ExperimentConfig, scale: float,
              horizon: float = _FIGURE_HORIZON) -> RunResult:
    """Run one (scaled) figure point to ``horizon`` or its own end, if later."""
    session = Session(config, scale=scale).start()
    return session.run_until(max(config.total_duration, horizon)).result()


@dataclass
class FigureSeries:
    """One labelled curve of a figure."""

    label: str
    series: ThroughputSeries
    analytical: float
    sending_rate: float


def figure1(scale: float = DEFAULT_SCALE,
            panels: tuple[str, ...] = ("left", "center", "right")) -> dict[str, list[FigureSeries]]:
    """Fig. 1: rolling throughput over time for the three evaluation scenarios."""
    results: dict[str, list[FigureSeries]] = {}
    for panel, configs in figure1_scenarios().items():
        if panel not in panels:
            continue
        curves: list[FigureSeries] = []
        for config in configs:
            outcome = run_point(config, scale)
            curves.append(FigureSeries(
                label=config.algorithm, series=outcome.throughput,
                analytical=outcome.analytical_throughput,
                sending_rate=outcome.config["workload"]["sending_rate"]))
        results[panel] = curves
    return results


def figure2_left(scale: float = DEFAULT_SCALE * 4) -> list[RunResult]:
    """Fig. 2 left: highest achieved throughput with and without hash reversal.

    The heavier sending rates use a larger default scale so the benchmark
    stays tractable; the comparison of interest (light ≫ full Hashchain ≫
    Compresschain ≫ Vanilla) is scale-invariant.
    """
    return [run_point(config, scale) for config in figure2_left_scenarios()]


def figure2_right(block_sizes_mb: tuple[float, ...] = (0.5, 1, 2, 4, 8, 16, 32, 64, 128),
                  collector_size: int = 500) -> dict[str, list[float]]:
    """Fig. 2 right: analytical throughput vs ledger block size (no simulation)."""
    sizes_bytes = [mb * 1_048_576 for mb in block_sizes_mb]
    return {
        "block_size_mb": list(block_sizes_mb),
        "vanilla": blocksize_sweep("vanilla", sizes_bytes, collector_size),
        "compresschain": blocksize_sweep("compresschain", sizes_bytes, collector_size),
        "hashchain": blocksize_sweep("hashchain", sizes_bytes, collector_size),
    }


def _efficiency_rows(configs, scale: float) -> list[dict[str, object]]:  # type: ignore[no-untyped-def]
    rows = []
    for config in configs:
        outcome = run_point(config, scale)
        rows.append({
            "label": config.label,
            "algorithm": config.algorithm,
            "collector": config.setchain.collector_limit,
            "sending_rate": config.workload.sending_rate,
            "n_servers": config.setchain.n_servers,
            "network_delay_ms": config.ledger.network_delay * 1000,
            "efficiency_50s": outcome.efficiency["50s"],
            "efficiency_75s": outcome.efficiency["75s"],
            "efficiency_100s": outcome.efficiency["100s"],
            "first_commit": outcome.first_commit,
            "commit_fractions": dict(outcome.commit_fractions),
        })
    return rows


def figure3a(scale: float = DEFAULT_SCALE, rates: tuple[float, ...] | None = None) -> list[dict[str, object]]:
    """Fig. 3a: efficiency vs sending rate (optionally restricted to some rates)."""
    configs = figure3a_grid()
    if rates is not None:
        configs = [c for c in configs if c.workload.sending_rate in rates]
    return _efficiency_rows(configs, scale)


def figure3b(scale: float = DEFAULT_SCALE, server_counts: tuple[int, ...] | None = None) -> list[dict[str, object]]:
    """Fig. 3b: efficiency vs number of servers."""
    configs = figure3b_grid()
    if server_counts is not None:
        configs = [c for c in configs if c.setchain.n_servers in server_counts]
    return _efficiency_rows(configs, scale)


def figure3c(scale: float = DEFAULT_SCALE, delays_ms: tuple[int, ...] | None = None) -> list[dict[str, object]]:
    """Fig. 3c: efficiency vs artificial network delay."""
    configs = figure3c_grid()
    if delays_ms is not None:
        configs = [c for c in configs
                   if round(c.ledger.network_delay * 1000) in delays_ms]
    return _efficiency_rows(configs, scale)


def figure4(scale: float = 5.0) -> dict[str, dict[str, LatencyCDF]]:
    """Fig. 4: latency CDFs to the five stages for each algorithm.

    Runs at the paper's 1,250 el/s scenario (lightly scaled) on the CometBFT
    backend so the mempool stages exist.
    """
    results: dict[str, dict[str, LatencyCDF]] = {}
    for config in figure4_scenarios():
        session = Session(config, scale=scale).start().run_to_completion()
        results[config.algorithm] = session.latency_cdfs()
    return results


def figure5(scale: float = DEFAULT_SCALE,
            dimensions: tuple[str, ...] = ("rate", "servers", "delay"),
            subset: int | None = None) -> dict[str, list[dict[str, object]]]:
    """Fig. 5: commit-time quantiles across the Fig. 3 grids."""
    grids = figure5_grids()
    results: dict[str, list[dict[str, object]]] = {}
    for dimension in dimensions:
        configs = grids[dimension]
        if subset is not None:
            configs = configs[:subset]
        results[dimension] = _efficiency_rows(configs, scale)
    return results
