"""Named scenarios matching the paper's evaluation section.

These grids are expressed through the typed :class:`repro.api.Scenario`
builder; the same scenario sets are also named one by one in
:mod:`repro.api.catalog` for CLI use (``python -m repro list-scenarios``).
"""

from __future__ import annotations

from ..api.builder import Scenario
from ..config import (
    ExperimentConfig,
    TABLE1_COLLECTOR_LIMITS,
    TABLE1_NETWORK_DELAYS_MS,
    TABLE1_SENDING_RATES,
    TABLE1_SERVER_COUNTS,
)


def _point(algorithm: str, *, rate: float = 10_000, collector: int = 100,
           servers: int = 10, delay_ms: float = 0, label: str) -> ExperimentConfig:
    """One evaluation grid point around the paper's base scenario."""
    return (Scenario(algorithm).rate(rate).collector(collector)
            .servers(servers).delay_ms(delay_ms).label(label).build())


def figure1_scenarios() -> dict[str, list[ExperimentConfig]]:
    """Fig. 1: throughput over time, 10 servers, no delay.

    * left   — sending rate 5,000 el/s, collector 100, all three algorithms;
    * center — sending rate 10,000 el/s, collector 100, Compresschain & Hashchain;
    * right  — sending rate 10,000 el/s, collector 500, Compresschain & Hashchain.
    """
    def configs(rate: float, collector: int, algorithms: list[str]) -> list[ExperimentConfig]:
        return [_point(a, rate=rate, collector=collector,
                       label=f"fig1 {a} rate={rate:g} c={collector}")
                for a in algorithms]

    return {
        "left": configs(5_000, 100, ["vanilla", "compresschain", "hashchain"]),
        "center": configs(10_000, 100, ["compresschain", "hashchain"]),
        "right": configs(10_000, 500, ["compresschain", "hashchain"]),
    }


def figure2_left_scenarios() -> list[ExperimentConfig]:
    """Fig. 2 left: pushing the limits with collector 500.

    Hashchain with hash-reversal at a sending rate past its ~20k el/s ceiling,
    Hashchain light (no hash-reversal / validation) at 150k el/s, plus the
    Compresschain / Compresschain-light / Vanilla saturation points.
    """
    return [
        Scenario.hashchain().rate(25_000).collector(500)
        .label("fig2 hashchain (hash-reversal)").build(),
        Scenario.hashchain_light().rate(150_000).collector(500)
        .label("fig2 hashchain light").build(),
        Scenario.compresschain().rate(10_000).collector(500)
        .label("fig2 compresschain").build(),
        Scenario.compresschain_light().rate(10_000).collector(500)
        .label("fig2 compresschain light").build(),
        Scenario.vanilla().rate(5_000).label("fig2 vanilla").build(),
    ]


def figure3a_grid() -> list[ExperimentConfig]:
    """Fig. 3a: efficiency vs sending rate for every algorithm/collector combo."""
    configs: list[ExperimentConfig] = []
    for rate in sorted(TABLE1_SENDING_RATES):
        configs.append(_point("vanilla", rate=rate,
                              label=f"fig3a vanilla rate={rate}"))
        for collector in TABLE1_COLLECTOR_LIMITS:
            for algorithm in ("compresschain", "hashchain"):
                configs.append(_point(algorithm, rate=rate, collector=collector,
                                      label=f"fig3a {algorithm} c={collector} rate={rate}"))
    return configs


def figure3b_grid() -> list[ExperimentConfig]:
    """Fig. 3b: efficiency vs number of servers at 10,000 el/s."""
    configs: list[ExperimentConfig] = []
    for servers in TABLE1_SERVER_COUNTS:
        configs.append(_point("vanilla", servers=servers,
                              label=f"fig3b vanilla n={servers}"))
        for collector in TABLE1_COLLECTOR_LIMITS:
            for algorithm in ("compresschain", "hashchain"):
                configs.append(_point(algorithm, servers=servers, collector=collector,
                                      label=f"fig3b {algorithm} c={collector} n={servers}"))
    return configs


def figure3c_grid() -> list[ExperimentConfig]:
    """Fig. 3c: efficiency vs artificial network delay at 10,000 el/s."""
    configs: list[ExperimentConfig] = []
    for delay in TABLE1_NETWORK_DELAYS_MS:
        configs.append(_point("vanilla", delay_ms=delay,
                              label=f"fig3c vanilla delay={delay}ms"))
        for collector in TABLE1_COLLECTOR_LIMITS:
            for algorithm in ("compresschain", "hashchain"):
                configs.append(_point(algorithm, delay_ms=delay, collector=collector,
                                      label=f"fig3c {algorithm} c={collector} delay={delay}ms"))
    return configs


def figure4_scenarios() -> list[ExperimentConfig]:
    """Fig. 4: latency CDFs, 10 servers, 1,250 el/s, collector 100, no delay."""
    return [_point(algorithm, rate=1_250, collector=100, label=f"fig4 {algorithm}")
            for algorithm in ("vanilla", "compresschain", "hashchain")]


def figure5_grids() -> dict[str, list[ExperimentConfig]]:
    """Fig. 5 uses the same grids as Fig. 3 (commit-time quantiles instead of efficiency)."""
    return {"rate": figure3a_grid(), "servers": figure3b_grid(), "delay": figure3c_grid()}


def table1_parameters() -> dict[str, tuple]:
    """Table 1 verbatim."""
    return {
        "sending_rate (el/s)": TABLE1_SENDING_RATES,
        "collector_limit (el)": TABLE1_COLLECTOR_LIMITS,
        "server_count": TABLE1_SERVER_COUNTS,
        "network_delay (ms)": TABLE1_NETWORK_DELAYS_MS,
    }
