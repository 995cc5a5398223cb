"""Regenerators for the paper's tables."""

from __future__ import annotations

from ..analysis.analytical import (
    compresschain_throughput,
    hashchain_throughput,
    paper_analysis_parameters,
    vanilla_throughput,
)
from ..analysis.report import render_table
from .figures import run_point
from .scenarios import figure1_scenarios, table1_parameters

#: The values Appendix D.1 reports (el/s), used as reference columns.
PAPER_ANALYTICAL_VALUES = {
    "vanilla": 955.0,
    "compresschain c=100": 2_497.0,
    "compresschain c=500": 3_330.0,
    "hashchain c=100": 27_157.0,
    "hashchain c=500": 147_857.0,
}

#: The averages Table 2 reports for Fig. 1's three panels (el/s up to 50 s).
PAPER_TABLE2_VALUES = {
    ("vanilla", "left"): 171.0,
    ("vanilla", "center"): 100.0,
    ("vanilla", "right"): 100.0,
    ("compresschain", "left"): 996.0,
    ("compresschain", "center"): 571.0,
    ("compresschain", "right"): 743.0,
    ("hashchain", "left"): 4_183.0,
    ("hashchain", "center"): 2_540.0,
    ("hashchain", "right"): 7_369.0,
}


def table1() -> str:
    """Table 1: the evaluation parameter grid."""
    params = table1_parameters()
    rows = [[name, ", ".join(str(v) for v in values)] for name, values in params.items()]
    return render_table(["Name", "Values"], rows, title="Table 1: Setchain evaluation parameters")


def appendix_d1() -> dict[str, float]:
    """Appendix D.1: analytical throughput of every algorithm/collector combination."""
    p100 = paper_analysis_parameters(100)
    p500 = paper_analysis_parameters(500)
    return {
        "vanilla": vanilla_throughput(p500),
        "compresschain c=100": compresschain_throughput(p100),
        "compresschain c=500": compresschain_throughput(p500),
        "hashchain c=100": hashchain_throughput(p100),
        "hashchain c=500": hashchain_throughput(p500),
    }


def table2(scale: float = 10.0) -> list[dict[str, object]]:
    """Table 2: average throughput up to 50 s for the Fig. 1 scenarios.

    Measured values are produced at the given scale; ``scaled_paper_value``
    divides the paper's number by the same scale so shapes can be compared
    directly, and ``ratio_vs_paper`` is measured / scaled-paper.
    """
    rows: list[dict[str, object]] = []
    for panel, configs in figure1_scenarios().items():
        for config in configs:
            outcome = run_point(config, scale, horizon=120.0)
            paper_value = PAPER_TABLE2_VALUES.get((config.algorithm, panel))
            scaled_paper = paper_value / scale if paper_value is not None else None
            rows.append({
                "panel": panel,
                "algorithm": config.algorithm,
                "collector": config.setchain.collector_limit,
                "sending_rate": config.workload.sending_rate,
                "avg_throughput_50s": outcome.avg_throughput_50s,
                "paper_value": paper_value,
                "scaled_paper_value": scaled_paper,
                "ratio_vs_paper": (outcome.avg_throughput_50s / scaled_paper
                                   if scaled_paper else None),
            })
    return rows


def render_table2(rows: list[dict[str, object]]) -> str:
    """Text rendering of :func:`table2` output."""
    headers = ["panel", "algorithm", "collector", "measured el/s",
               "paper el/s (scaled)", "ratio"]
    body = [[r["panel"], r["algorithm"], r["collector"],
             round(float(r["avg_throughput_50s"]), 1),
             round(float(r["scaled_paper_value"]), 1) if r["scaled_paper_value"] else "-",
             round(float(r["ratio_vs_paper"]), 2) if r["ratio_vs_paper"] else "-"]
            for r in rows]
    return render_table(headers, body, title="Table 2: average throughput up to 50 s")
