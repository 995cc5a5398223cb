"""Analysis layer: metrics collection, the paper's analytical model, and the
throughput / efficiency / latency / commit-time computations behind every
figure and table of the evaluation.
"""

from .metrics import ElementRecord, MetricsCollector
from .analytical import (
    AnalyticalParameters,
    vanilla_throughput,
    compresschain_throughput,
    hashchain_throughput,
    paper_analysis_parameters,
)
from .throughput import rolling_throughput, average_throughput, ThroughputSeries
from .efficiency import efficiency_at, EfficiencyResult
from .latency import stage_latencies, LatencyCDF
from .committime import commit_time_quantiles, CommitTimeSummary
from .report import render_table, render_series

__all__ = [
    "ElementRecord",
    "MetricsCollector",
    "AnalyticalParameters",
    "vanilla_throughput",
    "compresschain_throughput",
    "hashchain_throughput",
    "paper_analysis_parameters",
    "rolling_throughput",
    "average_throughput",
    "ThroughputSeries",
    "efficiency_at",
    "EfficiencyResult",
    "stage_latencies",
    "LatencyCDF",
    "commit_time_quantiles",
    "CommitTimeSummary",
    "render_table",
    "render_series",
]
