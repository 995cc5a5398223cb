"""Scaling scenarios down and packaging runs.

:class:`repro.api.Session` runs every scenario; this module holds what it
needs around a run: :func:`scaled_config` before it and
:func:`package_result` — the harness's packaging seam, which turns a run
deployment into its one :class:`~repro.api.results.RunResult` — after it.

The paper's full rates (up to 150,000 el/s for 50 s) are impractical for a
pure-Python discrete-event simulation, so the runner supports a *scale factor*
``s`` that divides the sending rate and the ledger block size by ``s`` while
multiplying the per-element processing costs and the collector timeout by
``s``.  This keeps every dimensionless ratio that determines the results —
offered load over analytical capacity, hash-reversal ceiling over offered
load, collector fill time versus flush timeout — unchanged, so orderings,
saturation behaviour and efficiency shapes match the unscaled system while
absolute el/s values are lower by ``s`` (recorded per run in EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import replace

from ..analysis.analytical import AnalyticalParameters, throughput_for
from ..analysis.committime import commit_time_quantiles
from ..analysis.efficiency import efficiency_profile
from ..analysis.throughput import average_throughput, rolling_throughput
from ..api.results import RunResult, config_echo
from ..config import ExperimentConfig, PAPER_COMPRESSION_RATIO
from ..core.deployment import Deployment
from ..errors import ConfigurationError


def scaled_config(config: ExperimentConfig, scale: float) -> ExperimentConfig:
    """Scale a paper scenario down by ``scale`` (see module docstring)."""
    if scale <= 0:
        raise ConfigurationError("scale must be positive")
    if scale == 1:
        return config
    workload = replace(config.workload,
                       sending_rate=config.workload.sending_rate / scale)
    ledger = replace(config.ledger,
                     block_size_bytes=max(2000, int(config.ledger.block_size_bytes / scale)))
    setchain = replace(config.setchain,
                       collector_timeout=config.setchain.collector_timeout * scale,
                       element_validation_time=config.setchain.element_validation_time * scale,
                       tx_processing_overhead=config.setchain.tx_processing_overhead * scale)
    return replace(config, workload=workload, ledger=ledger, setchain=setchain,
                   label=f"{config.label} (scale 1/{scale:g})")


def analytical_reference(config: ExperimentConfig) -> float:
    """The Appendix-D throughput bound for a (possibly scaled) configuration."""
    collector = config.setchain.collector_limit
    ratio = PAPER_COMPRESSION_RATIO.get(collector)
    if ratio is None:
        ratio = PAPER_COMPRESSION_RATIO[100] if collector < 300 else PAPER_COMPRESSION_RATIO[500]
    params = AnalyticalParameters(
        n_servers=config.setchain.n_servers,
        block_size_bytes=config.ledger.block_size_bytes,
        block_rate=config.ledger.block_rate,
        element_size=config.workload.element_size_mean,
        collector_size=max(collector, config.setchain.n_servers + 1),
        compression_ratio=ratio,
    )
    bound = throughput_for(config.algorithm, params)
    if config.shards is not None:
        # Shards are independent instances over the partitioned element
        # space, so the analytical ceiling scales linearly with their count.
        bound *= config.shards
    return bound


def package_result(deployment: Deployment, scale: float = 1.0) -> RunResult:
    """Package the standard analyses of a deployment as its :class:`RunResult`.

    The one packaging seam: :meth:`repro.api.Session.result` calls it after
    a batch run or to snapshot a run mid-flight, and every CLI, sweep,
    figure and table reads what it returns.
    """
    config = deployment.config
    metrics = deployment.metrics
    injected = len(deployment.injected_elements)
    commit_times = metrics.commit_times()
    throughput = rolling_throughput(commit_times, horizon=deployment.sim.now)
    summary = commit_time_quantiles(metrics, total_added=injected,
                                    label=config.label)
    return RunResult(
        label=config.label,
        algorithm=config.algorithm,
        scale=float(scale),
        config=config_echo(config),
        injected=injected,
        committed=metrics.committed_count,
        avg_throughput_50s=float(average_throughput(commit_times, up_to=50.0)),
        analytical_throughput=float(analytical_reference(config)),
        efficiency=efficiency_profile(metrics, label=config.label,
                                      total_added=injected).as_dict(),
        first_commit=summary.first_element,
        commit_fractions=tuple(sorted(summary.fraction_times.items())),
        throughput_times=throughput.times,
        throughput_values=throughput.values,
        regions=metrics.region_summary(),
        faults=(deployment.fault_injector.report()
                if deployment.fault_injector is not None else None),
        membership=deployment.membership_report(),
        telemetry=(deployment.tracer.telemetry_report(deployment)
                   if deployment.tracer is not None else None),
        shards=deployment.shard_report(),
    )
