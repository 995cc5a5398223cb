"""Parallel scenario execution for sweeps and benchmarks.

Registry sweeps are embarrassingly parallel — every scenario runs its own
simulator, RNG, and deployment — so :func:`iter_spec_results` fans a list of
:class:`RunSpec` out over a :mod:`multiprocessing` pool and yields the
:class:`~repro.api.results.RunResult` objects in input order.

Determinism: two global id counters (element ids in
:mod:`repro.workload.elements`, message ids in :mod:`repro.net.message`)
otherwise leak state between runs sharing a process, which would make a
serial sweep differ from a parallel one.  :func:`reset_run_counters` gives
every run a fresh id namespace, so the same ``(scenario, seed)`` produces a
byte-identical ``RunResult`` JSON artifact regardless of ``--jobs`` or of
which scenarios ran before it in the same process.
"""

from __future__ import annotations

import argparse
import itertools
import multiprocessing
import os
from dataclasses import dataclass
from typing import Iterator, Sequence

from .results import RunResult


def jobs_arg(text: str) -> int:
    """argparse ``type=`` parser for ``--jobs N|auto`` (shared by the CLIs);
    ``auto`` is one worker per available core."""
    if text == "auto":
        return os.cpu_count() or 1
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("jobs must be >= 1 (or 'auto')")
    return value


def reset_run_counters() -> None:
    """Start a fresh id namespace (element/message/tx ids) for the next run."""
    from ..ledger import types as ledger_types
    from ..net import message
    from ..workload import elements
    elements._element_counter = itertools.count()
    message._msg_counter = itertools.count()
    ledger_types._tx_counter = itertools.count()


@dataclass(frozen=True)
class RunSpec:
    """One scenario execution request: catalog name plus run options."""

    name: str
    scale: float = 1.0
    seed: int | None = None
    to_completion: bool = False
    #: Lifecycle-tracing sample rate; ``None`` runs untraced (the default),
    #: keeping artifacts byte-identical to the pre-observability schema.
    trace_sample: float | None = None
    #: Where to write the trace file (requires ``trace_sample``); ``None``
    #: keeps the telemetry in the RunResult only.
    trace_out: str | None = None
    trace_format: str = "chrome"


def execute_spec(spec: RunSpec) -> RunResult:
    """Run one spec in a fresh id namespace (the pool worker entry point).

    A traced spec overrides ``trace_sample`` on the resolved config; the
    tracer draws from its own derived RNG stream, so the simulation schedule
    — and therefore the trace file — is a pure function of ``(name, scale,
    seed, trace_sample)``, independent of which worker process runs the spec.
    """
    from .session import Session, _resolve_config
    reset_run_counters()
    config = _resolve_config(spec.name)
    if spec.trace_sample is not None:
        config = config.with_overrides(trace_sample=spec.trace_sample)
    session = Session(config, scale=spec.scale, seed=spec.seed).start()
    if spec.to_completion:
        session.run_to_completion()
    else:
        session.run()
    result = session.result()
    if spec.trace_out is not None:
        from ..obs.export import write_trace
        assert session.deployment.tracer is not None
        write_trace(session.deployment.tracer, spec.trace_out,
                    fmt=spec.trace_format, label=session.config.label)
    return result


def iter_spec_results(specs: Sequence[RunSpec],
                      jobs: int = 1) -> Iterator[RunResult]:
    """Yield each spec's result in input order, as soon as it is available.

    ``jobs <= 1`` runs inline (no pool) through the exact same per-run reset,
    so serial and parallel sweeps produce identical artifacts.  Results are
    yielded incrementally (``imap`` under the hood), so a consumer can
    persist each one before the next finishes — a failure mid-sweep does not
    discard the work already completed.
    """
    specs = list(specs)
    if jobs <= 1 or len(specs) <= 1:
        for spec in specs:
            yield execute_spec(spec)
        return
    with multiprocessing.Pool(processes=min(jobs, len(specs))) as pool:
        yield from pool.imap(execute_spec, specs)
