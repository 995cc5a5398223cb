"""Observability: deterministic tracing, telemetry, and Prometheus export.

The subsystem has three pillars (see :mod:`repro.obs.trace` for the design
constraints — zero cost when disabled, deterministic, batch-aware):

* :class:`Tracer` — element-lifecycle spans over simulated time, a view over
  the metrics collector's element records, enabled with
  ``ScenarioBuilder.trace(sample)`` / ``trace_sample=`` on the config or
  ``repro trace <scenario>`` on the CLI;
* :mod:`repro.obs.export` — Chrome ``trace_event`` and JSONL trace files;
* :mod:`repro.obs.prom` — the Prometheus text exposition served by
  ``GET /metrics?format=prometheus`` in service mode, and its validator.
"""

from .export import (
    export_chrome,
    export_jsonl,
    validate_trace_file,
    write_trace,
)
from .prom import parse_exposition, render_snapshot
from .trace import PHASES, TRACK_COLLECTOR, TRACK_LEDGER, Tracer

__all__ = [
    "PHASES",
    "TRACK_COLLECTOR",
    "TRACK_LEDGER",
    "Tracer",
    "export_chrome",
    "export_jsonl",
    "parse_exposition",
    "render_snapshot",
    "validate_trace_file",
    "write_trace",
]
