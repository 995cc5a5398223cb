"""Prometheus text exposition: render service scrapes, parse/validate output.

:func:`render_snapshot` turns one :meth:`ServiceRuntime.metrics_snapshot`
dict (taken under the runtime lock, rendered outside it) into the Prometheus
text format served by ``GET /metrics?format=prometheus``.  The metric
vocabulary mirrors the JSON scrape: ``repro_injected_total``,
``repro_ingress_total{verdict=...}``, per-server gauges labelled by server
name, ledger and membership gauges.

:func:`parse_exposition` is the tiny validating parser the ``trace-smoke``
job and the tests run over the rendered output: it checks metric-name and
label syntax, ``# TYPE`` declarations preceding their samples, and histogram
``+Inf``/``_count`` consistency — enough to catch every malformed line a
renderer bug could produce, with no dependencies.
"""

from __future__ import annotations

import re
from typing import Any, Mapping

from ..errors import ConfigurationError
from .trace import summarize_phases

_METRIC_NAME = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*$")
_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)$")
_LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
_VALID_TYPES = frozenset(
    {"counter", "gauge", "histogram", "summary", "untyped"})

#: The content type Prometheus scrapers expect for the text format.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def format_value(value: Any) -> str:
    """One Prometheus sample value: ints bare, floats rounded, bools as 0/1."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(round(float(value), 6))


def _escape_label(value: str) -> str:
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


class _Lines:
    """Accumulates exposition lines, emitting TYPE headers once per metric."""

    def __init__(self) -> None:
        self._lines: list[str] = []
        self._typed: set[str] = set()

    def sample(self, name: str, kind: str, value: Any,
               labels: Mapping[str, Any] | None = None,
               help: str = "") -> None:
        if name not in self._typed:
            self._typed.add(name)
            if help:
                self._lines.append(f"# HELP {name} {help}")
            self._lines.append(f"# TYPE {name} {kind}")
        if labels:
            rendered = ",".join(f'{key}="{_escape_label(val)}"'
                                for key, val in labels.items())
            self._lines.append(f"{name}{{{rendered}}} {format_value(value)}")
        else:
            self._lines.append(f"{name} {format_value(value)}")

    def text(self) -> str:
        return "\n".join(self._lines) + "\n" if self._lines else "\n"


def render_snapshot(snapshot: Mapping[str, Any],
                    healthz: Mapping[str, Any] | None = None,
                    latencies: Mapping[str, list[float]] | None = None) -> str:
    """Render one service metrics snapshot as Prometheus exposition text.

    The snapshot must be a finished dict and ``latencies`` a finished
    ``Tracer.phase_latencies`` copy (one ``observability_snapshot()`` call —
    a single lock acquisition); this function only formats and never touches
    the runtime, so rendering happens outside the lock.
    """
    out = _Lines()
    out.sample("repro_service_info", "gauge", 1,
               {"label": snapshot.get("label", ""),
                "algorithm": snapshot.get("algorithm", "")},
               help="Static service identity (value is always 1).")
    out.sample("repro_now_seconds", "gauge", snapshot.get("now", 0.0),
               help="Current simulated time.")
    out.sample("repro_ticks_total", "counter", snapshot.get("ticks", 0),
               help="Service ticks driven so far.")
    out.sample("repro_injected_total", "counter", snapshot.get("injected", 0),
               help="Elements injected into the deployment.")
    out.sample("repro_committed_total", "counter",
               snapshot.get("committed", 0),
               help="Elements whose commit has been observed.")
    out.sample("repro_committed_this_run_total", "counter",
               snapshot.get("committed_this_run", 0))
    out.sample("repro_recovered_commits_total", "counter",
               snapshot.get("recovered_commits", 0))
    out.sample("repro_committed_fraction", "gauge",
               snapshot.get("committed_fraction", 0.0))
    first_commit = snapshot.get("first_commit")
    if first_commit is not None:
        out.sample("repro_first_commit_seconds", "gauge", first_commit)
    out.sample("repro_rolling_throughput", "gauge",
               snapshot.get("rolling_throughput", 0.0),
               help="Commit throughput over the rolling window (el/s).")
    ingress = snapshot.get("ingress", {})
    for verdict in ("accepted", "deferred", "rejected", "drained",
                    "server_rejected"):
        out.sample("repro_ingress_total", "counter",
                   ingress.get(verdict, 0), {"verdict": verdict},
                   help="Ingress submissions by backpressure verdict.")
    out.sample("repro_ingress_queue_depth", "gauge",
               ingress.get("queue_depth", 0),
               help="Elements waiting in the ingress queue.")
    out.sample("repro_ingress_queue_limit", "gauge",
               ingress.get("queue_limit", 0))
    for server, state in snapshot.get("servers", {}).items():
        labels = {"server": server}
        out.sample("repro_server_crashed", "gauge",
                   state.get("crashed", False), labels)
        out.sample("repro_server_byzantine", "gauge",
                   state.get("byzantine", False), labels)
        out.sample("repro_server_backlog", "gauge",
                   state.get("backlog", 0), labels,
                   help="Pending block-processing work items.")
        out.sample("repro_server_epoch", "gauge",
                   state.get("epoch", 0), labels)
    ledger = snapshot.get("ledger", {})
    if "height" in ledger:
        out.sample("repro_ledger_height", "gauge", ledger["height"])
    if "pending" in ledger:
        out.sample("repro_ledger_pending", "gauge", ledger["pending"])
    if "durable" in ledger:
        out.sample("repro_ledger_durable", "gauge", ledger["durable"])
    if "resumed_from" in ledger:
        out.sample("repro_ledger_resumed_from", "gauge",
                   ledger["resumed_from"])
    out.sample("repro_recovered_blocks", "gauge",
               snapshot.get("recovered_blocks", 0))
    membership = snapshot.get("membership")
    if membership:
        out.sample("repro_membership_epoch", "gauge",
                   membership.get("epoch", 0))
        out.sample("repro_membership_size", "gauge",
                   membership.get("size", 0))
        out.sample("repro_membership_quorum", "gauge",
                   membership.get("quorum", 0))
    if healthz is not None:
        out.sample("repro_healthy", "gauge",
                   healthz.get("status") == "ok",
                   help="1 while a commit quorum of servers is live.")
        out.sample("repro_live_servers", "gauge",
                   healthz.get("live_servers", 0))
        out.sample("repro_quorum", "gauge", healthz.get("quorum", 0))
    if latencies is not None:
        phases = sorted(summarize_phases(latencies).items())
        if phases:
            lines = out._lines
            lines.append("# HELP repro_phase_latency_seconds Per-phase "
                         "latency since injection (sampled elements).")
            lines.append("# TYPE repro_phase_latency_seconds summary")
            for phase, stats in phases:
                for quantile, key in (("0.5", "p50"), ("0.95", "p95"),
                                      ("0.99", "p99")):
                    lines.append(
                        f'repro_phase_latency_seconds{{phase="{phase}",'
                        f'quantile="{quantile}"}} '
                        f"{format_value(stats[key])}")
                total = sum(latencies[phase])
                lines.append(f'repro_phase_latency_seconds_sum'
                             f'{{phase="{phase}"}} {format_value(total)}')
                lines.append(f'repro_phase_latency_seconds_count'
                             f'{{phase="{phase}"}} {stats["count"]}')
    return out.text()


# -- validation ---------------------------------------------------------------

def _base_name(name: str, types: Mapping[str, str]) -> str:
    """Map a ``_bucket``/``_sum``/``_count`` series to its parent metric."""
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            parent = name[: -len(suffix)]
            if types.get(parent) in ("histogram", "summary"):
                return parent
    return name


def parse_exposition(text: str) -> dict[str, dict[str, Any]]:
    """Parse and validate Prometheus text exposition.

    Returns ``{metric_name: {"type": ..., "samples": [(labels, value)]}}``.
    Raises :class:`ConfigurationError` on the first format violation: bad
    metric/label syntax, a sample before (or without) its ``# TYPE``, an
    unknown type, a non-numeric value, or a histogram without ``+Inf``.
    """
    if not text.endswith("\n"):
        raise ConfigurationError("exposition must end with a newline")
    types: dict[str, str] = {}
    metrics: dict[str, dict[str, Any]] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] == "TYPE":
                name, kind = parts[2], (parts[3] if len(parts) > 3 else "")
                if not _METRIC_NAME.match(name):
                    raise ConfigurationError(
                        f"line {number}: invalid metric name {name!r}")
                if kind not in _VALID_TYPES:
                    raise ConfigurationError(
                        f"line {number}: invalid metric type {kind!r}")
                if name in types:
                    raise ConfigurationError(
                        f"line {number}: duplicate TYPE for {name!r}")
                if name in metrics:
                    raise ConfigurationError(
                        f"line {number}: TYPE for {name!r} after its samples")
                types[name] = kind
            elif len(parts) >= 3 and parts[1] == "HELP":
                if not _METRIC_NAME.match(parts[2]):
                    raise ConfigurationError(
                        f"line {number}: invalid metric name in HELP")
            continue
        match = _SAMPLE.match(line)
        if match is None:
            raise ConfigurationError(f"line {number}: malformed sample {line!r}")
        name = match.group("name")
        labels: dict[str, str] = {}
        raw_labels = match.group("labels")
        if raw_labels:
            consumed = 0
            for pair in _LABEL_PAIR.finditer(raw_labels):
                if not _LABEL_NAME.match(pair.group(1)):
                    raise ConfigurationError(
                        f"line {number}: invalid label name {pair.group(1)!r}")
                labels[pair.group(1)] = pair.group(2)
                consumed += pair.end() - pair.start()
            leftovers = re.sub(r"[,\s]", "", _LABEL_PAIR.sub("", raw_labels))
            if leftovers:
                raise ConfigurationError(
                    f"line {number}: malformed labels {raw_labels!r}")
        raw_value = match.group("value")
        try:
            value = float(raw_value)
        except ValueError:
            if raw_value not in ("NaN", "+Inf", "-Inf"):
                raise ConfigurationError(
                    f"line {number}: non-numeric value {raw_value!r}")
            value = float("nan") if raw_value == "NaN" else float(
                raw_value.replace("Inf", "inf"))
        base = _base_name(name, types)
        if base not in types:
            raise ConfigurationError(
                f"line {number}: sample for {name!r} without a # TYPE")
        metrics.setdefault(base, {"type": types[base], "samples": []})
        metrics[base]["samples"].append((labels, value))
    for name, kind in types.items():
        if kind == "histogram" and name in metrics:
            buckets = [(labels, value) for labels, value
                       in metrics[name]["samples"] if "le" in labels]
            if buckets and not any(labels["le"] == "+Inf"
                                   for labels, _ in buckets):
                raise ConfigurationError(
                    f"histogram {name!r} has no +Inf bucket")
    return metrics
