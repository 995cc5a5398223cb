"""Element-lifecycle tracing over simulated time.

The lifecycle itself lives in one table: the
:class:`~repro.analysis.metrics.MetricsCollector`'s
:class:`~repro.analysis.metrics.ElementRecord` rows, stamped by the
collector's ``record_*`` methods — the one seam the servers report through::

    injected → collector_queued → flushed → signed → in_ledger
             → epoch_assigned → committed

A :class:`Tracer` hangs off that collector and adds only what the table does
not hold: which elements are sampled, and a timeline of the recording calls
(the :class:`~repro.core.deployment.Deployment` adds the fault, membership and
shard annotations the collector never sees).  Spans, phase latencies, the
``RunResult.telemetry`` block, ``repro report --phases`` and the exports are
views over the sampled rows.

Design constraints, in order:

* **Zero cost when absent.**  Every hook is a single
  ``if self.tracer is not None:`` check inside the collector, and the
  ``flushed``/``signed`` columns are stamped on traced runs only; no tracer,
  no work, and the golden artifacts stay byte-identical.
* **Deterministic.**  All timestamps are simulated seconds; the sampling
  policy draws from a dedicated stream derived with
  ``derive_seed(seed, "trace")`` and never touches ``sim.rng``, so enabling
  tracing cannot perturb a run, and the same ``(scenario, seed,
  trace_sample)`` always produces byte-identical trace files — including
  across ``sweep --jobs 1`` vs ``--jobs 4`` worker processes.
* **Batch-aware.**  Each recording call appends one timeline event, and the
  tracer keeps no per-element state beyond the sampled ids (none at all at
  full sampling).

Two kinds of data are exported:

* **timeline events** — ``(t, track, name, count)`` tuples, one per
  recording call, placed on a track per server plus the synthetic
  ``collector`` (injection side) and ``ledger`` tracks.  These become the
  Chrome ``trace_event`` / JSONL exports (:mod:`repro.obs.export`), written
  in simulated-time order (:meth:`Tracer.timeline`).
* **element spans** — per *sampled* element, its row of the table: the
  earliest observation of each phase.  These yield exact per-phase latency
  percentiles for ``RunResult.telemetry`` and ``repro report --phases``.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from ..errors import ConfigurationError
from ..sim.rng import DeterministicRNG, derive_seed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.metrics import ElementRecord, MetricsCollector
    from ..core.deployment import Deployment

#: Lifecycle phases in pipeline order.  ``injected`` is the epoch every
#: latency is measured from; the rest each carry a latency distribution.
PHASES: tuple[str, ...] = ("injected", "collector_queued", "flushed",
                           "signed", "in_ledger", "epoch_assigned",
                           "committed")

#: The :class:`~repro.analysis.metrics.ElementRecord` column of each phase.
PHASE_FIELDS: tuple[str, ...] = ("injected_at", "added_at", "flushed_at",
                                 "signed_at", "in_ledger_at",
                                 "epoch_assigned_at", "committed_at")

_ROW = attrgetter(*PHASE_FIELDS)

#: Synthetic track names (server tracks use the server's own name).
TRACK_COLLECTOR = "collector"
TRACK_LEDGER = "ledger"

#: Flush-size histogram ladder: powers of two from 1 up to ~16M items.
SIZE_BUCKETS: tuple[float, ...] = tuple(float(2 ** i) for i in range(25))


def _us(t: float) -> int:
    """Simulated seconds -> integer microseconds (byte-stable in JSON)."""
    return int(round(t * 1e6))


def _round6(value: float) -> float:
    return round(float(value), 6)


def span_of(record: "ElementRecord") -> dict[str, float]:
    """One table row as ``{phase: simulated time}`` for the phases it reached."""
    return {phase: t for phase, t in zip(PHASES, _ROW(record))
            if t is not None}


class Tracer:
    """Deterministic lifecycle tracer; see the module docstring."""

    __slots__ = ("sample", "seed", "_rng", "_metrics", "_sampled", "events",
                 "skipped_elements")

    def __init__(self, metrics: "MetricsCollector", sample: float = 1.0,
                 seed: int = 0) -> None:
        if not 0.0 < sample <= 1.0:
            raise ConfigurationError(
                f"trace_sample must be within (0, 1], got {sample!r}")
        self.sample = float(sample)
        self.seed = int(seed)
        # A dedicated derived stream: tracing must never consume sim.rng.
        self._rng = DeterministicRNG(derive_seed(self.seed, "trace"))
        #: The lifecycle table this tracer is a view over.
        self._metrics = metrics
        #: Ids drawn into the sample; ``None`` at full sampling, where every
        #: injected element is sampled.
        self._sampled: set[int] | None = None if self.sample >= 1.0 else set()
        #: Timeline: (simulated seconds, track, name, count) in recording
        #: order; a pipeline run reports past instants, so read :meth:`timeline`.
        self.events: list[tuple[float, str, str, int]] = []
        self.skipped_elements = 0

    # -- recording (hot paths; callers gate on `if tracer is not None`) -------

    def injected_many(self, element_ids: Sequence[int], t: float) -> None:
        """One injection tick: the sampling decision happens here, once per
        element, in injection order (deterministic across batching)."""
        self.events.append((t, TRACK_COLLECTOR, "injected", len(element_ids)))
        sampled = self._sampled
        if sampled is None:
            return
        draw = self._rng.random
        sample = self.sample
        for element_id in element_ids:
            if element_id in sampled:
                continue
            if draw() < sample:
                sampled.add(element_id)
            else:
                self.skipped_elements += 1

    def annotate(self, t: float, track: str, name: str, count: int = 0) -> None:
        """One timeline event on ``track``: a phase observed for ``count``
        elements, or a marker (fault, membership, byzantine) with count 0."""
        self.events.append((t, track, name, count))

    # -- derived views --------------------------------------------------------

    @property
    def sampled_elements(self) -> int:
        """Elements drawn into the sample (every injected one at 1.0)."""
        if self._sampled is None:
            return self._metrics.injected_count
        return len(self._sampled)

    def _rows(self) -> list["ElementRecord"]:
        """The sampled elements' rows of the lifecycle table."""
        records = self._metrics.elements
        if self._sampled is None:
            return [record for record in records.values()
                    if record.injected_at is not None]
        return [records[element_id] for element_id in self._sampled]

    def timeline(self) -> list[tuple[float, str, str, int]]:
        """The events in simulated-time order (stable, so same-instant events
        keep the order they were recorded in)."""
        return sorted(self.events, key=itemgetter(0))

    def tracks(self) -> list[str]:
        """All track names observed so far, sorted (export tid order)."""
        return sorted({event[1] for event in self.events})

    def spans(self) -> dict[int, dict[str, float]]:
        """Per sampled element, its phase timestamps."""
        return {record.element_id: span_of(record) for record in self._rows()}

    @property
    def phase_latencies(self) -> dict[str, list[float]]:
        """Per phase, every sampled element's latency since its injection."""
        latencies: dict[str, list[float]] = {phase: [] for phase in PHASES[1:]}
        columns = [latencies[phase] for phase in PHASES[1:]]
        for record in self._rows():
            injected, *stamps = _ROW(record)
            for column, t in zip(columns, stamps):
                if t is not None:
                    column.append(t - injected)
        return latencies

    def phase_summary(self) -> dict[str, dict[str, Any]]:
        """count/p50/p95/p99/max per phase with at least one observation."""
        return summarize_phases(self.phase_latencies)

    def telemetry_report(self,
                         deployment: "Deployment | None" = None) -> dict[str, Any]:
        """The ``RunResult.telemetry`` block (sorted keys, rounded floats).

        With a deployment, the always-on hot-seam counters (signature
        verify-cache, hashchain scan-cache, event queue, batch flush sizes)
        are snapshotted in; they are plain integer attributes maintained
        whether or not tracing is enabled, so reading them here costs the
        traced run nothing extra.
        """
        report: dict[str, Any] = {
            "sample": self.sample,
            "sampled_elements": self.sampled_elements,
            "skipped_elements": self.skipped_elements,
            "trace_events": len(self.events),
            "phases": self.phase_summary(),
        }
        if deployment is not None:
            scheme = deployment.scheme
            counters = {
                "verify_cache_hits": scheme.cache_hits,
                "verify_cache_misses": scheme.cache_misses,
                "verify_cache_evictions": scheme.cache_evictions,
                "scan_cache_hits": sum(
                    getattr(server, "scan_cache_hits", 0)
                    for server in deployment.servers),
                "events_executed": deployment.sim.events_executed,
                "events_pending": deployment.sim.pending_events(),
            }
            report["counters"] = counters
            flushes = flush_size_summary(deployment.metrics.batch_flushes)
            if flushes is not None:
                report["flush_sizes"] = flushes
        return report


def summarize_phases(latencies: dict[str, list[float]]) -> dict[str, dict[str, Any]]:
    """count/p50/p95/p99/max per phase of ``latencies`` that has any."""
    return {phase: phase_percentiles(sorted(values))
            for phase, values in latencies.items() if values}


def phase_percentiles(sorted_values: "list[float]") -> dict[str, Any]:
    """count/p50/p95/p99/max for a pre-sorted latency list (rounded).

    An empty list (a zero-commit run, or a phase no element reached) yields a
    zeroed row rather than indexing past the end — report tables render it as
    an all-zero line instead of crashing.
    """
    n = len(sorted_values)
    if n == 0:
        return {"count": 0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}

    def pick(q: float) -> float:
        return _round6(sorted_values[min(n - 1, int(q * n))])

    return {"count": n, "p50": pick(0.50), "p95": pick(0.95),
            "p99": pick(0.99), "max": _round6(sorted_values[-1])}


def flush_size_summary(flushes: Iterable[Any]) -> dict[str, Any] | None:
    """Batch-flush size statistics (items per flush) from
    :class:`~repro.analysis.metrics.BatchFlushEvent` records, or ``None``
    when no flushes happened (e.g. the vanilla algorithm).

    ``buckets`` counts the flushes per power-of-two upper bound (non-empty
    buckets only; ``+Inf`` past the ladder).
    """
    sizes = [int(f.n_items) for f in flushes]
    if not sizes:
        return None
    counts = Counter(bisect_left(SIZE_BUCKETS, size) for size in sizes)
    buckets = {repr(SIZE_BUCKETS[i]) if i < len(SIZE_BUCKETS) else "+Inf":
               counts[i] for i in sorted(counts)}
    return {"buckets": buckets, "sum": sum(sizes), "count": len(sizes),
            "max": max(sizes)}
