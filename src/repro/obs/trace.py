"""Element-lifecycle tracing over simulated time.

A :class:`Tracer` hangs off the :class:`~repro.analysis.metrics.MetricsCollector`,
whose ``record_*`` methods are the one seam the servers report through and
forward every phase transition as it is observed (the
:class:`~repro.core.deployment.Deployment` adds the fault, membership and
shard annotations the collector never sees)::

    injected → collector_queued → flushed → signed → in_ledger
             → epoch_assigned → committed

Design constraints, in order:

* **Zero cost when absent.**  Every hook is a single
  ``if self.tracer is not None:`` check inside the collector; no tracer, no
  work, and the PR 3-8 golden artifacts stay byte-identical.
* **Deterministic.**  All timestamps are simulated seconds; the sampling
  policy draws from a dedicated stream derived with
  ``derive_seed(seed, "trace")`` and never touches ``sim.rng``, so enabling
  tracing cannot perturb a run, and the same ``(scenario, seed,
  trace_sample)`` always produces byte-identical trace files — including
  across ``sweep --jobs 1`` vs ``--jobs 4`` worker processes.
* **Batch-aware.**  The ``*_many`` recording paths take one timeline event
  per call plus one dict probe per element, so million-element runs stay
  within the tracing overhead budget; per-element state is bounded by the
  sampling rate.

Two kinds of data accumulate:

* **timeline events** — ``(t, track, name, count)`` tuples, one per
  recording call, placed on a track per server plus the synthetic
  ``collector`` (injection side) and ``ledger`` tracks.  These become the
  Chrome ``trace_event`` / JSONL exports (:mod:`repro.obs.export`), written
  in simulated-time order (:meth:`Tracer.timeline`).
* **element spans** — per *sampled* element, the earliest observation time of
  each phase.  These yield exact per-phase latency percentiles for
  ``RunResult.telemetry`` and ``repro report --phases``.
"""

from __future__ import annotations

from math import inf
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from ..errors import ConfigurationError
from ..sim.rng import DeterministicRNG, derive_seed
from .registry import Registry, flush_size_summary, phase_percentiles

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.deployment import Deployment

#: Lifecycle phases in pipeline order.  ``injected`` is the epoch every
#: latency is measured from; the rest each carry a latency distribution.
PHASES: tuple[str, ...] = ("injected", "collector_queued", "flushed",
                           "signed", "in_ledger", "epoch_assigned",
                           "committed")

#: Synthetic track names (server tracks use the server's own name).
TRACK_COLLECTOR = "collector"
TRACK_LEDGER = "ledger"


def _us(t: float) -> int:
    """Simulated seconds -> integer microseconds (byte-stable in JSON)."""
    return int(round(t * 1e6))


class Tracer:
    """Deterministic lifecycle tracer; see the module docstring."""

    __slots__ = ("sample", "seed", "_rng", "_stamps", "events", "registry",
                 "sampled_elements", "skipped_elements")

    def __init__(self, sample: float = 1.0, seed: int = 0) -> None:
        if not 0.0 < sample <= 1.0:
            raise ConfigurationError(
                f"trace_sample must be within (0, 1], got {sample!r}")
        self.sample = float(sample)
        self.seed = int(seed)
        # A dedicated derived stream: tracing must never consume sim.rng.
        self._rng = DeterministicRNG(derive_seed(self.seed, "trace"))
        #: element_id -> {phase: simulated time} for sampled elements only.
        self._stamps: dict[int, dict[str, float]] = {}
        #: Timeline: (simulated seconds, track, name, count) in recording
        #: order; a pipeline run reports past instants, so read :meth:`timeline`.
        self.events: list[tuple[float, str, str, int]] = []
        self.registry = Registry()
        self.sampled_elements = 0
        self.skipped_elements = 0

    # -- recording (hot paths; callers gate on `if tracer is not None`) -------

    def injected_many(self, element_ids: Sequence[int], t: float) -> None:
        """One injection tick: the sampling decision happens here, once per
        element, in injection order (deterministic across batching)."""
        self.events.append((t, TRACK_COLLECTOR, "injected",
                            len(element_ids)))
        stamps = self._stamps
        if self.sample >= 1.0:
            fresh = 0
            for element_id in element_ids:
                if element_id not in stamps:
                    stamps[element_id] = {"injected": t}
                    fresh += 1
            self.sampled_elements += fresh
            return
        draw = self._rng.random
        sample = self.sample
        for element_id in element_ids:
            if element_id in stamps:
                continue
            if draw() < sample:
                stamps[element_id] = {"injected": t}
                self.sampled_elements += 1
            else:
                self.skipped_elements += 1

    def phase_many(self, element_ids: Sequence[int], phase: str, t: float,
                   track: str) -> None:
        """Record ``phase`` for a batch of elements at simulated time ``t``.

        Emits one timeline event on ``track`` and keeps, per *sampled*
        element, the earliest observation of the phase, not the first
        reported: a pipeline run reports past instants, in no global order.
        """
        self.events.append((t, track, phase, len(element_ids)))
        stamps = self._stamps
        for element_id in element_ids:
            span = stamps.get(element_id)
            if span is not None and span.get(phase, inf) > t:
                span[phase] = t

    def annotate(self, t: float, track: str, name: str) -> None:
        """A non-phase marker (fault, membership, byzantine) on a track."""
        self.events.append((t, track, name, 0))

    # -- derived views --------------------------------------------------------

    def timeline(self) -> list[tuple[float, str, str, int]]:
        """The events in simulated-time order (stable, so same-instant events
        keep the order they were recorded in)."""
        return sorted(self.events, key=itemgetter(0))

    def tracks(self) -> list[str]:
        """All track names observed so far, sorted (export tid order)."""
        return sorted({event[1] for event in self.events})

    def spans(self) -> dict[int, dict[str, float]]:
        """Per-sampled-element phase timestamps (read-only view)."""
        return self._stamps

    @property
    def phase_latencies(self) -> dict[str, list[float]]:
        """Per phase, every sampled element's latency since its injection
        (read off the spans, in sampling order)."""
        return {phase: [span[phase] - span["injected"]
                        for span in self._stamps.values() if phase in span]
                for phase in PHASES[1:]}

    def phase_summary(self) -> dict[str, dict[str, Any]]:
        """count/p50/p95/p99/max per phase with at least one observation."""
        return {phase: phase_percentiles(sorted(latencies))
                for phase, latencies in self.phase_latencies.items()
                if latencies}

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
        registry = self.registry.snapshot()
        if registry:
            report["registry"] = registry
        return report
