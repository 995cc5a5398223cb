"""Metrics collection: the element-lifecycle table and system counters.

The paper instruments its deployment by collecting and post-processing logs;
here the :class:`MetricsCollector` is handed to every server and client hook
and records the first time each lifecycle stage is reached *anywhere* in the
deployment (global first-observation semantics, matching log analysis over all
containers):

``injected → added → flushed → signed → in_ledger → epoch_assigned → committed``

one :class:`ElementRecord` row per element — the one lifecycle table, which
the tracer's spans, the telemetry and the trace exports read
(:mod:`repro.obs.trace`) — plus the mempool stages of Fig. 4 which are
reconstructed post-run from the ledger nodes' mempool arrival tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Collection, Iterable, Mapping, Sequence

from ..obs.trace import TRACK_LEDGER, Tracer
from ..workload.elements import Element


@dataclass(slots=True)
class ElementRecord:
    """Lifecycle timestamps (simulated seconds) for one element.

    ``added_at`` is the tracer's ``collector_queued`` phase.  ``flushed_at``
    and ``signed_at`` are stamped on traced runs only: no untraced analysis
    reads them.  ``slots=True`` matters at million-element scale: one record
    exists per element, and the per-instance ``__dict__`` would otherwise
    dominate the collector's memory footprint.
    """

    element_id: int
    injected_at: float | None = None
    added_at: float | None = None
    flushed_at: float | None = None
    signed_at: float | None = None
    in_ledger_at: float | None = None
    epoch_assigned_at: float | None = None
    committed_at: float | None = None

    @property
    def committed(self) -> bool:
        return self.committed_at is not None

    def commit_latency(self) -> float | None:
        """Injection-to-commit latency, if both endpoints were observed."""
        if self.injected_at is None or self.committed_at is None:
            return None
        return self.committed_at - self.injected_at


@dataclass
class BatchFlushEvent:
    """One collector flush (batch appended to the ledger in some form)."""

    server: str
    n_items: int
    appended_bytes: int
    time: float


class MetricsCollector:
    """Accumulates raw observations during a run."""

    def __init__(self) -> None:
        self.elements: dict[int, ElementRecord] = {}
        #: ledger tx_id -> element ids carried by that transaction, and
        #: Hashchain batch hash -> element ids in the batch behind it: the
        #: sequences the servers hand over (a fresh list or a tuple), kept.
        self.tx_elements: dict[int, Sequence[int]] = {}
        self.hash_elements: dict[str, Sequence[int]] = {}
        self.batch_flushes: list[BatchFlushEvent] = []
        #: (server, success) counts of hash-reversal attempts.
        self.hash_reversal_success = 0
        self.hash_reversal_failure = 0
        #: epoch_number -> first commit observation time.
        self.epoch_commit_times: dict[int, float] = {}
        #: Server name -> region name; empty for homogeneous deployments.
        self.region_of: dict[str, str] = {}
        #: region -> elements first added at a server in that region.
        self.region_added: dict[str, int] = {}
        #: region -> elements whose commit was first observed in that region.
        self.region_committed: dict[str, int] = {}
        #: region -> earliest commit observation time in that region.
        self.region_first_commit: dict[str, float] = {}
        #: Server name -> shard index; empty for unsharded deployments.  The
        #: per-shard tallies mirror the region machinery: an element's shard
        #: is wherever it was first added/committed, which — thanks to the
        #: finalize_block origin filter — is always its owning shard.
        self.shard_of: dict[str, int] = {}
        #: shard -> elements first added at a server of that shard.
        self.shard_added: dict[int, int] = {}
        #: shard -> elements whose commit was first observed in that shard.
        self.shard_committed: dict[int, int] = {}
        #: shard -> commit observation times (drives per-shard throughput).
        self.shard_commit_times: dict[int, list[float]] = {}
        #: Byzantine-attribution counters (withheld requests, bogus hashes,
        #: invalid elements appended/refused, ...), aggregated over the run.
        self.byzantine_counters: dict[str, int] = {}
        #: The same counters broken down by server name.
        self.byzantine_by_server: dict[str, dict[str, int]] = {}
        # Incremental tallies behind injected_count/committed_count: each
        # lifecycle stage is recorded at most once per element, so counting at
        # record time replaces an O(elements) scan per poll — and completion
        # polling happens every block at million-element scale.
        self._injected_total = 0
        self._committed_total = 0
        #: Commits of elements this collector also saw injected: "committed
        #: this run" for a service resumed on a replayed (uninjected) prefix.
        self.committed_injected = 0
        #: Batch hashes whose elements already have ``in_ledger_at`` stamped.
        #: Every server re-reports every ledger batch; after the first report
        #: the remaining ``servers - 1`` are guaranteed no-ops, so they can
        #: skip the per-element pass entirely.
        self._ledger_hash_done: set[str] = set()
        #: epoch number -> the id tuple / frozenset last stamped in full.
        #: Servers share them (``SignatureScheme.epoch_records``), and a repeat
        #: with the same immutable object is a no-op: the full pass stamped
        #: every element, and the counters move on a first stamp only.
        self._assigned_ids: dict[int, tuple[int, ...]] = {}
        self._committed_content: dict[int, frozenset[Element]] = {}
        #: (committed_total, sorted times) behind :meth:`commit_times`.
        self._commit_times_cache: tuple[int, list[float]] | None = None
        #: (committed_total, sorted latencies) behind :meth:`commit_latencies`.
        self._commit_latencies_cache: tuple[int, list[float]] | None = None
        #: Lifecycle tracer, set by ``build_deployment`` when ``trace_sample``
        #: is configured; ``None`` keeps every hot path to one identity check.
        self.tracer: Tracer | None = None

    # -- regions ---------------------------------------------------------------

    def set_region_map(self, region_of: Mapping[str, str]) -> None:
        """Enable per-region breakdowns (server name -> region name)."""
        self.region_of = dict(region_of)
        for region in self.region_of.values():
            self.region_added.setdefault(region, 0)
            self.region_committed.setdefault(region, 0)

    def region_summary(self) -> dict[str, dict[str, Any]] | None:
        """Per-region breakdown, or ``None`` when no region map is set."""
        if not self.region_of:
            return None
        servers: dict[str, int] = {}
        for region in self.region_of.values():
            servers[region] = servers.get(region, 0) + 1
        return {
            region: {
                "servers": servers[region],
                "added": self.region_added.get(region, 0),
                "committed": self.region_committed.get(region, 0),
                "first_commit": self.region_first_commit.get(region),
            }
            for region in sorted(servers)
        }

    # -- shards ----------------------------------------------------------------

    def set_shard_map(self, shard_of: Mapping[str, int]) -> None:
        """Enable per-shard breakdowns (server name -> shard index)."""
        self.shard_of = dict(shard_of)
        for shard in self.shard_of.values():
            self.shard_added.setdefault(shard, 0)
            self.shard_committed.setdefault(shard, 0)
            self.shard_commit_times.setdefault(shard, [])

    def assign_shard(self, server: str, shard: int) -> None:
        """Enroll one server (a runtime joiner) into a shard."""
        self.shard_of[server] = shard
        self.shard_added.setdefault(shard, 0)
        self.shard_committed.setdefault(shard, 0)
        self.shard_commit_times.setdefault(shard, [])

    # -- element lifecycle ------------------------------------------------------

    def record_injected_many(self, elements: Sequence[Element],
                             time: float) -> list[Element]:
        """One injection tick: the first stamp per element wins.  Returns
        the elements this call stamped, in order."""
        records = self.elements
        make = ElementRecord
        fresh: list[Element] = []
        keep = fresh.append
        for element in elements:
            element_id = element.element_id
            record = records.get(element_id)
            if record is None:
                records[element_id] = make(element_id, time)
                keep(element)
            elif record.injected_at is None:
                record.injected_at = time
                keep(element)
        self._injected_total += len(fresh)
        if self.tracer is not None:
            self.tracer.injected_many(
                [element.element_id for element in elements], time)
        return fresh

    def record_added_many(self, elements: Sequence[Element], server: str,
                          time: float) -> None:
        """Elements first accepted by ``server``: one pass, one region- and
        shard-counter update."""
        records = self.elements
        make = ElementRecord
        region = self.region_of.get(server)
        shard = self.shard_of.get(server)
        fresh = 0
        for element in elements:
            element_id = element.element_id
            record = records.get(element_id)
            if record is None:
                records[element_id] = make(element_id, added_at=time)
                fresh += 1
            elif record.added_at is None:
                record.added_at = time
                fresh += 1
        if region is not None and fresh:
            self.region_added[region] = self.region_added.get(region, 0) + fresh
        if shard is not None and fresh:
            self.shard_added[shard] = self.shard_added.get(shard, 0) + fresh
        if self.tracer is not None:
            self.tracer.annotate(time, server, "collector_queued", len(elements))

    def record_tx_elements(self, pairs: Iterable[tuple[int, Sequence[int]]]) -> None:
        """``(tx_id, element ids the transaction carries)`` per appended
        transaction; one call per flush or add burst."""
        self.tx_elements.update(pairs)

    def record_batch_hash_elements(self, batch_hash: str,
                                   element_ids: Sequence[int]) -> None:
        self.hash_elements.setdefault(batch_hash, element_ids)

    def record_in_ledger_run(self, element_ids: Sequence[int],
                             times: Sequence[float]) -> None:
        """One server's run of ledger observations, each at its own instant.

        Keeps the *earliest* instant per element (as does
        :meth:`record_in_ledger_many`), not the first report's: a run reports
        past instants, so reports do not arrive in time order.
        """
        records = self.elements
        make = ElementRecord
        for element_id, time in zip(element_ids, times):
            record = records.get(element_id)
            if record is None:
                records[element_id] = record = make(element_id=element_id)
            if record.in_ledger_at is None or time < record.in_ledger_at:
                record.in_ledger_at = time
        if self.tracer is not None:
            annotate = self.tracer.annotate
            for time in times:
                annotate(time, TRACK_LEDGER, "in_ledger", 1)

    def record_in_ledger_many(self, element_ids: Collection[int],
                              time: float) -> None:
        """Every element of one ledger batch, observed at one instant — every
        server re-observes every batch, so this runs ``servers × elements``
        times per run."""
        records = self.elements
        make = ElementRecord
        for element_id in element_ids:
            record = records.get(element_id)
            if record is None:
                records[element_id] = record = make(element_id=element_id)
            if record.in_ledger_at is None or time < record.in_ledger_at:
                record.in_ledger_at = time
        if self.tracer is not None:
            self.tracer.annotate(time, TRACK_LEDGER, "in_ledger", len(element_ids))

    def record_in_ledger_by_hash(self, batch_hash: str, time: float) -> None:
        if batch_hash in self._ledger_hash_done:
            return
        ids = self.hash_elements.get(batch_hash)
        if ids:
            self._ledger_hash_done.add(batch_hash)
            self.record_in_ledger_many(ids, time)

    def record_epoch_assigned_many(self, element_ids: Sequence[int],
                                   epoch_number: int, time: float,
                                   server: str = "?") -> None:
        """One epoch creation at ``server``: the first epoch an element lands
        in wins."""
        if self.tracer is not None:
            self.tracer.annotate(time, server, "epoch_assigned", len(element_ids))
        if self._assigned_ids.get(epoch_number) is element_ids:
            return
        records = self.elements
        make = ElementRecord
        for element_id in element_ids:
            record = records.get(element_id)
            if record is None:
                records[element_id] = make(element_id, epoch_assigned_at=time)
            elif record.epoch_assigned_at is None:
                record.epoch_assigned_at = time
        if isinstance(element_ids, tuple):
            self._assigned_ids[epoch_number] = element_ids

    def record_epoch_committed(self, epoch_number: int, elements: Collection[Element],
                               time: float, observer: str = "?") -> None:
        if epoch_number not in self.epoch_commit_times:
            self.epoch_commit_times[epoch_number] = time
        if self.tracer is not None:
            self.tracer.annotate(time, observer, "committed", len(elements))
        if self._committed_content.get(epoch_number) is elements:
            return
        records = self.elements
        make = ElementRecord
        fresh = injected = 0
        for element in elements:
            element_id = element.element_id
            record = records.get(element_id)
            if record is None:
                records[element_id] = record = make(element_id=element_id)
            if record.committed_at is None:
                record.committed_at = time
                fresh += 1
                if record.injected_at is not None:
                    injected += 1
        self._committed_total += fresh
        self.committed_injected += injected
        region = self.region_of.get(observer)
        if region is not None and fresh:
            self.region_committed[region] = self.region_committed.get(region, 0) + fresh
            self.region_first_commit.setdefault(region, time)
        shard = self.shard_of.get(observer)
        if shard is not None and fresh:
            self.shard_committed[shard] = self.shard_committed.get(shard, 0) + fresh
            self.shard_commit_times.setdefault(shard, []).extend([time] * fresh)
        if isinstance(elements, frozenset):
            self._committed_content[epoch_number] = elements

    def record_batch_flush(self, server: str, n_items: int, appended_bytes: int,
                           time: float, element_ids: Sequence[int],
                           signed: bool = False) -> None:
        """One collector flush carrying ``element_ids``; ``signed`` when the
        flush is also the instant the server signs the batch (Hashchain).

        Only a traced run stamps the elements' ``flushed_at``/``signed_at``
        (of elements with a record: a Byzantine server's own garbage has
        none); flushes happen at the current instant, so the first stamp is
        the earliest."""
        self.batch_flushes.append(BatchFlushEvent(server=server, n_items=n_items,
                                                  appended_bytes=appended_bytes,
                                                  time=time))
        tracer = self.tracer
        if tracer is None:
            return
        records = self.elements
        for element_id in element_ids:
            record = records.get(element_id)
            if record is None:
                continue
            if record.flushed_at is None:
                record.flushed_at = time
            if signed and record.signed_at is None:
                record.signed_at = time
        tracer.annotate(time, server, "flushed", len(element_ids))
        if signed:
            tracer.annotate(time, server, "signed", len(element_ids))

    def record_byzantine(self, server: str, counter: str,
                         time: float | None = None) -> None:
        """Attribute one Byzantine-related action (misbehaviour at a Byzantine
        server, or a refusal of Byzantine garbage at a correct one).  ``time``
        marks it on the server's trace track; a Vanilla pipeline run settles
        its refusals after the fact and gives none."""
        self.byzantine_counters[counter] = (
            self.byzantine_counters.get(counter, 0) + 1)
        per_server = self.byzantine_by_server.setdefault(server, {})
        per_server[counter] = per_server.get(counter, 0) + 1
        if self.tracer is not None and time is not None:
            self.tracer.annotate(time, server, f"byzantine:{counter}")

    def record_hash_reversal(self, server: str, batch_hash: str, success: bool,
                             time: float) -> None:
        if success:
            self.hash_reversal_success += 1
        else:
            self.hash_reversal_failure += 1

    # -- derived summaries ---------------------------------------------------------

    @property
    def injected_count(self) -> int:
        return self._injected_total

    @property
    def committed_count(self) -> int:
        return self._committed_total

    def commit_times(self) -> list[float]:
        """Sorted commit times of every committed element.

        The result is cached until another element commits (each element
        commits at most once, so ``_committed_total`` is a change counter) —
        post-run analyses poll this several times per run, and re-sorting a
        million floats per poll is measurable.  Callers must treat the
        returned list as read-only; every existing consumer does.
        """
        cached = self._commit_times_cache
        total = self._committed_total
        if cached is not None and cached[0] == total:
            return cached[1]
        times = sorted(r.committed_at for r in self.elements.values()
                       if r.committed_at is not None)
        self._commit_times_cache = (total, times)
        return times

    def commit_latencies(self) -> list[float]:
        """Sorted injection-to-commit latencies of committed elements.

        Cached exactly like :meth:`commit_times` — ``_committed_total`` only
        grows, and a latency exists once an element commits, so the counter is
        a change key here too.  The resilience and membership reports both
        call this several times per packaging pass; without the cache each
        call re-scans (and re-sorts) every element record.  Callers must
        treat the returned list as read-only; every existing consumer does.
        """
        cached = self._commit_latencies_cache
        total = self._committed_total
        if cached is not None and cached[0] == total:
            return cached[1]
        values = [r.commit_latency() for r in self.elements.values()]
        latencies = sorted(v for v in values if v is not None)
        self._commit_latencies_cache = (total, latencies)
        return latencies
