"""The service runtime: streamed ingest over a long-running deployment.

:class:`ServiceRuntime` turns a batch :class:`~repro.api.session.Session`
into a long-lived service: external producers submit elements into a bounded
ingress queue at any time (with explicit accept/defer/reject backpressure),
and the simulation advances in fixed ticks that drain the queue into the
live servers.  With a database bound (``db=...``), the deployment runs on the
durable ``sqlite`` ledger backend, periodically checkpoints hashchain batch
contents, and — when re-opened on an existing database — restores every
server from the persisted chain before accepting new traffic.

Faults reach a running service the way they reach a session: as
:mod:`repro.faults` events passed to :meth:`ServiceRuntime.apply` (joins and
drained leaves included), recorded in ``result().faults``;
:meth:`ServiceRuntime.rolling_restart` is a sequence of them.

Threading model: the simulator itself is single-threaded; the runtime guards
every entry point (submit / tick / apply / snapshot / stop) with one lock so
the :mod:`repro.service.http` endpoint can serve scrapes from its own thread
while the driving loop ticks.
"""

from __future__ import annotations

import threading
from collections import deque
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import Any, Iterator

from ..analysis.throughput import PAPER_ROLLING_WINDOW, recent_throughput
from ..api.results import RunResult
from ..api.session import Session, _resolve_config
from ..core.deployment import build_deployment
from ..core.types import HashBatch
from ..errors import ConfigurationError, SimulationError
from ..experiments.runner import scaled_config
from ..faults.events import Crash, FaultEvent, Recover, Targets
from ..workload.elements import Element, make_elements
from .persistence import SqliteLedger

#: Queue-depth fraction above which accepted submissions are flagged deferred.
DEFER_WATERMARK = 0.5


class ServiceRuntime:
    """A Setchain deployment driven as a service: stream in, tick, observe."""

    def __init__(self, scenario: Any = "service/default", *, db: str | Path | None = None,
                 seed: int | None = None, scale: float = 1.0, tick: float = 0.1,
                 queue_limit: int = 10_000, drain_per_tick: int | None = None,
                 checkpoint_every: int = 10) -> None:
        if tick <= 0:
            raise ConfigurationError("tick must be positive")
        if queue_limit < 1:
            raise ConfigurationError("queue_limit must be at least 1")
        if drain_per_tick is not None and drain_per_tick < 1:
            raise ConfigurationError("drain_per_tick must be at least 1")
        if checkpoint_every < 1:
            raise ConfigurationError("checkpoint_every must be at least 1")
        self.tick_duration = tick
        self.queue_limit = queue_limit
        self.drain_per_tick = drain_per_tick
        self.checkpoint_every = checkpoint_every
        self.db_path = str(db) if db is not None else None

        config = _resolve_config(scenario)
        if self.db_path is not None:
            config = config.with_overrides(ledger_backend="sqlite")
        # The runtime owns the database: it opens it here and closes (stop)
        # or abandons (kill) it, so it builds the deployment itself.
        self.deployment = build_deployment(scaled_config(config, scale),
                                           seed=seed, db_path=self.db_path)
        self.config = self.deployment.config

        #: Blocks replayed from a persisted ledger at startup (0 for fresh runs).
        self.recovered_blocks = self._restore()
        self.deployment.start(inject=False)
        self.session = Session(self.deployment, scale=scale)

        self._lock = threading.RLock()
        self._queue: deque[tuple[str, int]] = deque()
        self.ticks = 0
        self.restarts = 0
        self._stopped = False
        #: Ingress accounting: every submit() lands in exactly one bucket.
        self.accepted = 0
        self.deferred = 0
        self.rejected = 0
        #: Elements that left the queue through ``Deployment.admit`` and a
        #: server took / refused.  Both kinds are booked as injected.
        self.drained = 0
        self.server_rejected = 0

    # -- restart restoration ------------------------------------------------------

    def _batch_stores(self) -> Iterator[Any]:
        """Every hashchain batch store in the deployment (own and shared)."""
        for server in self.deployment.servers:
            for attr in ("store", "shared_store"):
                store = getattr(server, attr, None)
                if store is not None:
                    yield store

    def _restore(self) -> int:
        """Rebuild server state from a previously persisted ledger.

        Three steps, ordered before the first simulator advance: preload
        every server's batch store from the journal (hashchain keeps batch
        contents out-of-band), mark each server's own persisted hash-batches
        as already signed (so replay does not re-append them), then replay
        the chain into the freshly subscribed servers.
        """
        backend = self.deployment.ledger_backend
        if not isinstance(backend, SqliteLedger) or backend.resumed_from == 0:
            return 0
        self.restarts = 1
        batches = backend.journaled_batches()
        for store in self._batch_stores():
            for batch_hash, items in batches.items():
                store.register_remote(batch_hash, items)
        blocks = backend.persisted_blocks()
        by_name = {server.name: server for server in self.deployment.servers}
        for block in blocks:
            for tx in block.transactions:
                if isinstance(tx.payload, HashBatch):
                    signer = by_name.get(tx.payload.signer)
                    signed = getattr(signer, "_signed_hashes", None)
                    if signed is not None:
                        signed.add(tx.payload.batch_hash)
        return backend.replay_persisted(blocks)

    # -- ingest -------------------------------------------------------------------

    def submit(self, client: str = "service", size_bytes: int | None = None) -> str:
        """Offer one element for ingestion; returns the backpressure verdict.

        ``"accepted"`` — enqueued with headroom; ``"deferred"`` — enqueued but
        the queue is past its watermark (producers should slow down);
        ``"rejected"`` — the queue is full (or the service is stopped) and the
        submission was dropped.  Element ids are assigned at drain time, so a
        rejected submission costs nothing.
        """
        verdicts = self.submit_many(1, client=client, size_bytes=size_bytes)
        return next(verdict for verdict, n in verdicts.items() if n)

    def submit_many(self, count: int, client: str = "service",
                    size_bytes: int | None = None) -> dict[str, int]:
        """Submit ``count`` elements; returns verdict counts for the batch.

        The verdicts follow from the queue depth alone: submissions fit until
        the queue is full, and one that fits is deferred once it lifts the
        depth past the watermark.
        """
        size = size_bytes if size_bytes is not None else int(
            self.config.workload.element_size_mean)
        if size <= 0 or count < 0:
            raise ConfigurationError(
                "element size must be positive and the count non-negative")
        with self._lock:
            depth = len(self._queue)
            room = 0 if self._stopped else max(0, self.queue_limit - depth)
            taken = min(count, room)
            headroom = max(0, int(self.queue_limit * DEFER_WATERMARK) - depth)
            accepted = min(taken, headroom)
            verdicts = {"accepted": accepted, "deferred": taken - accepted,
                        "rejected": count - taken}
            self._queue.extend([(client, size)] * taken)
            self.accepted += verdicts["accepted"]
            self.deferred += verdicts["deferred"]
            self.rejected += verdicts["rejected"]
            return verdicts

    # -- advancing ----------------------------------------------------------------

    def tick(self) -> None:
        """One service tick: drain the queue, advance the sim."""
        with self._lock:
            if self._stopped:
                raise SimulationError("service runtime is stopped")
            self._drain()
            self.session.run_for(self.tick_duration)
            self.ticks += 1
            if (self.db_path is not None
                    and self.ticks % self.checkpoint_every == 0):
                self.checkpoint()

    def run_for(self, duration: float) -> None:
        """Advance the service by ``duration`` simulated seconds of ticks."""
        if duration < 0:
            raise ConfigurationError("duration cannot be negative")
        deadline = self.session.now + duration - 1e-9
        while self.session.now < deadline:
            self.tick()

    def _drain(self) -> None:
        """Admit this tick's budget from the queue as one round-robin burst.

        With nowhere to route — every server down, or no shard with a routable
        quorum — the queue is kept for later: ids are assigned here, so an
        unroutable tick must not consume any.
        """
        deployment = self.deployment
        queue = self._queue
        budget = min(len(queue), self.drain_per_tick or len(queue))
        if not budget or not deployment.routable():
            return
        burst = [queue.popleft() for _ in range(budget)]
        now = deployment.sim.now
        elements: list[Element] = []
        for client, run in groupby(burst, key=itemgetter(0)):
            elements += make_elements(client, [size for _, size in run],
                                      created_at=now)
        admitted = deployment.admit(elements)
        self.drained += admitted
        self.server_rejected += budget - admitted

    # -- operations ---------------------------------------------------------------

    def apply(self, *events: FaultEvent) -> list[dict]:
        """Apply fault events now (see :meth:`Session.apply`): a crash, a
        ``Join`` (scale out), a drained ``Leave`` (scale in; ingress routes
        around the leaver at once).  They appear in ``result().faults``."""
        with self._lock:
            if self._stopped:
                raise SimulationError("service runtime is stopped")
            return self.session.apply(*events)

    def rolling_restart(self, names: list[str] | None = None,
                        down_for: float = 1.0, between: float = 1.0) -> None:
        """Crash and recover each named server in sequence, ticking throughout."""
        for name in names if names is not None else [s.name for s in self.deployment.servers]:
            server = Targets(nodes=(name,))
            self.apply(Crash(targets=server))
            self.run_for(down_for)
            self.apply(Recover(targets=server))
            self.run_for(between)

    def checkpoint(self) -> int:
        """Journal the batches stored since the last checkpoint.

        Returns the number of batches *newly* journaled (0 without a
        database): batches are content-addressed, so the journal is
        write-once and a checkpoint costs what its new batches cost.  The
        chain needs no checkpointing — blocks are durable the moment they are
        cut.  Runs whose membership changed journal their epoch timeline
        alongside, so offline audits can verify it.
        """
        backend = self.deployment.ledger_backend
        if not isinstance(backend, SqliteLedger):
            return 0
        membership = self.deployment.membership
        if membership.changed:
            backend.journal_membership(
                [epoch.to_dict() for epoch in membership.epochs])
        batches: dict[str, tuple[object, ...]] = {}
        for store in self._batch_stores():
            batches.update(store.items())
        return backend.journal_batches(batches)

    # -- observation --------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return len(self._queue)

    @property
    def ingress_counters(self) -> dict[str, int]:
        with self._lock:
            return {"accepted": self.accepted, "deferred": self.deferred,
                    "rejected": self.rejected, "drained": self.drained,
                    "server_rejected": self.server_rejected,
                    "queue_depth": len(self._queue),
                    "queue_limit": self.queue_limit}

    def healthz(self) -> dict[str, Any]:
        """Liveness summary: ``ok`` while a commit quorum of servers is up.

        With dynamic membership both sides of the comparison follow the
        *current* epoch: only live current-epoch members count (a
        bootstrapping joiner or a draining leaver is not one), against that
        epoch's quorum — not the build-time f+1.  The payload always carries
        the epoch number (1 until the first membership change).

        A server counts as live only while it can still serve commits: a
        draining leaver refuses new adds, a departed-but-not-yet-retired
        server is already out of the write path, and a bootstrapping joiner
        has no state yet — none of them contribute to the quorum this probe
        answers for.  Sharded deployments additionally report per-shard
        liveness and degrade when *any* shard falls below its quorum.
        """
        with self._lock:
            deployment = self.deployment
            membership = deployment.membership

            if membership.changed:
                current = membership.current
                members = set(current.members)
                live = sum(1 for s in deployment.servers
                           if s.name in members and s.accepts_adds)
                quorum = current.quorum
                epoch = current.index
            else:
                live = sum(1 for s in deployment.servers if s.accepts_adds)
                quorum = self.config.setchain.quorum
                epoch = 1
            healthy = live >= quorum
            payload: dict[str, Any] = {
                "live_servers": live, "quorum": quorum,
                "epoch": epoch,
                "stopped": self._stopped,
                "uptime_s": self.session.now}
            router = deployment.shard_router
            if router is not None:
                shards: dict[str, Any] = {}
                for index, servers in enumerate(router.shard_servers):
                    shard_live = sum(1 for s in servers if s.accepts_adds)
                    shards[str(index)] = {"live": shard_live,
                                          "quorum": router.quorum}
                    if shard_live < router.quorum:
                        healthy = False
                payload["shards"] = shards
            payload["status"] = ("ok" if healthy and not self._stopped
                                 else "degraded")
            return payload

    def metrics_snapshot(self) -> dict[str, Any]:
        """One JSON-safe scrape of the running deployment.

        Field names follow the :class:`~repro.api.results.RunResult`
        vocabulary (injected / committed / committed_fraction / first_commit
        / label / algorithm) so dashboards built against batch artifacts read
        service scrapes unchanged, plus live-only gauges (queue, backpressure,
        per-server state, ledger height).
        """
        with self._lock:
            deployment = self.deployment
            metrics = deployment.metrics
            now = deployment.sim.now
            commit_times = metrics.commit_times()
            committed_total = metrics.committed_count
            committed_this_run = metrics.committed_injected
            injected = len(deployment.injected_elements)
            servers = {
                server.name: {"crashed": server.crashed,
                              "byzantine": server.is_byzantine,
                              "backlog": server.backlog,
                              "epoch": server.epoch}
                for server in deployment.servers}
            backend = deployment.ledger_backend
            ledger: dict[str, Any] = {}
            height = getattr(backend, "height", None)
            if height is not None:
                ledger["height"] = height
            pending = getattr(backend, "pending_count", None)
            if callable(pending):
                ledger["pending"] = pending()
            if isinstance(backend, SqliteLedger):
                ledger["durable"] = True
                ledger["db"] = backend.path
                ledger["resumed_from"] = backend.resumed_from
            snapshot: dict[str, Any] = {
                "label": self.config.label,
                "algorithm": self.config.algorithm,
                "now": now,
                "ticks": self.ticks,
                "injected": injected,
                "committed": committed_total,
                "committed_this_run": committed_this_run,
                "recovered_commits": committed_total - committed_this_run,
                "committed_fraction": (committed_this_run / injected
                                       if injected else 0.0),
                "first_commit": commit_times[0] if commit_times else None,
                "rolling_throughput": recent_throughput(commit_times, now),
                "rolling_window_s": PAPER_ROLLING_WINDOW,
                "ingress": self.ingress_counters,
                "servers": servers,
                "ledger": ledger,
                "recovered_blocks": self.recovered_blocks,
            }
            membership = deployment.membership
            if membership.changed:
                # Scrapes of static services keep the earlier shape; elastic
                # ones expose the current epoch's set and quorum.
                current = membership.current
                snapshot["membership"] = {
                    "epoch": current.index,
                    "members": list(current.members),
                    "size": len(current.members),
                    "quorum": current.quorum,
                }
            return snapshot

    def observability_snapshot(self) -> tuple[dict[str, Any], dict[str, Any],
                                              dict[str, list[float]] | None]:
        """Metrics snapshot, health summary and (on traced runs) the phase
        latencies, under ONE lock acquisition.

        The latencies are read off the element records the tick thread
        stamps, so they are copied here, inside the lock.  The Prometheus
        handler renders its text from the returned values outside the lock,
        so a scrape costs one bounded critical section no matter how slow the
        scraper's socket is (the lock is re-entrant, so the nested snapshot
        calls do not re-acquire).
        """
        with self._lock:
            tracer = self.deployment.tracer
            return (self.metrics_snapshot(), self.healthz(),
                    tracer.phase_latencies if tracer is not None else None)

    def result(self) -> RunResult:
        """Package the standard batch analyses for the run so far."""
        return self.session.result()

    # -- lifecycle ----------------------------------------------------------------

    @property
    def stopped(self) -> bool:
        return self._stopped

    def stop(self) -> None:
        """Graceful shutdown (idempotent): checkpoint, stop, close the db."""
        with self._lock:
            if self._stopped:
                return
            self.checkpoint()
            self._stopped = True
            self.deployment.stop()
            backend = self.deployment.ledger_backend
            if isinstance(backend, SqliteLedger):
                backend.close()

    def kill(self) -> None:
        """Abrupt termination, as if the process died: no checkpoint, no
        graceful stop, uncommitted writes rolled back — the database keeps
        exactly the blocks already cut."""
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            backend = self.deployment.ledger_backend
            if isinstance(backend, SqliteLedger):
                backend.abort()

    def __enter__(self) -> "ServiceRuntime":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
