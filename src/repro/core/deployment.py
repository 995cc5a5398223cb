"""Cluster deployment: build a complete, runnable Setchain system.

A :class:`Deployment` mirrors the paper's evaluation platform: ``n`` docker
containers, each holding one client, one collector, and one ledger server,
become ``n`` triples of (injection client, Setchain server, ledger node) wired
over a latency-modelled network, plus a metrics collector standing in for the
log analysis pipeline.

Construction is composed in stages from the :mod:`repro.topology` registries
— latency profile, ledger backend, then one algorithm factory per server — so
new algorithms, backends, and link models plug in without editing this
module.  A :class:`~repro.config.TopologyConfig` on the experiment config
generalises the paper's homogeneous LAN cluster to named regions with
per-region algorithms (heterogeneous clusters) and inter-region delay
matrices; configs without a topology build exactly the legacy deployment.

Faults have one entry point: scheduled events fire from ``config.faults`` and
interactive ones go through :meth:`Deployment.apply`, both via the
:class:`~repro.faults.injector.FaultInjector`, whose context holds the
crash/recover and Byzantine dispatch — this module keeps none of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.metrics import MetricsCollector
from ..analysis.throughput import average_throughput
from ..config import ExperimentConfig
from ..crypto.keys import PublicKeyInfrastructure
from ..crypto.signatures import SignatureScheme
from ..errors import ConfigurationError, NetworkError
from ..faults.events import FaultEvent
from ..faults.injector import FaultInjector
from ..faults.schedule import FaultScheduleConfig
from ..net.latency import LatencyModel, RegionalLatency
from ..net.network import Network
from ..obs.trace import Tracer
from ..shard.router import ShardRouter
from ..sim.scheduler import Simulator
from ..topology.plugins import (
    DeploymentContext,
    LedgerBackend,
    get_algorithm,
    get_latency_profile,
    get_ledger_backend,
)
from ..topology.regions import server_name
from ..workload.clients import ClientPool, RoutedTarget
from ..workload.elements import Element
from .base import BaseSetchainServer
from .membership import MembershipLog
from .properties import check_all
from .types import SetchainView

#: How often (simulated seconds) join/leave transitions re-check whether a
#: bootstrapping server has caught up or a draining server has emptied.
_MEMBERSHIP_POLL = 0.25


@dataclass
class Deployment:
    """Everything built for one experiment run."""

    config: ExperimentConfig
    sim: Simulator
    network: Network
    scheme: SignatureScheme
    servers: list[BaseSetchainServer]
    metrics: MetricsCollector
    ledger_backend: LedgerBackend
    injected_elements: list[Element] = field(default_factory=list)
    #: Server name -> region name (empty for homogeneous deployments).
    region_of: dict[str, str] = field(default_factory=dict)
    #: Executes ``config.faults`` and every :meth:`apply`; ``None`` while
    #: the run has seen no fault.
    fault_injector: FaultInjector | None = None
    #: Build-time context, kept so runtime joins can run algorithm factories.
    context: DeploymentContext | None = None
    #: Server-set membership epochs.  Always built (one initial epoch); the
    #: servers only start consulting it once the first join/leave happens, so
    #: static runs never touch the membership hot paths.
    membership: MembershipLog | None = None
    #: Servers that left the cluster (kept for reporting, not for checks).
    departed_servers: list[BaseSetchainServer] = field(default_factory=list)
    #: Lifecycle tracer; ``None`` when ``config.trace_sample`` is unset.  The
    #: servers report through ``metrics`` alone, whose element records the
    #: tracer's spans read and which logs every phase on its timeline; the
    #: deployment adds the fault, membership and shard annotations the
    #: collector never sees.
    tracer: Tracer | None = None
    #: Element-space partitioner for sharded deployments; ``None`` (the
    #: default) is the single-instance layout, where :meth:`admit` places
    #: elements on servers directly.
    shard_router: ShardRouter | None = None
    #: One injection client per build-time server, each adding through
    #: :meth:`admit`; set by :func:`build_deployment`.
    clients: ClientPool = field(init=False)
    _cursor: int = field(default=0, init=False, repr=False)
    _next_server_index: int = field(default=0, init=False, repr=False)
    _started: bool = field(default=False, init=False, repr=False)
    _stopped: bool = field(default=False, init=False, repr=False)

    # -- running ------------------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._started

    @property
    def stopped(self) -> bool:
        return self._stopped

    def start(self, *, inject: bool = True) -> None:
        """Start ledger block production, servers, client injection, and arm
        the fault schedule (when one is configured).

        ``inject=False`` leaves the batch injection clients idle — service
        mode streams its own elements through the ingress queue instead of
        running the configured fixed-rate workload.
        """
        if self._stopped:
            raise NetworkError("deployment already stopped; build a new one")
        if self._started:
            raise NetworkError("deployment already started")
        self.ledger_backend.start()
        for server in self.servers:
            server.start()
        if inject:
            self.clients.start()
        if self.fault_injector is not None:
            self.fault_injector.arm()
        self._started = True

    def stop(self) -> None:
        """Stop client injection and ledger block production (idempotent).

        Service mode calls this on SIGTERM and during rolling restarts; the
        simulator and all state stay inspectable after stopping, but no new
        blocks are produced if the clock is advanced further.
        """
        if self._stopped:
            return
        self._stopped = True
        self.clients.stop()
        stop = getattr(self.ledger_backend, "stop", None)
        if stop is not None:
            stop()

    def __enter__(self) -> "Deployment":
        if not self._started:
            self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def run(self, until: float | None = None) -> None:
        """Run the simulation for the configured experiment duration.

        A no-op when simulated time is already past the horizon, so
        :meth:`run_to_completion` works from any point in a run.
        """
        horizon = until if until is not None else self.config.total_duration
        self.sim.run_until(max(horizon, self.sim.now))

    def run_to_completion(self, extra_time: float = 200.0,
                          poll: float = 1.0) -> None:
        """Run past the configured horizon until every injected element commits
        (or ``extra_time`` more simulated seconds elapse)."""
        self.run()
        deadline = self.sim.now + extra_time

        def all_committed() -> bool:
            return (self.clients.all_finished
                    and self.metrics.committed_count >= len(self.injected_elements) > 0)

        self.sim.run_until_condition(all_committed, check_interval=poll,
                                     max_time=deadline)

    # -- views and checks ------------------------------------------------------------

    def views(self) -> dict[str, SetchainView]:
        """get() snapshots of every (assumed-correct) server."""
        return {server.name: server.get() for server in self.servers}

    def byzantine_servers(self) -> set[str]:
        """Servers outside the paper's guarantees: every server that ever ran
        a Byzantine behaviour — scheduled or interactive — whether or not it
        has reverted (a reverted server is still a faulty process; it may
        e.g. hold silently dropped elements in its the_set forever), or has
        since left the cluster."""
        return {server.name for server in self.servers + self.departed_servers
                if server.ever_byzantine}

    def algorithm_groups(self) -> dict[str, str]:
        """Server name -> algorithm-group key for heterogeneous clusters.

        Servers running different algorithms speak different wire formats over
        the shared ledger: each algorithm group is its own Setchain instance
        (multi-tenant over one consensus substrate), so cross-server agreement
        is scoped to the group.
        """
        return {server.name: server.algorithm_group()
                for server in self.servers}

    def check_properties(self, include_liveness: bool = True):  # type: ignore[no-untyped-def]
        """Run the Property 1-8 checkers over the current views.

        The quorum is always computed over the *full* server set
        (``config.setchain.quorum``).  For heterogeneous deployments the
        cross-server properties (Get-Global, Consistent-Gets) are checked
        within each algorithm group — see :meth:`algorithm_groups`; sharded
        deployments reuse exactly that scoping, one group per shard.  Servers
        that are (or ever were) Byzantine are excluded: Properties 1-8 are
        claimed for correct servers only.
        """
        groups = (self.algorithm_groups()
                  if (self.config.is_heterogeneous
                      or self.shard_router is not None) else None)
        faulty = self.byzantine_servers()
        still_bootstrapping = {server.name for server in self.servers
                               if server.bootstrapping}
        views = {name: view for name, view in self.views().items()
                 if name not in faulty and name not in still_bootstrapping}
        quorum = self.config.setchain.quorum
        if self.membership is not None and self.membership.changed:
            # Epochs committed under an earlier (smaller) membership carry
            # that epoch's quorum of proofs; check against the weakest quorum
            # any epoch used.  Static runs never take this branch.
            quorum = min(quorum, self.membership.min_quorum())
        return check_all(views, quorum=quorum,
                         all_added=self.injected_elements,
                         include_liveness=include_liveness, groups=groups)

    @property
    def committed_fraction(self) -> float:
        """Fraction of injected elements committed so far (the efficiency metric)."""
        if not self.injected_elements:
            return 0.0
        return self.metrics.committed_count / len(self.injected_elements)

    # -- admission ------------------------------------------------------------------

    def routable(self) -> bool:
        """Is there anywhere to route a new element now: an active shard,
        or (unsharded) any server that ``accepts_adds``?"""
        if self.shard_router is not None:
            return bool(self.shard_router.active_shards())
        return any(server.accepts_adds for server in self.servers)

    def admit(self, elements: list[Element],
              prefer: BaseSetchainServer | int | None = None) -> int:
        """The one door for elements: book a burst, route it, add it.

        Returns how many elements the servers took.  The burst is booked in
        arrival order before any server sees it; an element already booked
        is not booked again, and a refused one stays booked — a client's add
        against a downed host is offered and lost.  ``prefer`` says where
        the caller would put the burst: a server takes all of it, with no
        failover; an int is a sharded client's position within its shard
        (:meth:`ShardRouter.route_many`); ``None`` round-robins — per shard
        when sharded, else over the servers, the cursor jumping past the
        server it chose and stepping over servers that refuse adds.
        """
        self.injected_elements += self.metrics.record_injected_many(
            elements, self.sim.now)
        if isinstance(prefer, BaseSetchainServer):
            return prefer.add_many(elements)
        buckets = (self.shard_router.route_many(elements, prefer)
                   if self.shard_router is not None
                   else self._round_robin(elements))
        return sum(server.add_many(bucket) for server, bucket in buckets)

    def _round_robin(self, elements: list[Element]
                     ) -> list[tuple[BaseSetchainServer, list[Element]]]:
        """Unsharded ``prefer=None``: each element to the next server that
        accepts adds, in first-chosen order; none when no server does."""
        servers = self.servers
        open_positions = {i for i, s in enumerate(servers) if s.accepts_adds}
        if not open_positions:
            return []
        by_position: dict[int, list[Element]] = {}
        cursor = self._cursor
        for element in elements:
            while (position := cursor % len(servers)) not in open_positions:
                cursor += 1
            cursor += 1
            by_position.setdefault(position, []).append(element)
        self._cursor = cursor
        return [(servers[i], bucket) for i, bucket in by_position.items()]

    # -- faults ---------------------------------------------------------------------

    def apply(self, *events: FaultEvent) -> list[dict]:
        """Apply fault events now, through the one fault path.

        Each event runs the same ``event.apply`` that a configured schedule's
        timer runs, against the :class:`FaultInjector` (built with an empty
        schedule on first use: deriving its RNG stream draws nothing, so a
        mid-run build perturbs nothing).  Returns copies of the timeline
        entries the events appended — a ``Join``'s entry names the new node.
        Events due later (``at`` past now) or already over (``until`` not
        after now) belong in the scenario's schedule and are refused.
        """
        now = self.sim.now
        for event in events:
            until = event.until
            if event.at > now or (until is not None and until <= now):
                raise ConfigurationError(
                    f"{event.kind} event (at={event.at}, until={event.until}) "
                    f"cannot be applied at t={now}; schedule future faults "
                    "in the scenario")
        if self.fault_injector is None:
            self.fault_injector = FaultInjector(self, FaultScheduleConfig())
        injector = self.fault_injector
        first = len(injector.applied)
        for event in events:
            event.apply(injector.context)
        return [dict(entry) for entry in injector.applied[first:]]

    # -- dynamic membership -----------------------------------------------------

    def _backend_height(self) -> int:
        """The ledger's current committed height, backend-agnostic."""
        height = getattr(self.ledger_backend, "height", None)
        if height is not None:
            return int(height)
        min_height = getattr(self.ledger_backend, "min_committed_height", None)
        if min_height is not None:
            return int(min_height())
        return 0

    def _require_membership(self) -> MembershipLog:
        if self.membership is None:
            raise NetworkError("this deployment has no membership log")
        return self.membership

    def _activate_membership(self) -> MembershipLog:
        """Wire every server to the membership log (first change only)."""
        log = self._require_membership()
        for server in self.servers:
            server.attach_membership(log)
        return log

    def _active_peers(self, group: str, exclude: str) -> list[BaseSetchainServer]:
        """Live, caught-up servers of ``group`` other than ``exclude``."""
        return [server for server in self.servers
                if server.name != exclude and server.algorithm_group() == group
                and server.accepts_adds]

    def add_server(self, name: str | None = None, algorithm: str | None = None,
                   region: str | None = None) -> BaseSetchainServer:
        """Join a server at runtime: build, state-transfer, then admit.

        The joiner bootstraps by replaying the committed chain (the same
        replay path crash recovery uses) with its batch store primed from a
        live peer; it counts toward f+1 quorums only once caught up, at which
        point a membership epoch activating two blocks later is appended.
        With the CometBFT backend a new co-located validator joins the
        validator set the same way.
        """
        if not self._started or self._stopped:
            raise NetworkError("joins need a started, not-yet-stopped deployment")
        if self.context is None:
            raise NetworkError("this deployment was not built for runtime joins")
        log = self._activate_membership()
        if name is None:
            name = server_name(self._next_server_index)
        if name in self.network or any(s.name == name for s in self.servers):
            raise NetworkError(f"a node named {name!r} already exists")
        self._next_server_index += 1
        if algorithm is None:
            algorithm = self.config.algorithm
        keypair = self.scheme.generate_keypair(
            name, deployment_seed=self.config.workload.seed)
        server = get_algorithm(algorithm)(self.context, name, keypair)
        if self.shard_router is not None:
            # Shard placement before any group-scoped step below (donor
            # selection, store handoff) — the joiner's group key carries its
            # shard index.  Filling an under-sized shard first and opening a
            # fresh shard otherwise gives both elastic stories: replace a
            # lost member, or add a whole shard under load (router traffic
            # starts once the new shard reaches a routable quorum).
            self._enroll_in_shard(server)
        self.network.register(server)
        # Ledger hookup: a fresh co-located validator (CometBFT) or a fresh
        # sequencer handle (ideal/sqlite).
        add_validator = getattr(self.ledger_backend, "add_validator", None)
        if add_validator is not None:
            ledger_node = add_validator()
            handle = ledger_node
            committed = list(ledger_node.committed_blocks)
            if region is not None and isinstance(self.network.latency,
                                                RegionalLatency):
                self.network.latency.region_of[ledger_node.name] = region
        else:
            handle = self.ledger_backend.handle_for(name)  # type: ignore[attr-defined]
            committed = list(self.ledger_backend.blocks)  # type: ignore[attr-defined]
        server.connect_ledger(handle)
        if region is not None:
            self.region_of[name] = region
            if isinstance(self.network.latency, RegionalLatency):
                self.network.latency.region_of[name] = region
        server.attach_membership(log)
        server.begin_bootstrap()
        server.start()
        self.servers.append(server)
        # State transfer, stage 1: prime the batch store from a live peer so
        # the replay resolves hashes locally instead of storming the donors
        # with Request_batch traffic (the sqlite restart-resume treatment).
        store = getattr(server, "store", None)
        if store is not None:
            donors = self._active_peers(server.algorithm_group(), name)
            if donors:
                for digest, items in donors[0].store.items():
                    store.register_remote(digest, items)
        # State transfer, stage 2: replay the committed chain through the
        # normal FinalizeBlock path (crash recovery's replay, from genesis).
        for block in committed:
            server.finalize_block(block)
        join_record_at = self.sim.now

        def _check_caught_up() -> None:
            if server.departed:
                return  # left again before ever catching up
            if server.pipeline_idle:
                server.end_bootstrap()
                epoch = log.join(name, at=join_record_at,
                                 effective_height=self._backend_height() + 2)
                log.joins[-1].caught_up_at = self.sim.now
                for member in self.servers:
                    member.attach_membership(log)
                del epoch
                return
            self.sim.call_in(_MEMBERSHIP_POLL, _check_caught_up)

        self.sim.call_in(_MEMBERSHIP_POLL, _check_caught_up)
        if self.tracer is not None:
            self.tracer.annotate(self.sim.now, name, "membership:join")
        return server

    def remove_server(self, name: str, drain: bool = True) -> None:
        """Leave: drain the server's obligations, then retire it cleanly.

        Draining stops new adds immediately, flushes the collector, keeps
        processing blocks until the pipeline and any in-flight Request_batch
        are empty, hands the batch store off to live peers (so pending
        hash-reversal obligations stay servable), and only then retires the
        server — distinct from a crash, which drops all of that on the floor.
        ``drain=False`` retires immediately (an impatient operator).
        """
        log = self._activate_membership()
        server = next((s for s in self.servers if s.name == name), None)
        if server is None:
            raise NetworkError(f"no Setchain server named {name!r} to remove")
        if len(self.servers) <= 1:
            raise NetworkError("cannot remove the last server")
        # With CometBFT, the co-located validator leaves the set now (two-
        # block activation); the node keeps validating until then.
        ledger_node = server._ledger
        remove_validator = getattr(self.ledger_backend, "remove_validator", None)
        node_name = getattr(ledger_node, "name", None)
        nodes = getattr(self.ledger_backend, "nodes", None)
        colocated = (remove_validator is not None and nodes is not None
                     and node_name in nodes)
        if colocated:
            remove_validator(node_name)
        if self.tracer is not None:
            self.tracer.annotate(self.sim.now, name, "membership:leave")
        if not drain:
            self._retire_server(server, drained=False)
            return
        server.begin_drain()

        def _shard_pipeline_dry() -> bool:
            # Whole-shard retirement: when no continuing (non-draining)
            # member would remain to process the shard's ledger traffic, the
            # last leavers must also wait for every element admitted to the
            # shard to commit — the origin filter means no other shard can
            # finish that work for them.  Unsharded drains are unchanged.
            if self.shard_router is None:
                return True
            shard = server.shard_index
            continuing = any(s is not server and s.shard_index == shard
                             and not s.departed and not s.draining
                             for s in self.servers)
            if continuing:
                return True
            added = self.metrics.shard_added.get(shard, 0)
            return self.metrics.shard_committed.get(shard, 0) >= added

        def _check_drained() -> None:
            if server.departed:
                return  # crashed-and-removed or retired through another path
            collector = getattr(server, "collector", None)
            collector_empty = collector is None or not collector.pending_view()
            if (server.pipeline_idle and collector_empty
                    and _shard_pipeline_dry()):
                self._retire_server(server, drained=True)
                return
            self.sim.call_in(_MEMBERSHIP_POLL, _check_drained)

        self.sim.call_in(_MEMBERSHIP_POLL, _check_drained)

    def _retire_server(self, server: BaseSetchainServer, drained: bool) -> None:
        log = self._require_membership()
        # Hand off Request_batch obligations: every batch only this server
        # holds is copied to the live peers of its group before it goes away.
        store = getattr(server, "store", None)
        if store is not None:
            peers = self._active_peers(server.algorithm_group(), server.name)
            for digest, items in store.items():
                for peer in peers:
                    peer_store = getattr(peer, "store", None)
                    if peer_store is not None and digest not in peer_store:
                        peer_store.register_remote(digest, items)
        server.retire()
        self.network.unregister(server.name)
        self.servers.remove(server)
        self.departed_servers.append(server)
        log.leave(server.name, at=self.sim.now,
                  effective_height=self._backend_height() + 2, drained=drained)
        log.leaves[-1].retired_at = self.sim.now
        for member in self.servers:
            member.attach_membership(log)
        retire_node = getattr(self.ledger_backend, "retire_node", None)
        nodes = getattr(self.ledger_backend, "nodes", None)
        node_name = getattr(server._ledger, "name", None)
        if retire_node is not None and nodes is not None and node_name in nodes:
            retire_node(node_name)
        if self.tracer is not None:
            self.tracer.annotate(self.sim.now, server.name,
                                 "membership:retired")

    def membership_report(self) -> dict | None:
        """The ``RunResult.membership`` block; ``None`` for static runs."""
        log = self.membership
        if log is None or not log.changed:
            return None
        by_name = {server.name: server
                   for server in list(self.servers) + self.departed_servers}
        joins = []
        for record in log.joins:
            entry: dict = {"node": record.node, "at": record.at,
                           "effective_height": record.effective_height}
            if record.caught_up_at is not None:
                entry["caught_up_at"] = record.caught_up_at
                entry["catch_up_s"] = record.caught_up_at - record.at
            server = by_name.get(record.node)
            if server is not None and server.first_commit_at is not None:
                first = server.first_commit_at
                entry["first_commit_at"] = first
                entry["join_to_first_commit_s"] = max(0.0, first - record.at)
            joins.append(entry)
        leaves = []
        for record in log.leaves:
            entry = {"node": record.node, "at": record.at,
                     "effective_height": record.effective_height,
                     "drained": record.drained}
            if record.retired_at is not None:
                entry["retired_at"] = record.retired_at
            server = by_name.get(record.node)
            if server is not None:
                entry["drained_rejects"] = server.drained_rejects
            leaves.append(entry)
        current = log.current
        report = {
            "epochs": [epoch.to_dict() for epoch in log.epochs],
            "joins": joins,
            "leaves": leaves,
            "current": {"epoch": current.index,
                        "members": list(current.members),
                        "size": len(current.members),
                        "f": current.f,
                        "quorum": current.quorum},
        }
        validators = getattr(self.ledger_backend, "validators", None)
        if validators is not None and validators.version:
            report["validator_epochs"] = [
                {"effective_height": height, "members": list(members)}
                for height, members in validators.epochs()]
        return report

    # -- sharding -----------------------------------------------------------------

    def _enroll_in_shard(self, server: BaseSetchainServer) -> None:
        """Assign a runtime joiner to a shard and refresh the peer sets."""
        router = self.shard_router
        assert router is not None
        shard = router.placement_for_join(self.config.setchain.n_servers)
        server.shard_index = shard
        router.add_server(shard, server)
        members = frozenset(s.name for s in router.shard_servers[shard]
                            if not s.departed)
        for member in router.shard_servers[shard]:
            member.shard_peers = members
        self.metrics.assign_shard(server.name, shard)
        if self.tracer is not None:
            self.tracer.annotate(self.sim.now, server.name, f"shard:{shard}")

    def shard_report(self) -> dict | None:
        """The ``RunResult.shards`` block; ``None`` for unsharded runs.

        Per shard: its server roster, router admissions, added/committed
        element counts (observed by that shard's servers), first-commit time,
        and committed throughput over the paper's 50 s window.  The router's
        defer/reject counters and the admission skew ratio (max/mean per-shard
        load; 1.0 is perfectly even) summarise the partition quality.
        """
        router = self.shard_router
        if router is None:
            return None
        metrics = self.metrics
        per_shard: dict[str, dict] = {}
        for index, members in enumerate(router.shard_servers):
            added = metrics.shard_added.get(index, 0)
            committed = metrics.shard_committed.get(index, 0)
            times = metrics.shard_commit_times.get(index, [])
            entry: dict = {
                "servers": [s.name for s in members],
                "routed": router.per_shard_routed[index],
                "added": added,
                "committed": committed,
                "committed_fraction": (round(committed / added, 6)
                                       if added else 0.0),
                "avg_throughput_50s": round(
                    average_throughput(sorted(times), up_to=50.0), 1),
            }
            if times:
                entry["first_commit"] = round(min(times), 6)
            per_shard[str(index)] = entry
        return {
            "count": router.n_shards,
            "quorum": router.quorum,
            "router": router.counters(),
            "skew_ratio": router.skew_ratio(),
            "per_shard": per_shard,
        }


def build_latency(config: ExperimentConfig) -> LatencyModel:
    """Stage 1: the latency model, from the profile/topology registries.

    Without a topology this is exactly the legacy LAN profile.  With one, the
    intra-region profile is wrapped in a :class:`RegionalLatency` carrying
    the inter-region delay matrix.  Only the servers are mapped here; ledger
    nodes are co-located with their servers by :func:`build_deployment` once
    the backend has built them (see :func:`colocate_ledger_nodes`), so the
    mapping works for any registered backend, not one naming convention.
    """
    topology = config.topology
    network_delay = config.ledger.network_delay
    if topology is None:
        return get_latency_profile("lan")(network_delay)
    intra = get_latency_profile(topology.intra_profile)(0.0)
    region_of: dict[str, str] = {}
    for index, (region, _algorithm) in enumerate(config.server_assignments()):
        assert region is not None
        region_of[server_name(index)] = region
    links = {frozenset((a, b)): delay for a, b, delay in topology.links}
    return RegionalLatency(region_of, intra,
                           inter_delay=topology.inter_delay,
                           inter_jitter=topology.inter_jitter,
                           links=links, extra_delay=network_delay)


def colocate_ledger_nodes(latency: LatencyModel, network: Network,
                          ledger_handles: list, assignments: list) -> None:
    """Place each per-server ledger node in its server's region.

    ``ledger_handles[i]`` serves ``server-i``; when the handle is itself a
    node on the simulated network (e.g. a CometBFT validator), its consensus
    traffic must pay the same inter-region delays as its co-located server.
    Handles that are plain objects (the ideal ledger's sequencer handles)
    exchange no network messages and are skipped.
    """
    if not isinstance(latency, RegionalLatency):
        return
    for index, handle in enumerate(ledger_handles):
        name = getattr(handle, "name", None)
        region = assignments[index][0]
        if name is not None and name in network and region is not None:
            latency.region_of[name] = region


def build_deployment(config: ExperimentConfig, seed: int | None = None) -> Deployment:
    """Construct (but do not start) a full deployment for ``config``.

    Stages: simulator → latency model → network → signature scheme → ledger
    backend → one registered algorithm factory per server → injection
    clients.  Every stage resolves through the :mod:`repro.topology`
    registries, so third-party algorithms/backends/profiles registered from
    user code participate without core edits.
    """
    sim = Simulator(seed=seed if seed is not None else config.workload.seed)
    latency = build_latency(config)
    network = Network(sim, latency=latency)
    pki = PublicKeyInfrastructure()
    scheme = SignatureScheme(pki)
    metrics = MetricsCollector()
    tracer: Tracer | None = None
    if config.trace_sample is not None:
        # The tracer draws from its own derived stream, never ``sim.rng``,
        # so enabling it cannot perturb the simulation's event schedule.
        tracer = Tracer(metrics, sample=config.trace_sample,
                        seed=seed if seed is not None else config.workload.seed)
        metrics.tracer = tracer

    n = config.total_servers
    ledger_backend, ledger_handles = get_ledger_backend(config.ledger_backend)(
        sim, network, n, config)

    assignments = config.server_assignments()
    colocate_ledger_nodes(latency, network, ledger_handles, assignments)
    region_of: dict[str, str] = {}
    context = DeploymentContext(sim=sim, network=network, config=config,
                                scheme=scheme, metrics=metrics)
    servers: list[BaseSetchainServer] = []
    for index, (region, algorithm) in enumerate(assignments):
        name = server_name(index)
        keypair = scheme.generate_keypair(name, deployment_seed=config.workload.seed)
        server = get_algorithm(algorithm)(context, name, keypair)
        network.register(server)
        server.connect_ledger(ledger_handles[index])
        servers.append(server)
        if region is not None:
            region_of[name] = region
    if region_of:
        metrics.set_region_map(region_of)

    shard_router: ShardRouter | None = None
    if config.shards is not None:
        # Block placement: servers [k*n_servers, (k+1)*n_servers) form shard
        # k, each a multi-tenant group over the shared ledger with the
        # per-shard f+1 commit quorum.
        per_shard = config.setchain.n_servers
        shard_lists = [servers[k * per_shard:(k + 1) * per_shard]
                       for k in range(config.shards)]
        for shard_index, members in enumerate(shard_lists):
            names = frozenset(server.name for server in members)
            for server in members:
                server.shard_index = shard_index
                server.shard_peers = names
                if tracer is not None:
                    tracer.annotate(0.0, server.name, f"shard:{shard_index}")
        shard_router = ShardRouter(shard_lists,
                                   quorum=config.setchain.quorum)
        metrics.set_shard_map(shard_router.shard_map())

    # Sharded runs pin the membership f to the per-shard tolerance: joins and
    # leaves must never dilute a shard's f+1 commit quorum with the (much
    # larger) deployment-wide server count.
    membership = MembershipLog([server.name for server in servers],
                               explicit_f=config.pinned_f)
    deployment = Deployment(config=config, sim=sim, network=network, scheme=scheme,
                            servers=servers, metrics=metrics,
                            ledger_backend=ledger_backend, region_of=region_of,
                            context=context, membership=membership, tracer=tracer,
                            shard_router=shard_router)
    deployment._next_server_index = n
    # Each client admits its bursts through the deployment's one door: to its
    # home server when unsharded, else from its position within a shard.
    deployment.clients = ClientPool(sim, [
        RoutedTarget(deployment.admit, server if shard_router is None else index)
        for index, server in enumerate(servers)], config.workload)
    if config.faults is not None and config.faults.events:
        # Construction only derives an RNG stream (no draws) and allocates
        # timers at start(); fault-free runs never reach here, so their
        # schedules and artifacts are untouched.
        deployment.fault_injector = FaultInjector(deployment, config.faults)
    return deployment

