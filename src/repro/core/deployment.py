"""Cluster deployment: build a complete, runnable Setchain system.

A :class:`Deployment` mirrors the paper's evaluation platform: ``n`` docker
containers, each holding one client, one collector, and one ledger server,
become ``n`` triples of (injection client, Setchain server, ledger node) wired
over a latency-modelled network, plus a metrics collector standing in for the
log analysis pipeline.

Construction is composed in stages, each indexing one of the
:mod:`repro.topology.components` tables — latency profile, ledger backend,
then one algorithm factory per server.  A
:class:`~repro.config.TopologyConfig` on the experiment config generalises
the paper's homogeneous LAN cluster to named regions with per-region
algorithms (heterogeneous clusters) and inter-region delay matrices; configs
without a topology build exactly the legacy deployment.

A deployment keeps the lifecycle, the views and checks, and the one door for
elements (:meth:`Deployment.admit`).  Every fault, scheduled in
``config.faults`` or passed to :meth:`Deployment.apply`, goes through the
:class:`~repro.faults.injector.FaultInjector`, whose context checks the
f-budget and holds the crash/recover and Byzantine dispatch; joins and leaves
go on to :class:`~repro.core.membership.Membership`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..analysis.metrics import MetricsCollector
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
from ..ledger.cometbft.engine import CometBFTNetwork
from ..ledger.ideal import IdealLedger
from ..topology.components import (
    LATENCY_PROFILES,
    LEDGER_BACKENDS,
    DeploymentContext,
    build_server,
)
from ..topology.regions import server_name
from ..workload.clients import ClientPool, RoutedTarget
from ..workload.elements import Element
from .base import BaseSetchainServer
from .membership import Membership
from .properties import check_all
from .types import SetchainView


@dataclass
class Deployment:
    """Everything built for one experiment run."""

    config: ExperimentConfig
    sim: Simulator
    network: Network
    scheme: SignatureScheme
    servers: list[BaseSetchainServer]
    metrics: MetricsCollector
    ledger_backend: IdealLedger | CometBFTNetwork
    #: Build-time context, kept so runtime joins can build servers.
    context: DeploymentContext
    injected_elements: list[Element] = field(default_factory=list)
    #: Server name -> region name (empty for homogeneous deployments).
    region_of: dict[str, str] = field(default_factory=dict)
    #: Executes ``config.faults`` and every :meth:`apply`; ``None`` while
    #: the run has seen no fault.
    fault_injector: FaultInjector | None = None
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
    #: Epochs and the one join/leave actuator; set by :func:`build_deployment`.
    membership: Membership = field(init=False)
    _cursor: int = field(default=0, init=False, repr=False)
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
        """Run the property checkers (Properties 1 and 3-8) over the current views.

        The quorum is always computed over the *full* server set
        (``config.setchain.quorum``).  For heterogeneous deployments the
        cross-server properties (Get-Global, Consistent-Gets) are checked
        within each algorithm group — see :meth:`algorithm_groups`; sharded
        deployments reuse exactly that scoping, one group per shard.  Servers
        that are (or ever were) Byzantine are excluded: the properties are
        claimed for correct servers only.  Property 2 (Add-Get-Local) needs
        a per-server add log no run keeps, so it is not checked here.
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
        if self.membership.changed:
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

    def annotate(self, name: str, label: str) -> None:
        """Mark a fault, membership or shard event on a traced run's timeline."""
        if self.tracer is not None:
            self.tracer.annotate(self.sim.now, name, label)

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


def build_latency(config: ExperimentConfig) -> LatencyModel:
    """Stage 1: the latency model, from the latency profile and topology.

    Without a topology this is exactly the legacy LAN profile.  With one, the
    intra-region profile is wrapped in a :class:`RegionalLatency` carrying
    the inter-region delay matrix.  Only the servers are mapped here; ledger
    nodes are co-located with their servers by :func:`build_deployment` once
    the backend has built them (see :func:`colocate_ledger_nodes`), so the
    mapping works for any backend, not one naming convention.
    """
    topology = config.topology
    network_delay = config.ledger.network_delay
    if topology is None:
        return LATENCY_PROFILES["lan"](network_delay)
    intra = LATENCY_PROFILES[topology.intra_profile](0.0)
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


def build_deployment(config: ExperimentConfig, seed: int | None = None,
                     db_path: str | Path | None = None) -> Deployment:
    """Construct (but do not start) a full deployment for ``config``.

    Stages: simulator → latency model → network → signature scheme → ledger
    backend → one algorithm factory per server → injection clients.
    ``db_path`` is the database the ``sqlite`` backend opens (``None``: an
    in-memory one); the other backends ignore it.
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
    ledger_backend, ledger_handles = LEDGER_BACKENDS[config.ledger_backend](
        sim, network, n, config, db_path)

    assignments = config.server_assignments()
    colocate_ledger_nodes(latency, network, ledger_handles, assignments)
    region_of: dict[str, str] = {}
    context = DeploymentContext(sim=sim, network=network, config=config,
                                scheme=scheme, metrics=metrics)
    servers: list[BaseSetchainServer] = []
    for index, (region, algorithm) in enumerate(assignments):
        name = server_name(index)
        keypair = scheme.generate_keypair(name, deployment_seed=config.workload.seed)
        server = build_server(algorithm, context, name, keypair)
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

    deployment = Deployment(config=config, sim=sim, network=network, scheme=scheme,
                            servers=servers, metrics=metrics,
                            ledger_backend=ledger_backend, region_of=region_of,
                            context=context, tracer=tracer,
                            shard_router=shard_router)
    deployment.membership = Membership(deployment)
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

