"""Sessions: the one way a scenario runs.

:class:`Session` builds the :class:`~repro.core.deployment.Deployment` for
a scenario and hands control of simulated time to the caller: run to the
configured horizon in one call (:meth:`Session.run`, which is all
:func:`repro.api.run` does), or start the cluster, step the simulator,
inject individual elements, inspect ``SetchainView`` snapshots and
per-server backlog mid-run.  Faults are applied mid-run with
:meth:`Session.apply`, which takes the same :mod:`repro.faults` events a
schedule holds and records them in the same timeline.
:meth:`Session.result` packages the standard analyses as the run's one
serialisable :class:`RunResult`::

    with Scenario.hashchain().servers(4).rate(200).session() as session:
        session.run_for(10.0)
        print(session.backlog(), session.committed_fraction)
        session.inject(size_bytes=438)
        session.apply(Crash(targets=Targets(nodes=("server-2",))))
        session.run_to_completion()
        result = session.result()  # result.faults lists the crash
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..analysis.latency import LatencyCDF, stage_latencies
from ..config import ExperimentConfig
from ..core.deployment import Deployment, build_deployment
from ..errors import ConfigurationError, SetchainError, SimulationError
from ..workload.elements import Element, make_element
from .builder import ScenarioBuilder
from .results import RunResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from pathlib import Path

    from ..core.types import SetchainView
    from ..faults.events import FaultEvent


def _resolve_config(scenario: "ScenarioBuilder | ExperimentConfig | str") -> ExperimentConfig:
    """Accept a builder, a finished config, or a registry name."""
    if isinstance(scenario, ScenarioBuilder):
        return scenario.build()
    if isinstance(scenario, ExperimentConfig):
        return scenario
    if isinstance(scenario, str):
        from .registry import get_scenario
        return get_scenario(scenario)
    raise ConfigurationError(
        f"cannot build a session from {type(scenario).__name__}; expected a "
        "Scenario builder, ExperimentConfig, or registered scenario name")


class Session:
    """A started-on-demand deployment with incremental control of sim time."""

    def __init__(self, scenario: "ScenarioBuilder | ExperimentConfig | str",
                 *, scale: float = 1.0, seed: int | None = None,
                 inject: bool = True, db_path: "str | Path | None" = None) -> None:
        from ..experiments.runner import scaled_config
        self.config = scaled_config(_resolve_config(scenario), scale)
        self.scale = scale
        self.deployment: Deployment = build_deployment(self.config, seed=seed,
                                                       db_path=db_path)
        self._started = False
        self._inject_clients = inject

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "Session":
        """Start ledger block production, servers, and client injection.

        Sessions built with ``inject=False`` start everything except the
        batch injection clients (service mode streams its own workload).
        """
        if self._started:
            raise SimulationError("session already started")
        self.deployment.start(inject=self._inject_clients)
        self._started = True
        return self

    def stop(self) -> None:
        """Stop injection and block production (idempotent); see
        :meth:`Deployment.stop`."""
        self.deployment.stop()

    @property
    def started(self) -> bool:
        return self._started

    def __enter__(self) -> "Session":
        if not self._started:
            self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def _require_started(self) -> None:
        if not self._started:
            raise SimulationError("session not started; call start() or use "
                                  "the session as a context manager")

    # -- advancing simulated time ----------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self.deployment.sim.now

    def step(self) -> bool:
        """Process exactly one simulation event; False when none are pending."""
        self._require_started()
        return self.deployment.sim.step()

    def run_for(self, duration: float) -> "Session":
        """Advance simulated time by ``duration`` seconds."""
        if duration < 0:
            raise ConfigurationError("duration cannot be negative")
        return self.run_until(self.now + duration)

    def run_until(self, time: float) -> "Session":
        """Advance simulated time up to the absolute instant ``time``."""
        self._require_started()
        self.deployment.sim.run_until(time)
        return self

    def run(self) -> "Session":
        """Run to the scenario's configured horizon (injection + drain)."""
        self._require_started()
        self.deployment.run()
        return self

    def run_to_completion(self, extra_time: float = 200.0) -> "Session":
        """Run past the horizon until every injected element commits."""
        self._require_started()
        self.deployment.run_to_completion(extra_time=extra_time)
        return self

    # -- injecting work --------------------------------------------------------

    def inject(self, size_bytes: int | None = None, *, client: str = "session",
               server: int = 0, element: Element | None = None) -> Element:
        """Add one element to a server, with the same bookkeeping as clients.

        Either pass a ready-made ``element`` or let the session create one of
        ``size_bytes`` (defaults to the scenario's mean element size).  The
        element goes through ``Deployment.admit``: it is booked as injected
        (once) even when the server refuses it, which raises
        :class:`SetchainError`.
        """
        self._require_started()
        servers = self.deployment.servers
        if not 0 <= server < len(servers):
            raise ConfigurationError(
                f"server index {server} out of range for {len(servers)} servers")
        if element is None:
            size = size_bytes if size_bytes is not None else int(
                self.config.workload.element_size_mean)
            element = make_element(client=client, size_bytes=size,
                                   created_at=self.now)
        if not self.deployment.admit([element], servers[server]):
            raise SetchainError(
                f"server {servers[server].name} rejected the element "
                "(down, duplicate or invalid)")
        return element

    # -- interactive faults ------------------------------------------------------

    def apply(self, *events: "FaultEvent") -> list[dict]:
        """Apply fault events now: crashes, recoveries, partitions, heals,
        Byzantine turns, joins and leaves, exactly as a schedule would.

        Returns the timeline entries the events appended (a ``Join``'s entry
        names the new node); every one also appears in ``result().faults``.
        See :meth:`Deployment.apply`.
        """
        self._require_started()
        return self.deployment.apply(*events)

    # -- inspection ------------------------------------------------------------

    def membership(self) -> dict | None:
        """The membership timeline so far (None for static deployments)."""
        return self.deployment.membership.report()

    def byzantine_nodes(self) -> list[str]:
        """Names of currently Byzantine servers, sorted."""
        return sorted(server.name for server in self.deployment.servers
                      if server.is_byzantine)

    def crashed_nodes(self) -> list[str]:
        """Names of currently crash-faulted nodes, sorted."""
        network = self.deployment.network
        return [name for name in network.node_names()
                if network.node(name).crashed]

    def views(self) -> dict[str, "SetchainView"]:
        """``get()`` snapshots of every server, keyed by server name."""
        return self.deployment.views()

    def view(self, server: int | str = 0) -> "SetchainView":
        """One server's ``get()`` snapshot, by index or name."""
        for index, candidate in enumerate(self.deployment.servers):
            if server == index or server == candidate.name:
                return candidate.get()
        raise ConfigurationError(f"no server {server!r} in this deployment")

    def backlog(self) -> dict[str, int]:
        """Finalized transactions each server has yet to start on (stress
        indicator)."""
        return {s.name: s.backlog for s in self.deployment.servers}

    @property
    def injected_count(self) -> int:
        return len(self.deployment.injected_elements)

    @property
    def committed_count(self) -> int:
        return self.deployment.metrics.committed_count

    @property
    def committed_fraction(self) -> float:
        return self.deployment.committed_fraction

    def check_properties(self, include_liveness: bool = True):
        """Run the Setchain Property 1-8 checkers over the current views."""
        return self.deployment.check_properties(include_liveness=include_liveness)

    # -- sharding: the merged logical set ----------------------------------------

    def logical_view(self) -> "SetchainView":
        """One view of the whole deployment as a single logical set.

        For sharded deployments this merges one representative correct,
        caught-up server view per shard: the logical set is the union of the
        per-shard sets (disjoint by construction — the router partitions the
        element-id space), and the per-shard epochs are renumbered into one
        logical epoch sequence ordered by ``(epoch_number, shard_index)``,
        with each epoch's proofs remapped to the logical numbering.  For
        unsharded deployments it is a representative server's ``get()``.
        """
        from types import MappingProxyType

        from ..core.types import EpochProof, SetchainView

        deployment = self.deployment
        router = deployment.shard_router
        shard_lists = (router.shard_servers if router is not None
                       else [deployment.servers])
        faulty = deployment.byzantine_servers()

        def representative(servers):  # type: ignore[no-untyped-def]
            for server in servers:
                if (server.name not in faulty and not server.crashed
                        and not server.departed and not server.bootstrapping):
                    return server
            raise SetchainError(
                "no correct caught-up server to represent shard "
                f"{{{', '.join(s.name for s in servers)}}}")

        shard_views = [representative(servers).get() for servers in shard_lists]
        merged_set: set = set()
        epochs: list[tuple[int, int, frozenset, frozenset]] = []
        for shard_index, view in enumerate(shard_views):
            merged_set.update(view.the_set)
            for number in sorted(view.history):
                epochs.append((number, shard_index, view.history[number],
                               view.proofs_for(number)))
        epochs.sort(key=lambda entry: (entry[0], entry[1]))
        history: dict[int, frozenset] = {}
        proofs: set[EpochProof] = set()
        for logical_number, (_, _, elements, epoch_proofs) in enumerate(epochs, 1):
            history[logical_number] = elements
            for proof in epoch_proofs:
                proofs.add(EpochProof(epoch_number=logical_number,
                                      epoch_hash=proof.epoch_hash,
                                      signature=proof.signature,
                                      signer=proof.signer))
        return SetchainView(the_set=frozenset(merged_set),
                            history=MappingProxyType(history),
                            epoch=len(history),
                            proofs=frozenset(proofs))

    def check_logical_properties(self, include_liveness: bool = True):
        """Run the Property 1-8 checkers over the merged logical view.

        The single merged view exercises the per-view properties (consistent
        sets, unique epochs, add-before-get over *all* injected elements,
        eventual-get, quorum-signed epochs); the cross-shard agreement
        properties are covered per shard by :meth:`check_properties`.
        """
        from ..core.properties import check_all
        view = self.logical_view()
        return check_all({"logical": view},
                         quorum=self.config.setchain.quorum,
                         all_added=self.deployment.injected_elements,
                         include_liveness=include_liveness)

    # -- results ---------------------------------------------------------------

    def latency_cdfs(self) -> dict[str, LatencyCDF]:
        """Stage latency CDFs (mempool stages only for CometBFT-backed runs)."""
        backend = self.deployment.ledger_backend
        mempool_arrivals = None
        nodes = getattr(backend, "nodes", None)
        if nodes:
            mempool_arrivals = [node.mempool.arrival_times for node in nodes.values()]
        return stage_latencies(self.deployment.metrics, mempool_arrivals,
                               quorum=self.config.setchain.quorum)

    def result(self) -> RunResult:
        """Package the standard analyses for the run so far."""
        from ..experiments.runner import package_result
        self._require_started()
        return package_result(self.deployment, scale=self.scale)
