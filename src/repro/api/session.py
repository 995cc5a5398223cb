"""Interactive sessions over a deployment.

:class:`Session` is the incremental counterpart to the batch runner: it
builds the same :class:`~repro.core.deployment.Deployment` a scenario run
would use, but hands control of simulated time to the caller — start the
cluster, step the simulator, inject individual elements, inspect
``SetchainView`` snapshots and per-server backlog mid-run, and finally
package the standard analyses as a serialisable :class:`RunResult`::

    with Scenario.hashchain().servers(4).rate(200).session() as session:
        session.run_for(10.0)
        print(session.backlog(), session.committed_fraction)
        session.inject(size_bytes=438)
        session.run_to_completion()
        result = session.result()
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..config import ExperimentConfig
from ..core.deployment import Deployment, build_deployment
from ..errors import ConfigurationError, SetchainError, SimulationError
from ..workload.elements import Element, make_element
from .builder import ScenarioBuilder
from .results import RunResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.types import SetchainView


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
                 inject: bool = True) -> None:
        from ..experiments.runner import scaled_config
        self.config = scaled_config(_resolve_config(scenario), scale)
        self.scale = scale
        self.deployment: Deployment = build_deployment(self.config, seed=seed)
        self._started = False
        self._inject_clients = inject
        self._injected_by_hand = 0

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
        ``size_bytes`` (defaults to the scenario's mean element size).
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
        if not servers[server].add(element):
            raise SetchainError(
                f"server {servers[server].name} rejected the element "
                "(duplicate or invalid); it was not recorded as injected")
        self.deployment.injected_elements.append(element)
        self.deployment.metrics.record_injected_many([element], self.now)
        self._injected_by_hand += 1
        return element

    # -- interactive chaos ------------------------------------------------------

    def crash(self, name: str) -> "Session":
        """Crash-fault a server or ledger node by name, mid-run."""
        self._require_started()
        self.deployment.crash_node(name)
        return self

    def recover(self, name: str) -> "Session":
        """Recover a crashed node (servers replay missed blocks; CometBFT
        validators block-sync from a live peer)."""
        self._require_started()
        self.deployment.recover_node(name)
        return self

    def partition(self, group: set[str] | list[str] | tuple[str, ...]) -> "Session":
        """Partition ``group`` from every other node on the network."""
        self._require_started()
        cut = set(group)
        rest = set(self.deployment.network.node_names()) - cut
        if not cut or not rest:
            raise ConfigurationError(
                "partition group must be a non-empty strict subset of the nodes")
        self.deployment.network.partition(cut, rest)
        return self

    def heal(self) -> "Session":
        """Remove every installed partition."""
        self._require_started()
        self.deployment.network.heal()
        return self

    def become_byzantine(self, name: str,
                         behaviour: str = "silent") -> "Session":
        """Attach a Byzantine behaviour strategy to a server, mid-run.

        ``behaviour`` is a registered name (withhold / wrong-hash /
        invalid-element / equivocate / silent, or third-party).  Only
        Setchain servers can turn Byzantine.
        """
        self._require_started()
        self.deployment.become_byzantine(name, behaviour)
        return self

    def become_correct(self, name: str) -> "Session":
        """Shed a server's Byzantine behaviour (a withholding server serves
        its buffered ``Request_batch`` replies on reversion)."""
        self._require_started()
        self.deployment.become_correct(name)
        return self

    # -- dynamic membership ------------------------------------------------------

    def add_server(self, name: str | None = None, *,
                   algorithm: str | None = None,
                   region: str | None = None) -> str:
        """Join a server mid-run: build, state-transfer, admit once caught up.

        Returns the new server's name (auto-assigned along the
        ``server-<i>`` sequence when ``name`` is None).  On the CometBFT
        backend a co-located validator joins the consensus set, activating
        two blocks later.
        """
        self._require_started()
        server = self.deployment.add_server(name=name, algorithm=algorithm,
                                            region=region)
        return server.name

    def remove_server(self, name: str, *, drain: bool = True) -> "Session":
        """Retire a server cleanly: drain, hand off obligations, depart."""
        self._require_started()
        self.deployment.remove_server(name, drain=drain)
        return self

    def add_validator(self, name: str | None = None) -> str:
        """Grow the consensus layer by one (app-less) validator; returns
        its name.  Requires a backend with a validator set (CometBFT)."""
        self._require_started()
        return self.deployment.add_validator(name)

    def remove_validator(self, name: str) -> "Session":
        """Shrink the consensus layer by one validator (two-block delay).

        Refused while the validator still feeds a Setchain server — remove
        the server instead.
        """
        self._require_started()
        self.deployment.remove_validator(name)
        return self

    def membership(self) -> dict | None:
        """The membership timeline so far (None for static deployments)."""
        return self.deployment.membership_report()

    def byzantine_nodes(self) -> list[str]:
        """Names of currently Byzantine servers, sorted."""
        return sorted(server.name for server in self.deployment.servers
                      if server.is_byzantine)

    def crashed_nodes(self) -> list[str]:
        """Names of currently crash-faulted nodes, sorted."""
        network = self.deployment.network
        return [name for name in network.node_names()
                if network.node(name).crashed]

    # -- inspection ------------------------------------------------------------

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

    def result(self) -> RunResult:
        """Package the standard analyses for the run so far."""
        from ..experiments.runner import package_result
        self._require_started()
        return RunResult.from_experiment(
            package_result(self.deployment, scale=self.scale))
