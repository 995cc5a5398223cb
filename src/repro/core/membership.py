"""Membership: the server set as a step function of time, and the one actuator
that changes it.

Static deployments have a single membership epoch fixed at build time.  A
``Join`` or ``Leave`` (a scheduled fault event or one passed to
``Session.apply``, both reaching :class:`Membership` through the fault
context, which checks the f-budget first) appends a new epoch whose quorum
activates at a *block boundary* two blocks after the change is committed —
mirroring real Tendermint's validator-set update delay — so every correct
server switches quorums at the same deterministic point in the ledger, not
at a wall-clock instant.

:class:`Membership` answers two questions:

* what is the member set / quorum *at ledger height h* (used by the
  epoch-commit rule and the hashchain ``f+1`` consolidation trigger), and
* what changed when (``RunResult.membership`` and the service health
  endpoint);

and owns the two changes: a join (build, state transfer, admit once caught
up) and a leave (drain, hand off, retire).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from ..errors import ConfigurationError, NetworkError, check_name
from ..faults.budget import fault_tolerance
from ..ledger.cometbft.engine import CometBFTNetwork
from ..net.latency import RegionalLatency
from ..shard.router import shard_group
from ..topology.components import ALGORITHMS
from ..topology.regions import server_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..config import ExperimentConfig
    from .base import BaseSetchainServer
    from .deployment import Deployment

#: How often (simulated seconds) join/leave transitions re-check whether a
#: bootstrapping server has caught up or a draining server has emptied.
_POLL = 0.25


def check_joiner(config: "ExperimentConfig", algorithm: str | None,
                 region: str | None) -> None:
    """Refuse a join naming an unknown algorithm or region before anything
    is built: a schedule's at config time, an interactive one before the
    actuator touches any state."""
    if algorithm is not None:
        check_name("algorithm", algorithm, ALGORITHMS)
    if region is not None:
        if config.topology is None:
            raise ConfigurationError(
                f"join region {region!r} needs a topology; this deployment "
                "has no regions")
        check_name("region", region, dict.fromkeys(config.topology.region_names))


@dataclass(frozen=True)
class MembershipEpoch:
    """One interval of constant membership."""

    #: 1-based position in the log.
    index: int
    #: Simulated time the change was initiated.
    at: float
    #: First ledger height at which this epoch's quorum applies.
    effective_height: int
    #: Sorted member names.
    members: tuple[str, ...]
    #: Resolved fault tolerance for this member count.
    f: int
    #: Signers/proofs needed to trust an epoch under this membership.
    quorum: int
    #: "initial", "join" or "leave".
    reason: str
    #: The node that joined/left (None for the initial epoch).
    node: str | None = None

    def to_dict(self) -> dict:
        data = asdict(self)
        data["members"] = list(self.members)
        if self.node is None:
            del data["node"]
        return data


class Membership:
    """Membership epochs keyed by effective ledger height, and the actuator
    that appends them."""

    def __init__(self, deployment: "Deployment") -> None:
        self._deployment = deployment
        # Sharded runs pin f to the per-shard tolerance: joins and leaves must
        # never dilute a shard's f+1 quorum with the deployment-wide count.
        self._explicit_f = deployment.config.pinned_f
        #: In log order; the servers consult it only after the first change.
        self.epochs: list[MembershipEpoch] = []
        self._append(tuple(s.name for s in deployment.servers), at=0.0,
                     effective_height=0, reason="initial", node=None)
        #: One entry per admitted joiner and per retired leaver, in order:
        #: the ``RunResult.membership`` rows, bar what the report adds.
        self.joins: list[dict] = []
        self.leaves: list[dict] = []
        #: Index of the next auto-named joiner (``server-<i>``).
        self._next_index = len(deployment.servers)

    # -- queries ----------------------------------------------------------------

    @property
    def current(self) -> MembershipEpoch:
        return self.epochs[-1]

    @property
    def changed(self) -> bool:
        """True once any join/leave has been recorded."""
        return len(self.epochs) > 1

    def quorum_at_height(self, height: int) -> int:
        """The quorum of the epoch governing blocks at ledger ``height``."""
        for epoch in reversed(self.epochs):
            if epoch.effective_height <= height:
                return epoch.quorum
        return self.epochs[0].quorum

    def min_quorum(self) -> int:
        """The smallest quorum any epoch used (for retrospective proof checks)."""
        return min(e.quorum for e in self.epochs)

    @property
    def height(self) -> int:
        """The ledger's committed height: the ideal ledger's, or the lowest
        every live CometBFT validator has reached."""
        backend = self._deployment.ledger_backend
        if isinstance(backend, CometBFTNetwork):
            return backend.min_committed_height()
        return backend.height

    def joining_group(self, algorithm: str | None, region: str | None) -> str:
        """The algorithm group a server joining now would enter (its shard's,
        when sharded), after :func:`check_joiner`; touches nothing."""
        deployment = self._deployment
        check_joiner(deployment.config, algorithm, region)
        router = deployment.shard_router
        return shard_group(
            algorithm or deployment.config.algorithm,
            None if router is None else router.placement_for_join(
                deployment.config.setchain.n_servers))

    # -- changes ----------------------------------------------------------------

    def _append(self, members: tuple[str, ...], at: float,
                effective_height: int, reason: str,
                node: str | None) -> MembershipEpoch:
        # Epochs activate in log order; a change recorded later can never
        # take effect at an earlier height than its predecessor.
        if self.epochs:
            effective_height = max(effective_height,
                                   self.epochs[-1].effective_height)
        f = fault_tolerance(len(members), self._explicit_f)
        epoch = MembershipEpoch(index=len(self.epochs) + 1, at=at,
                                effective_height=effective_height,
                                members=tuple(sorted(members)), f=f,
                                quorum=f + 1, reason=reason, node=node)
        self.epochs.append(epoch)
        return epoch

    def _activate(self) -> None:
        """Wire every server to the log: static runs never consult it."""
        for server in self._deployment.servers:
            server.attach_membership(self)

    def _active_peers(self, server: "BaseSetchainServer") -> list["BaseSetchainServer"]:
        """Live, caught-up servers of ``server``'s group, itself excluded."""
        group = server.algorithm_group()
        return [peer for peer in self._deployment.servers
                if peer is not server and peer.algorithm_group() == group
                and peer.accepts_adds]

    def join(self, name: str | None = None, algorithm: str | None = None,
             region: str | None = None, role: str = "servers") -> str:
        """Join a node at runtime and return its name.

        A server is built, state-transferred, then admitted: it bootstraps by
        replaying the committed chain (the same replay path crash recovery
        uses) with its batch store primed from a live peer, and counts toward
        f+1 quorums only once caught up, when a membership epoch activating
        two blocks later is appended.  With the CometBFT backend a new
        co-located validator joins the validator set the same way;
        ``role="validators"`` adds only that validator.
        """
        deployment = self._deployment
        check_joiner(deployment.config, algorithm, region)
        backend = deployment.ledger_backend
        if role == "validators":
            if not isinstance(backend, CometBFTNetwork):
                raise NetworkError(
                    f"ledger backend {deployment.config.ledger_backend!r} has "
                    "no validator set to grow")
            return backend.add_validator(name).name
        if not deployment.started or deployment.stopped:
            raise NetworkError("joins need a started, not-yet-stopped deployment")
        if name is None:
            name = server_name(self._next_index)
        if name in deployment.network or any(s.name == name
                                             for s in deployment.servers):
            raise NetworkError(f"a node named {name!r} already exists")
        self._activate()
        self._next_index += 1
        keypair = deployment.scheme.generate_keypair(
            name, deployment_seed=deployment.config.workload.seed)
        server = ALGORITHMS[algorithm or deployment.config.algorithm](
            deployment.context, name, keypair)
        if deployment.shard_router is not None:
            # Shard placement before any group-scoped step below (donor
            # selection, store handoff) — the joiner's group key carries its
            # shard index.
            self._enroll_in_shard(server)
        deployment.network.register(server)
        # Ledger hookup: a fresh co-located validator (CometBFT) or a fresh
        # sequencer handle (ideal/sqlite).
        placed = [name]
        if isinstance(backend, CometBFTNetwork):
            handle = backend.add_validator()
            committed = list(handle.committed_blocks)
            placed.append(handle.name)
        else:
            handle = backend.handle_for(name)
            committed = list(backend.blocks)
        server.connect_ledger(handle)
        if region is not None:
            # check_joiner admits a region only with a topology, whose
            # deployments always run a RegionalLatency.
            deployment.region_of[name] = region
            latency = deployment.network.latency
            assert isinstance(latency, RegionalLatency)
            latency.region_of.update(dict.fromkeys(placed, region))
        server.attach_membership(self)
        server.begin_bootstrap()
        server.start()
        deployment.servers.append(server)
        # State transfer, stage 1: prime the batch store from a live peer so
        # the replay resolves hashes locally instead of storming the donors
        # with Request_batch traffic (the sqlite restart-resume treatment).
        store = getattr(server, "store", None)
        if store is not None:
            donors = self._active_peers(server)
            if donors:
                for digest, items in donors[0].store.items():
                    store.register_remote(digest, items)
        # State transfer, stage 2: replay the committed chain through the
        # normal FinalizeBlock path (crash recovery's replay, from genesis).
        for block in committed:
            server.finalize_block(block)
        at = deployment.sim.now

        def caught_up() -> None:
            if server.departed:
                return  # left again before ever catching up
            if not server.pipeline_idle:
                deployment.sim.call_in(_POLL, caught_up)
                return
            server.end_bootstrap()
            epoch = self._append(self.current.members + (name,), at=at,
                                 effective_height=self.height + 2,
                                 reason="join", node=name)
            now = deployment.sim.now
            self.joins.append({"node": name, "at": at,
                               "effective_height": epoch.effective_height,
                               "caught_up_at": now, "catch_up_s": now - at})

        deployment.sim.call_in(_POLL, caught_up)
        deployment.annotate(name, "membership:join")
        return name

    def _enroll_in_shard(self, server: "BaseSetchainServer") -> None:
        """Assign a joiner to a shard and refresh that shard's peer sets.

        Filling an under-sized shard first and opening a fresh shard
        otherwise gives both elastic stories: replace a lost member, or add
        a whole shard under load (router traffic starts once the new shard
        reaches a routable quorum).
        """
        deployment = self._deployment
        router = deployment.shard_router
        assert router is not None
        shard = router.placement_for_join(deployment.config.setchain.n_servers)
        server.shard_index = shard
        router.add_server(shard, server)
        members = frozenset(s.name for s in router.shard_servers[shard]
                            if not s.departed)
        for member in router.shard_servers[shard]:
            member.shard_peers = members
        deployment.metrics.assign_shard(server.name, shard)
        deployment.annotate(server.name, f"shard:{shard}")

    def leave(self, name: str, drain: bool = True) -> None:
        """Leave: drain the server's obligations, then retire it cleanly.

        Draining stops new adds immediately, flushes the collector, keeps
        processing blocks until the pipeline and any in-flight Request_batch
        are empty, hands the batch store off to live peers (so pending
        hash-reversal obligations stay servable), and only then retires the
        server — distinct from a crash, which drops all of that on the floor.
        A crashed leaver drains once it recovers.  ``drain=False`` retires
        immediately (an impatient operator).
        """
        deployment = self._deployment
        server = next((s for s in deployment.servers if s.name == name), None)
        if server is None:
            raise NetworkError(f"no Setchain server named {name!r} to remove")
        if sum(not s.draining for s in deployment.servers) <= 1:
            raise NetworkError("cannot remove the last server")
        self._activate()
        backend = deployment.ledger_backend
        if isinstance(backend, CometBFTNetwork):
            # The co-located validator leaves the set now (two-block
            # activation); the node keeps validating until then.
            backend.remove_validator(server.ledger.name)  # type: ignore[attr-defined]
        deployment.annotate(name, "membership:leave")
        if not drain:
            self._retire(server, drained=False)
            return
        server.begin_drain()

        def drained() -> None:
            if server.departed:
                return  # retired through another path
            collector = getattr(server, "collector", None)
            if (not server.crashed and server.pipeline_idle
                    and (collector is None or not collector.pending_view())
                    and self._shard_dry(server)):
                self._retire(server, drained=True)
            else:
                deployment.sim.call_in(_POLL, drained)

        deployment.sim.call_in(_POLL, drained)

    def _shard_dry(self, server: "BaseSetchainServer") -> bool:
        """Whole-shard retirement: when no continuing (non-draining) member
        would remain to process the shard's ledger traffic, the last leavers
        also wait for every element admitted to the shard to commit — the
        origin filter means no other shard can finish that work for them.
        Always true unsharded."""
        deployment = self._deployment
        if deployment.shard_router is None:
            return True
        shard = server.shard_index
        if any(s is not server and s.shard_index == shard
               and not s.departed and not s.draining
               for s in deployment.servers):
            return True
        metrics = deployment.metrics
        return (metrics.shard_committed.get(shard, 0)
                >= metrics.shard_added.get(shard, 0))

    def _retire(self, server: "BaseSetchainServer", drained: bool) -> None:
        deployment = self._deployment
        # Hand off Request_batch obligations: every batch only this server
        # holds is copied to the live peers of its group before it goes away.
        store = getattr(server, "store", None)
        if store is not None:
            peers = self._active_peers(server)
            for digest, items in store.items():
                for peer in peers:
                    if digest not in peer.store:
                        peer.store.register_remote(digest, items)
        server.retire()
        deployment.network.unregister(server.name)
        deployment.servers.remove(server)
        deployment.departed_servers.append(server)
        now = deployment.sim.now
        epoch = self._append(
            tuple(m for m in self.current.members if m != server.name), at=now,
            effective_height=self.height + 2, reason="leave", node=server.name)
        self.leaves.append({"node": server.name, "at": now,
                            "effective_height": epoch.effective_height,
                            "drained": drained, "retired_at": now})
        gone = [server.name]
        backend = deployment.ledger_backend
        if isinstance(backend, CometBFTNetwork):
            gone.append(server.ledger.name)  # type: ignore[attr-defined]
            backend.retire_node(gone[-1])
        if deployment.fault_injector is not None:
            # A crash or Byzantine window still owning a retired node ends
            # without touching it.
            deployment.fault_injector.context.forget(gone)
        deployment.annotate(server.name, "membership:retired")

    # -- report -------------------------------------------------------------------

    def report(self) -> dict | None:
        """The ``RunResult.membership`` block; ``None`` for static runs."""
        if not self.changed:
            return None
        deployment = self._deployment
        by_name = {server.name: server for server
                   in deployment.servers + deployment.departed_servers}
        joins = []
        for join in self.joins:
            entry = dict(join)
            first = by_name[join["node"]].first_commit_at
            if first is not None:
                entry["first_commit_at"] = first
                entry["join_to_first_commit_s"] = max(0.0, first - join["at"])
            joins.append(entry)
        leaves = [dict(leave, drained_rejects=by_name[leave["node"]].drained_rejects)
                  for leave in self.leaves]
        current = self.current
        report = {
            "epochs": [epoch.to_dict() for epoch in self.epochs],
            "joins": joins,
            "leaves": leaves,
            "current": {"epoch": current.index,
                        "members": list(current.members),
                        "size": len(current.members),
                        "f": current.f,
                        "quorum": current.quorum},
        }
        backend = deployment.ledger_backend
        if isinstance(backend, CometBFTNetwork) and backend.validators.version:
            report["validator_epochs"] = [
                {"effective_height": height, "members": list(members)}
                for height, members in backend.validators.epochs()]
        return report
