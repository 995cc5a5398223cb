"""The fault injector: the one path by which a fault reaches a deployment.

:class:`FaultInjector` is armed by :meth:`Deployment.start`: it schedules one
simulator timer per event at its ``at`` time.  :meth:`Deployment.apply`
applies events *now* through the same injector (building it, with an empty
schedule, on first use), so interactive crashes, partitions, Byzantine turns
and joins share the scheduled events' ownership claims and timeline.  Events
act through a :class:`FaultContext` — the narrow surface holding the
crash/recover, Byzantine and membership dispatch, network hooks, target
resolution and a derived RNG stream; nothing outside this package crashes,
recovers or turns a server Byzantine, and every crash, Byzantine turn, join
and leave is checked against the f-budget (:mod:`repro.faults.budget`) first.
Joins and leaves then act through the deployment's
:class:`~repro.core.membership.Membership` actuator.
All randomness comes from ``sim.rng.derive("faults")``, so the same
``(scenario, seed)`` produces the same chaos timeline in any process —
``sweep --jobs 1`` and ``--jobs 4`` stay byte-identical.

After a run, :meth:`FaultInjector.report` condenses the applied timeline plus
the metrics collector into the resilience block serialised as
``RunResult.faults``: per-window availability, commit latency during/outside
fault windows, recovery time to the first post-heal commit, and the network's
dropped/duplicated counters.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Any, Callable, Collection

from ..errors import ConfigurationError, did_you_mean
from .budget import ALL, check_budget
from .events import Targets
from .schedule import FaultScheduleConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.base import BaseSetchainServer
    from ..core.deployment import Deployment
    from ..net.message import Message
    from ..net.network import Network
    from ..sim.rng import DeterministicRNG
    from ..sim.scheduler import Simulator


class FaultContext:
    """What a fault event may touch while applying itself."""

    def __init__(self, deployment: "Deployment",
                 rng: "DeterministicRNG",
                 injector: "FaultInjector") -> None:
        self.deployment = deployment
        self.sim: "Simulator" = deployment.sim
        self.network: "Network" = deployment.network
        self.rng = rng
        self._injector = injector
        #: node name -> claim token of the crash event that owns it.
        self._crash_claims: dict[str, int] = {}
        #: server name -> claim token of the Byzantine event that owns it.
        self._byz_claims: dict[str, int] = {}
        self._claim_counter = 0
        #: normalised cut -> claim tokens holding it (overlapping Partition
        #: events share Network's idempotent cut; the last release heals it).
        self._partition_claims: dict[frozenset[frozenset[str]], list[int]] = {}
        #: claim token -> the open-ended timeline entry its event opened; the
        #: explicit event that ends the fault gives the entry its ``until``.
        self._open: dict[int, dict[str, Any]] = {}

    # -- node pools -------------------------------------------------------------

    def server_names(self) -> list[str]:
        return [server.name for server in self.deployment.servers]

    def validator_names(self) -> list[str]:
        nodes = getattr(self.deployment.ledger_backend, "nodes", None)
        return sorted(nodes) if nodes else []

    def all_nodes(self) -> list[str]:
        """Every process on the simulated network (servers + ledger nodes)."""
        return self.network.node_names()

    def region_of(self, name: str) -> str | None:
        """Region of a node: servers from the deployment map, ledger nodes
        from the regional latency model's co-location map when present."""
        latency = self.network.latency
        region_map = getattr(latency, "region_of", None)
        if region_map and name in region_map:
            return region_map[name]
        return self.deployment.region_of.get(name)

    # -- target resolution -------------------------------------------------------

    def resolve(self, targets: Targets | None) -> list[str]:
        """Deterministically resolve a selector to sorted node names."""
        if targets is None:
            return []
        if targets.nodes:
            known = set(self.all_nodes())
            for name in targets.nodes:
                if name not in known:
                    raise ConfigurationError(
                        f"fault targets unknown node {name!r}"
                        + did_you_mean(name, sorted(known)))
            names = list(targets.nodes)
        else:
            if targets.role == "servers":
                names = self.server_names()
            elif targets.role == "validators":
                names = self.validator_names()
            else:
                names = self.all_nodes()
            if targets.region is not None:
                names = [name for name in names
                         if self.region_of(name) == targets.region]
        if targets.count is not None and targets.count < len(names):
            names = self.sample(names, targets.count)
        return sorted(names)

    def sample(self, pool: list[str], k: int) -> list[str]:
        """A deterministic random ``k``-subset of ``pool``."""
        if k >= len(pool):
            return sorted(pool)
        return sorted(self.rng.sample(sorted(pool), k))

    def name_matcher(self, names: list[str] | None) -> "Callable[[Message], bool]":
        """A message predicate: sender or recipient is in ``names``
        (``None`` matches every message).  Callers resolve selectors once and
        pass the result, so the rule and the recorded targets can never see
        two different random draws."""
        if names is None:
            return lambda message: True
        matched = frozenset(names)
        return lambda message: (message.sender in matched
                                or message.recipient in matched)

    # -- crash/recover dispatch ---------------------------------------------------

    def _server(self, name: str) -> "BaseSetchainServer | None":
        """The Setchain server called ``name``; ``None`` for any other node."""
        return next((server for server in self.deployment.servers
                     if server.name == name), None)

    def _next_token(self) -> int:
        self._claim_counter += 1
        return self._claim_counter

    def _close(self, token: int | None) -> None:
        """End the open-ended window ``token`` opened (if any), now."""
        entry = self._open.pop(token, None)
        if entry is not None:
            entry["until"] = self.sim.now

    def crash_node(self, name: str) -> None:
        """Crash-fault a server or ledger node (idempotent)."""
        crash = getattr(self.deployment.ledger_backend, "crash_node", None)
        if crash is not None and self._server(name) is None:
            crash(name)
        else:
            self.network.node(name).crash()
        self.deployment.annotate(name, "fault:crash")

    def recover_node(self, name: str) -> None:
        """Recover a crashed server or ledger node (idempotent).

        Ledger nodes recover through their backend when it knows how (e.g.
        CometBFT's block-sync from a live peer); servers replay the blocks
        their co-located ledger node finalised while they were down.
        """
        recover = getattr(self.deployment.ledger_backend, "recover_node", None)
        if recover is not None and self._server(name) is None:
            recover(name)
        else:
            self.network.node(name).recover()
        self.deployment.annotate(name, "fault:recover")

    def is_crashed(self, name: str) -> bool:
        return self.network.node(name).crashed

    def live(self, names: list[str]) -> list[str]:
        """Filter out nodes that are already crash-faulted.

        Crash-type events claim only nodes *they* bring down, so overlapping
        schedules never recover another event's victim ahead of its window.
        """
        return [name for name in names if not self.is_crashed(name)]

    def _check_budget(self, crashed: Collection[str] = (),
                      byzantine: Collection[str] = (),
                      leaving: str | None = None,
                      joining: str | None = None) -> None:
        """Refuse a change that breaks the f-budget before making it: a crashed
        Byzantine server counts once, a draining one not at all, and a server
        joining group ``joining`` as one more correct member."""
        deployment = self.deployment
        present = [(server.algorithm_group(),
                    server.is_byzantine or server.name in byzantine,
                    server.name in crashed or server.crashed)
                   for server in deployment.servers
                   if not server.draining and server.name != leaving]
        departed = (len(deployment.departed_servers) + len(deployment.servers)
                    - len(present))  # the draining ones and ``leaving`` too
        if joining is not None:
            present.append((joining, False, False))
        scopes: dict[str, tuple[int, int, int]] = {}
        for group, byz, down in present:
            for key in (group,) if deployment.shard_router else (group, ALL):
                members, byz_count, down_count = scopes.get(key, (0, 0, 0))
                scopes[key] = (members + 1, byz_count + byz,
                               down_count + (down and not byz))
        check_budget(self.sim.now, scopes, departed, deployment.config.pinned_f)

    def claim_crashes(self, names: list[str]) -> int:
        """Crash ``names`` under a fresh ownership token.

        The paired :meth:`release_crashes` recovers only the nodes this token
        still owns, so a scheduled auto-recover can never bring back a node
        that was explicitly recovered and then re-claimed by a later event.
        """
        self._check_budget(crashed=names)
        token = self._next_token()
        for name in names:
            self.crash_node(name)
            self._crash_claims[name] = token
        return token

    def release_crashes(self, names: list[str], token: int) -> None:
        """Recover the nodes in ``names`` still owned by ``token``."""
        for name in names:
            if self._crash_claims.get(name) == token:
                del self._crash_claims[name]
                self.recover_node(name)

    def force_recover(self, name: str) -> None:
        """Explicit recovery (the ``Recover`` event): clears any ownership,
        and ends the owning crash's open window once it owns no node."""
        token = self._crash_claims.pop(name, None)
        self.recover_node(name)
        if token not in self._crash_claims.values():
            self._close(token)

    # -- Byzantine behaviour dispatch ---------------------------------------------

    def is_server(self, name: str) -> bool:
        """Whether ``name`` is a Setchain server (Byzantine-capable)."""
        return self._server(name) is not None

    def is_byzantine(self, name: str) -> bool:
        """Whether ``name`` is a server running a Byzantine behaviour
        (``False`` for ledger nodes: consensus models its own threshold)."""
        server = self._server(name)
        return server is not None and server.is_byzantine

    def correct(self, names: list[str]) -> list[str]:
        """Filter out servers that are already Byzantine.

        Byzantine-type events claim only the servers *they* turned, mirroring
        the crash-claim discipline: overlapping schedules never revert another
        event's server ahead of its window.
        """
        return [name for name in names if not self.is_byzantine(name)]

    def claim_byzantine(self, names: list[str], behaviour: str) -> int:
        """Turn servers ``names`` Byzantine under a fresh ownership token."""
        self._check_budget(byzantine=names)
        token = self._next_token()
        for name in names:
            self._server(name).become_byzantine(behaviour)  # type: ignore[union-attr]
            self.deployment.annotate(name, f"byzantine:{behaviour}")
            self._byz_claims[name] = token
        return token

    def _become_correct(self, name: str) -> None:
        self._server(name).become_correct()  # type: ignore[union-attr]
        self.deployment.annotate(name, "byzantine:reverted")

    def release_byzantine(self, names: list[str], token: int) -> None:
        """Revert the servers in ``names`` still owned by ``token``."""
        for name in names:
            if self._byz_claims.get(name) == token:
                del self._byz_claims[name]
                self._become_correct(name)

    def force_correct(self, name: str) -> None:
        """Explicit reversion (the ``BecomeCorrect`` event): clears ownership,
        and ends the owning event's open window once it owns no server."""
        token = self._byz_claims.pop(name, None)
        self._become_correct(name)
        if token not in self._byz_claims.values():
            self._close(token)

    # -- membership dispatch -------------------------------------------------------

    def join(self, node: str | None = None, role: str = "servers",
             region: str | None = None, algorithm: str | None = None) -> str:
        """Admit a new node; returns its (possibly auto-assigned) name.  Its
        names, and a server's place in the f-budget, are checked first."""
        membership = self.deployment.membership
        group = membership.joining_group(algorithm, region)
        if role == "servers":
            self._check_budget(joining=group)
        return membership.join(node, algorithm, region, role=role)

    def can_leave(self, name: str) -> bool:
        """Whether ``name`` is a server currently eligible to depart."""
        server = self._server(name)
        return (server is not None and not server.bootstrapping
                and not server.draining and not server.departed
                and sum(not s.draining for s in self.deployment.servers) > 1)

    def leave(self, name: str, drain: bool = True) -> None:
        """Retire a server cleanly (drained by default)."""
        self._check_budget(leaving=name)
        self.deployment.membership.leave(name, drain=drain)

    def forget(self, names: Collection[str]) -> None:
        """Drop the crash and Byzantine claims on nodes that left the
        cluster, so the events owning them release nothing later."""
        for name in names:
            self._crash_claims.pop(name, None)
            self._byz_claims.pop(name, None)

    # -- partition ownership -----------------------------------------------------

    @staticmethod
    def _cut_key(group: set[str], rest: set[str]) -> frozenset[frozenset[str]]:
        return frozenset((frozenset(group), frozenset(rest)))

    def claim_partition(self, group: set[str], rest: set[str]) -> int:
        """Install a cut under a fresh ownership token.

        ``Network.partition`` is idempotent, so overlapping Partition events
        resolving to the same cut share one underlying partition; the cut
        heals only when its *last* owner releases it.
        """
        key = self._cut_key(group, rest)
        tokens = self._partition_claims.setdefault(key, [])
        if not tokens:
            self.network.partition(group, rest)
        tokens.append(self._next_token())
        return tokens[-1]

    def release_partition(self, group: set[str], rest: set[str],
                          token: int) -> None:
        """Drop ``token``'s claim on a cut; the last release heals it."""
        key = self._cut_key(group, rest)
        tokens = self._partition_claims.get(key, [])
        if token in tokens:
            tokens.remove(token)
        if not tokens:
            self._partition_claims.pop(key, None)
            self.network.heal(group, rest)

    def heal_all_partitions(self) -> None:
        """Explicit global heal (the ``Heal`` event): clears every claim and
        ends every open partition window."""
        for tokens in self._partition_claims.values():
            for token in tokens:
                self._close(token)
        self._partition_claims.clear()
        self.network.heal()

    # -- bookkeeping --------------------------------------------------------------

    def record(self, kind: str, targets: list[str] | None = None,
               until: float | None = None, note: str = "",
               open_ended: bool = False, claim: int | None = None) -> None:
        """Log one applied fault into the timeline.

        An entry is a *fault window* when it has an ``until`` or is declared
        ``open_ended`` (active until an explicit ``Recover``,
        ``BecomeCorrect`` or ``Heal`` releases ``claim``, or the end of the
        run); anything else — heals, recoveries, skipped degenerate events —
        is instantaneous and does not count toward the during-faults metrics.
        """
        entry = self._injector.record(kind, targets or [], until, note,
                                      open_ended)
        if open_ended and claim is not None:
            self._open[claim] = entry


class FaultInjector:
    """Schedules a :class:`FaultScheduleConfig` onto a deployment's simulator
    and keeps the one timeline of every fault applied, scheduled or not."""

    def __init__(self, deployment: "Deployment",
                 schedule: FaultScheduleConfig) -> None:
        self.deployment = deployment
        self.schedule = schedule
        self.rng = deployment.sim.rng.derive("faults")
        self.context = FaultContext(deployment, self.rng, self)
        #: Applied-fault timeline (JSON-safe entries, in application order).
        self.applied: list[dict[str, Any]] = []
        #: The entries of :attr:`applied` that are fault windows, from ``at``
        #: to ``until`` (absent: open-ended, until the end of the run).
        #: Instantaneous entries (heal, recover) are not windows.
        self._windows: list[dict[str, Any]] = []
        self._armed = False

    def arm(self) -> None:
        """Schedule every event's ``apply`` at its ``at`` time.  Idempotent."""
        if self._armed:
            return
        self._armed = True
        sim = self.deployment.sim
        for event in self.schedule.events:
            sim.call_at(max(event.at, sim.now),
                        lambda e=event: e.apply(self.context))

    def record(self, kind: str, targets: list[str], until: float | None,
               note: str, open_ended: bool = False) -> dict[str, Any]:
        entry: dict[str, Any] = {"at": self.deployment.sim.now, "kind": kind,
                                 "targets": list(targets)}
        if until is not None:
            entry["until"] = until
        if note:
            entry["note"] = note
        self.applied.append(entry)
        if until is not None or open_ended:
            self._windows.append(entry)
        return entry

    # -- resilience report --------------------------------------------------------

    def report(self) -> dict[str, Any]:
        """The ``RunResult.faults`` block for the run so far (JSON-safe)."""
        deployment = self.deployment
        metrics = deployment.metrics
        network = deployment.network
        horizon = deployment.sim.now

        intervals = [(entry["at"], entry.get("until", horizon))
                     for entry in self._windows]
        commit_times = metrics.commit_times()

        # Per-window availability over the injection phase: the fraction of
        # elements injected in each window that eventually committed.
        window = self.schedule.availability_window
        duration = deployment.config.workload.injection_duration
        buckets: dict[int, list[int]] = {}
        for record in metrics.elements.values():
            if record.injected_at is None or record.injected_at >= duration:
                continue
            bucket = buckets.setdefault(int(record.injected_at // window), [0, 0])
            bucket[0] += 1
            if record.committed:
                bucket[1] += 1
        windows = [{"start": index * window, "injected": count,
                    "committed": done,
                    "availability": (done / count) if count else None}
                   for index, (count, done) in sorted(buckets.items())]

        # Commit latency inside vs outside active fault windows.
        during: list[float] = []
        outside: list[float] = []
        for record in metrics.elements.values():
            latency = record.commit_latency()
            if latency is None or record.injected_at is None:
                continue
            injected_at = record.injected_at
            if any(start <= injected_at < end for start, end in intervals):
                during.append(latency)
            else:
                outside.append(latency)

        def mean(values: list[float]) -> float | None:
            return sum(values) / len(values) if values else None

        # Recovery: time from each fault's end to the first commit observed
        # at or after it (None when nothing committed afterwards).
        recovery = []
        for entry in self.applied:
            end = entry.get("until")
            if end is None:
                continue
            index = bisect_left(commit_times, end)
            first = commit_times[index] if index < len(commit_times) else None
            recovery.append({
                "kind": entry["kind"], "healed_at": end,
                "first_commit_after": first,
                "recovery_s": None if first is None else first - end,
            })

        report = {
            "schedule_events": len(self.schedule.events),
            "events": [dict(entry) for entry in self.applied],
            "messages_dropped": network.messages_dropped,
            "messages_duplicated": network.messages_duplicated,
            "rejected_while_crashed": sum(
                getattr(server, "crashed_rejects", 0)
                for server in deployment.servers),
            "availability": {"window_s": window, "windows": windows},
            "commit_latency_s": {"during_faults": mean(during),
                                 "fault_free": mean(outside)},
            "recovery": recovery,
        }
        byzantine = deployment.byzantine_servers()
        if byzantine:
            # Only runs that actually turned a server Byzantine grow this
            # block, so crash-only artifacts keep the PR 4 schema.
            report["byzantine"] = {
                "servers": sorted(byzantine),
                "counters": dict(sorted(metrics.byzantine_counters.items())),
                "by_server": {
                    name: dict(sorted(counters.items()))
                    for name, counters
                    in sorted(metrics.byzantine_by_server.items())},
            }
        return report
