"""The typed fault-event DSL: declarative, seed-deterministic chaos events.

Every event is a frozen dataclass with an ``at`` time (simulated seconds) and,
where the fault has an extent, an ``until`` time; targets are described by a
:class:`Targets` selector (explicit node names, a region, a role, or an
RNG-derived random subset via ``count``) resolved at apply time against the
live deployment.  Events serialise to plain JSON dicts with a ``kind``
discriminator (each class's ``kind`` ClassVar, resolved back to the class
through :data:`FAULT_KINDS`), so schedules round-trip through
``ExperimentConfig`` echoes.

The eight built-in kinds follow the Jepsen nemesis vocabulary:

=============== ================================================================
``partition``   split a node group from the rest (optionally re-rolled every
                ``period`` seconds — "partition a random minority every N ms")
``heal``        remove every installed partition (ending open partitions)
``crash``       crash-fault nodes (auto-recover at ``until``)
``recover``     explicitly recover crashed nodes (ending an open crash once
                it has no node left down)
``message-loss`` drop each matching message with probability ``rate``
``duplicate``   deliver each matching message twice with probability ``rate``
``delay-spike`` add ``extra_ms`` (+ uniform jitter) to matching messages
``churn``       every ``period``: recover the previous victims, crash a fresh
                random ``count`` — rolling restarts / validator churn
=============== ================================================================

Two further kinds turn the :mod:`repro.core.byzantine` behaviour strategies
into nemeses, so chaos timelines mix crash and Byzantine faults:

=================== ============================================================
``become-byzantine`` attach a named behaviour (withhold / wrong-hash /
                     invalid-element / equivocate / silent) to the targeted
                     servers, reverting at ``until`` when set
``become-correct``   explicitly shed the targeted servers' behaviours
=================== ============================================================

Two membership kinds make the node set itself dynamic — a deliberate
join/leave is a scheduled reconfiguration, not a fault window:

=========== ====================================================================
``join``    admit a new server (bootstrapped via state transfer) or validator;
            it counts toward quorums only once caught up
``leave``   retire nodes cleanly: drain, hand off obligations, then depart —
            distinct from a crash (no recovery, quorums shrink)
=========== ====================================================================
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, ClassVar, Mapping

from ..errors import ConfigurationError, check_name, did_you_mean

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .injector import FaultContext

#: Valid ``Targets.role`` values.
ROLES = ("servers", "validators", "all")


@dataclass(frozen=True)
class Targets:
    """Which nodes a fault hits, resolved at apply time.

    ``nodes`` selects explicitly by name; otherwise the pool is every node of
    ``role`` ("servers", "validators", or "all"), optionally narrowed to one
    ``region``.  ``count`` draws a random subset of that size from the
    injector's derived RNG stream — the randomized-variant hook ("crash a
    random server", "partition a random minority").
    """

    nodes: tuple[str, ...] = ()
    region: str | None = None
    role: str = "servers"
    count: int | None = None

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise ConfigurationError(
                f"unknown fault target role {self.role!r}"
                + did_you_mean(self.role, list(ROLES)))
        if self.count is not None and self.count < 1:
            raise ConfigurationError("target count must be at least 1")
        if not isinstance(self.nodes, tuple):
            object.__setattr__(self, "nodes", tuple(self.nodes))

    def to_dict(self) -> dict[str, Any]:
        return {"nodes": list(self.nodes), "region": self.region,
                "role": self.role, "count": self.count}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Targets":
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"fault targets must be an object, got {type(data).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown fault target fields: {unknown}")
        payload = dict(data)
        if "nodes" in payload:
            payload["nodes"] = tuple(payload["nodes"])
        return cls(**payload)


@dataclass(frozen=True, kw_only=True)
class FaultEvent:
    """Base of every fault event: an ``at`` instant plus an optional extent.

    Subclasses implement :meth:`apply`, which performs the event's effect when
    the injector's timer fires at ``at`` — including scheduling its own end at
    ``until`` (targeted heal, auto-recover, rule removal) and any periodic
    re-rolls.  Fields holding a :class:`Targets` selector must be listed in
    ``_target_fields`` so generic (de)serialisation converts them.
    """

    #: Wire discriminator: the event's key in :data:`FAULT_KINDS`.
    kind: ClassVar[str] = "?"
    #: Field names (de)serialised as :class:`Targets`.
    _target_fields: ClassVar[tuple[str, ...]] = ()

    at: float = 0.0
    until: float | None = None

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ConfigurationError(f"fault time cannot be negative: {self.at}")
        if self.until is not None and self.until <= self.at:
            raise ConfigurationError(
                f"fault until ({self.until}) must be after at ({self.at})")

    # -- behaviour --------------------------------------------------------------

    def apply(self, ctx: "FaultContext") -> None:
        """Perform the event's effect (called at simulated time ``at``)."""
        raise NotImplementedError  # pragma: no cover - abstract

    # -- serialisation ----------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """A pure-JSON dict with a ``kind`` discriminator."""
        data: dict[str, Any] = {"kind": self.kind}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, Targets):
                value = value.to_dict()
            elif isinstance(value, tuple):
                value = list(value)
            data[field.name] = value
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultEvent":
        """Invert :meth:`to_dict` (the ``kind`` key is optional here)."""
        payload = dict(data)
        payload.pop("kind", None)
        field_names = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - field_names)
        if unknown:
            raise ConfigurationError(
                f"unknown {cls.kind!r} fault fields: {unknown}"
                + did_you_mean(unknown[0], sorted(field_names)))
        for name, value in list(payload.items()):
            if name in cls._target_fields and value is not None:
                payload[name] = Targets.from_dict(value)
            elif isinstance(value, list):
                payload[name] = tuple(value)
        return cls(**payload)


def _require_rate(rate: float, kind: str) -> None:
    if not 0.0 < rate <= 1.0:
        raise ConfigurationError(
            f"{kind} rate must be in (0, 1], got {rate}")


@dataclass(frozen=True, kw_only=True)
class Partition(FaultEvent):
    """Split ``group`` from every other node until ``until`` (or forever).

    With ``period`` set (requires ``until``), the partition is re-rolled every
    ``period`` seconds: the previous cut heals and a fresh group — random when
    the selector uses ``count`` — is isolated, until the event's extent ends.
    """

    kind: ClassVar[str] = "partition"
    _target_fields: ClassVar[tuple[str, ...]] = ("group",)

    group: Targets = Targets(role="all")
    period: float | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.period is not None:
            if self.period <= 0:
                raise ConfigurationError("partition period must be positive")
            if self.until is None:
                raise ConfigurationError(
                    "a periodic (flapping) partition needs an until time")

    def apply(self, ctx: "FaultContext") -> None:
        stop = self.until if self.until is not None else None
        state: dict[str, tuple[set[str], set[str], int]] = {}

        def install(end: float | None) -> None:
            group = set(ctx.resolve(self.group))
            rest = set(ctx.all_nodes()) - group
            if not group or not rest:
                ctx.record(self.kind, targets=sorted(group),
                           note="degenerate partition (empty side); skipped")
                return
            token = ctx.claim_partition(group, rest)
            state["claim"] = (group, rest, token)
            ctx.record(self.kind, targets=sorted(group), until=end,
                       open_ended=end is None, claim=token)

        def uninstall() -> None:
            claim = state.pop("claim", None)
            if claim is not None:
                ctx.release_partition(*claim)

        if self.period is None:
            install(stop)
            if stop is not None:
                ctx.sim.call_at(stop, uninstall)
            return

        def cycle() -> None:
            uninstall()
            assert stop is not None
            if ctx.sim.now >= stop - 1e-12:
                return
            install(min(ctx.sim.now + self.period, stop))
            ctx.sim.call_at(min(ctx.sim.now + self.period, stop), cycle)

        cycle()


@dataclass(frozen=True, kw_only=True)
class Heal(FaultEvent):
    """Remove every installed partition at ``at`` (clearing all ownership)."""

    kind: ClassVar[str] = "heal"

    def apply(self, ctx: "FaultContext") -> None:
        ctx.heal_all_partitions()
        ctx.record(self.kind)


@dataclass(frozen=True, kw_only=True)
class Crash(FaultEvent):
    """Crash-fault the targeted nodes; auto-recover at ``until`` if set.

    Nodes another fault already crashed are skipped: each crash-type event
    owns — and later recovers — exactly the nodes it brought down, so
    overlapping schedules never truncate each other's fault windows.
    """

    kind: ClassVar[str] = "crash"
    _target_fields: ClassVar[tuple[str, ...]] = ("targets",)

    targets: Targets = Targets(role="servers", count=1)

    def apply(self, ctx: "FaultContext") -> None:
        names = ctx.live(ctx.resolve(self.targets))
        if not names:
            # Every target is already down (owned by another event): nothing
            # was crashed, so no fault window opens and nothing to recover.
            ctx.record(self.kind, note="all targets already crashed; skipped")
            return
        token = ctx.claim_crashes(names)
        ctx.record(self.kind, targets=names, until=self.until,
                   open_ended=self.until is None, claim=token)
        if self.until is not None:
            ctx.sim.call_at(self.until,
                            lambda: ctx.release_crashes(names, token))


@dataclass(frozen=True, kw_only=True)
class Recover(FaultEvent):
    """Recover crashed nodes (no-op for nodes that are up)."""

    kind: ClassVar[str] = "recover"
    _target_fields: ClassVar[tuple[str, ...]] = ("targets",)

    targets: Targets = Targets(role="servers")

    def apply(self, ctx: "FaultContext") -> None:
        names = ctx.resolve(self.targets)
        for name in names:
            ctx.force_recover(name)
        ctx.record(self.kind, targets=names)


@dataclass(frozen=True, kw_only=True)
class MessageLoss(FaultEvent):
    """Drop each matching message with probability ``rate`` while active.

    ``targets`` (optional) restricts the loss to messages whose sender *or*
    recipient is a resolved target — a flaky host rather than a flaky fabric.
    """

    kind: ClassVar[str] = "message-loss"
    _target_fields: ClassVar[tuple[str, ...]] = ("targets",)

    rate: float = 0.01
    targets: Targets | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        _require_rate(self.rate, self.kind)

    def apply(self, ctx: "FaultContext") -> None:
        resolved = ctx.resolve(self.targets)
        match = ctx.name_matcher(resolved if self.targets is not None else None)
        rng = ctx.rng
        rate = self.rate

        def rule(message) -> bool:  # type: ignore[no-untyped-def]
            return match(message) and rng.random() < rate

        ctx.network.add_drop_rule(rule)
        ctx.record(self.kind, targets=resolved, until=self.until,
                   note=f"rate={rate:g}", open_ended=self.until is None)
        if self.until is not None:
            ctx.sim.call_at(self.until,
                            lambda: ctx.network.remove_drop_rule(rule))


@dataclass(frozen=True, kw_only=True)
class Duplicate(FaultEvent):
    """Deliver each matching message twice with probability ``rate``.

    The duplicate copy draws its own latency, modelling gossip re-delivery /
    at-least-once transports; protocol layers must already deduplicate.
    """

    kind: ClassVar[str] = "duplicate"
    _target_fields: ClassVar[tuple[str, ...]] = ("targets",)

    rate: float = 0.01
    targets: Targets | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        _require_rate(self.rate, self.kind)

    def apply(self, ctx: "FaultContext") -> None:
        resolved = ctx.resolve(self.targets)
        match = ctx.name_matcher(resolved if self.targets is not None else None)
        rng = ctx.rng
        rate = self.rate

        def rule(message) -> bool:  # type: ignore[no-untyped-def]
            return match(message) and rng.random() < rate

        ctx.network.add_duplicate_rule(rule)
        ctx.record(self.kind, targets=resolved, until=self.until,
                   note=f"rate={rate:g}", open_ended=self.until is None)
        if self.until is not None:
            ctx.sim.call_at(self.until,
                            lambda: ctx.network.remove_duplicate_rule(rule))


@dataclass(frozen=True, kw_only=True)
class DelaySpike(FaultEvent):
    """Add ``extra_ms`` (plus uniform ``jitter_ms`` noise) to matching messages."""

    kind: ClassVar[str] = "delay-spike"
    _target_fields: ClassVar[tuple[str, ...]] = ("targets",)

    extra_ms: float = 100.0
    jitter_ms: float = 0.0
    targets: Targets | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.extra_ms < 0 or self.jitter_ms < 0:
            raise ConfigurationError("delay spike extra/jitter cannot be negative")

    def apply(self, ctx: "FaultContext") -> None:
        resolved = ctx.resolve(self.targets)
        match = ctx.name_matcher(resolved if self.targets is not None else None)
        rng = ctx.rng
        extra = self.extra_ms / 1000.0
        jitter = self.jitter_ms / 1000.0

        def rule(message) -> float:  # type: ignore[no-untyped-def]
            if not match(message):
                return 0.0
            return extra + (rng.uniform(0.0, jitter) if jitter else 0.0)

        ctx.network.add_delay_rule(rule)
        ctx.record(self.kind, targets=resolved, until=self.until,
                   note=f"extra={self.extra_ms:g}ms jitter={self.jitter_ms:g}ms",
                   open_ended=self.until is None)
        if self.until is not None:
            ctx.sim.call_at(self.until,
                            lambda: ctx.network.remove_delay_rule(rule))


@dataclass(frozen=True, kw_only=True)
class BecomeByzantine(FaultEvent):
    """Turn the targeted servers Byzantine with ``behaviour`` at ``at``.

    With ``until`` set the servers revert to correct automatically (the
    Byzantine window analogue of ``Crash``'s auto-recover); otherwise they
    stay Byzantine until a :class:`BecomeCorrect` event — or the end of the
    run.  Only Setchain servers can turn Byzantine: the consensus layer
    models its own fault threshold, so ``role="validators"`` is rejected and
    non-server targets resolved through ``role="all"`` are skipped.

    The f-budget bounds it: at no instant may Byzantine plus crashed
    servers exceed ``f`` deployment-wide or leave any algorithm group (each
    shard's, in a sharded run) short of ``f + 1`` correct signers.  A
    schedule is checked at config time, an interactive turn when applied —
    see :mod:`repro.faults.budget`.
    """

    kind: ClassVar[str] = "become-byzantine"
    _target_fields: ClassVar[tuple[str, ...]] = ("targets",)

    targets: Targets = Targets(role="servers", count=1)
    behaviour: str = "silent"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.targets.role == "validators":
            raise ConfigurationError(
                "Byzantine behaviours apply to Setchain servers; the "
                "consensus layer models its own fault threshold "
                "(use role='servers')")
        # Imported lazily: core.byzantine transitively imports repro.config,
        # which imports this module at load time.
        from ..core.byzantine import BEHAVIOURS
        check_name("Byzantine behaviour", self.behaviour, BEHAVIOURS)

    def apply(self, ctx: "FaultContext") -> None:
        names = [name for name in ctx.correct(ctx.resolve(self.targets))
                 if ctx.is_server(name)]
        if not names:
            # Every target is already Byzantine (owned by another event) or
            # not a Setchain server: nothing turned, nothing to revert.
            ctx.record(self.kind, note="no eligible targets; skipped")
            return
        token = ctx.claim_byzantine(names, self.behaviour)
        ctx.record(self.kind, targets=names, until=self.until,
                   note=f"behaviour={self.behaviour}",
                   open_ended=self.until is None, claim=token)
        if self.until is not None:
            ctx.sim.call_at(self.until,
                            lambda: ctx.release_byzantine(names, token))


@dataclass(frozen=True, kw_only=True)
class BecomeCorrect(FaultEvent):
    """Shed the targeted servers' Byzantine behaviours (no-op when correct).

    Detaching runs the behaviour's clean-up side effects — a ``withhold``
    server answers its buffered ``Request_batch`` messages, so consolidation
    of the withheld hashes resumes.
    """

    kind: ClassVar[str] = "become-correct"
    _target_fields: ClassVar[tuple[str, ...]] = ("targets",)

    targets: Targets = Targets(role="servers")

    def apply(self, ctx: "FaultContext") -> None:
        names = [name for name in ctx.resolve(self.targets)
                 if ctx.is_server(name)]
        for name in names:
            ctx.force_correct(name)
        ctx.record(self.kind, targets=names)


@dataclass(frozen=True, kw_only=True)
class Join(FaultEvent):
    """Admit a new node at ``at``: state transfer, then epoch-aware quorums.

    With ``role="servers"`` (the default) a fresh Setchain server is built,
    bootstrapped from a live peer (ledger block-sync plus batch-store
    priming), and admitted to the membership log once caught up; on a
    CometBFT backend the server's co-located validator joins the consensus
    set too, activating two blocks later as in real Tendermint.  With
    ``role="validators"`` only a consensus node is added.  ``node`` names the
    newcomer explicitly; by default names continue the deployment's
    ``server-<i>`` / ``cometbft-<i>`` sequences deterministically.
    ``algorithm`` must name an algorithm and ``region`` a region of the
    deployment's topology (see :func:`repro.core.membership.check_joiner`),
    and a joining server must keep the f-budget.
    """

    kind: ClassVar[str] = "join"

    node: str | None = None
    role: str = "servers"
    region: str | None = None
    algorithm: str | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.role not in ("servers", "validators"):
            raise ConfigurationError(
                f"join role must be 'servers' or 'validators', got {self.role!r}")
        if self.until is not None:
            raise ConfigurationError("join is instantaneous; it takes no until")

    def apply(self, ctx: "FaultContext") -> None:
        name = ctx.join(node=self.node, role=self.role, region=self.region,
                        algorithm=self.algorithm)
        ctx.record(self.kind, targets=[name],
                   note=f"role={self.role}" + (
                       f" region={self.region}" if self.region else ""))


@dataclass(frozen=True, kw_only=True)
class Leave(FaultEvent):
    """Retire the targeted nodes at ``at`` — a clean departure, not a crash.

    With ``drain=True`` (the default) each server first stops accepting new
    elements, flushes its collector, waits out its pending ``Request_batch``
    obligations, hands its batch store off to the surviving peers, and only
    then leaves the membership; ``drain=False`` retires it immediately (the
    store handoff still happens — the node departs politely either way).  A
    crashed target leaves the f-budget now and drains once it recovers.
    Targets still bootstrapping, already leaving or gone are skipped; the
    last member of the deployment can never leave.
    """

    kind: ClassVar[str] = "leave"
    _target_fields: ClassVar[tuple[str, ...]] = ("targets",)

    targets: Targets = Targets(role="servers", count=1)
    drain: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.targets.role == "validators":
            raise ConfigurationError(
                "leave targets Setchain servers (a co-located validator "
                "retires with its server); use role='servers'")
        if self.until is not None:
            raise ConfigurationError("leave is instantaneous; it takes no until")

    def apply(self, ctx: "FaultContext") -> None:
        names = [name for name in ctx.resolve(self.targets)
                 if ctx.can_leave(name)]
        if not names:
            ctx.record(self.kind, note="no eligible targets; skipped")
            return
        for name in names:
            ctx.leave(name, drain=self.drain)
        ctx.record(self.kind, targets=names,
                   note="drain" if self.drain else "immediate")


@dataclass(frozen=True, kw_only=True)
class Churn(FaultEvent):
    """Rolling crash/recover: every ``period``, recover the previous victims
    and crash a fresh random ``count`` drawn from the target pool.

    ``Churn(at=5, until=45, period=5)`` is a rolling restart;
    ``Churn(..., targets=Targets(role="validators"), count=f)`` keeps the
    consensus layer at its fault budget continuously.
    """

    kind: ClassVar[str] = "churn"
    _target_fields: ClassVar[tuple[str, ...]] = ("targets",)

    period: float = 5.0
    count: int = 1
    targets: Targets = Targets(role="servers")

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.period <= 0:
            raise ConfigurationError("churn period must be positive")
        if self.count < 1:
            raise ConfigurationError("churn count must be at least 1")
        if self.until is None:
            raise ConfigurationError("churn needs an until time")

    def apply(self, ctx: "FaultContext") -> None:
        stop = self.until
        assert stop is not None
        pool_selector = dataclasses.replace(self.targets, count=None)
        state: dict[str, Any] = {"down": [], "token": 0}

        def tick() -> None:
            ctx.release_crashes(state["down"], state["token"])
            state["down"] = []
            if ctx.sim.now >= stop - 1e-12:
                return
            # Sample only live nodes: victims of an overlapping crash event
            # belong to that event and must not be "recovered" by churn.
            pool = ctx.live(ctx.resolve(pool_selector))
            picked = ctx.sample(pool, min(self.count, len(pool)))
            if picked:
                state["token"] = ctx.claim_crashes(picked)
                state["down"] = picked
                ctx.record(self.kind, targets=picked,
                           until=min(ctx.sim.now + self.period, stop))
            else:
                ctx.record(self.kind, note="pool empty; cycle skipped")
            ctx.sim.call_at(min(ctx.sim.now + self.period, stop), tick)

        tick()


#: Every fault kind, ``kind -> event class``: how
#: ``FaultScheduleConfig.from_dict`` resolves a serialised event.
FAULT_KINDS: dict[str, type[FaultEvent]] = {cls.kind: cls for cls in (
    Partition, Heal, Crash, Recover, MessageLoss, Duplicate, DelaySpike,
    BecomeByzantine, BecomeCorrect, Join, Leave, Churn)}
