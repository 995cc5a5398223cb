"""The f-budget: one predicate, fed by the schedule and by every applied fault.

:func:`check_budget` keeps a run within the f Properties 1-8 assume, in each
``algorithm_group()`` (one per shard) and, unsharded, deployment-wide
(:data:`ALL`), and refuses an unsharded group too small to ever reach
quorum.  :func:`validate_fault_budget` feeds it the membership at t=0 and
the schedule's worst case, ``FaultContext`` the exact state before each
crash, Byzantine turn, join and leave.  Both count a server toward n from
its ``Join`` until its ``Leave`` (a crashed leaver leaves at once and drains
on recovery), so no scheduled event trips the run-time check.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

from ..errors import ConfigurationError
from ..shard.router import shard_group
from ..topology.regions import server_name
from .events import (BecomeByzantine, BecomeCorrect, Churn, Crash, FaultEvent,
                     Join, Leave, Targets)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..config import ExperimentConfig

ALL = ""  #: key of the deployment-wide scope (unsharded runs only)


def fault_tolerance(n: int, explicit_f: int | None) -> int:
    """The f rule: an explicit (or per-shard pinned) f, else the largest f < n/2."""
    return explicit_f if explicit_f is not None else max(0, (n - 1) // 2)


def check_budget(at: float, scopes: Mapping[str, tuple[int, int, int]],
                 departed: int, explicit_f: int | None) -> None:
    """Raise unless each unsharded group with members holds f+1 of them (a
    shard below quorum takes no element: ``ShardRouter.active_shards``) and
    every scope holding a Byzantine server keeps the budget: at most f
    faulty deployment-wide, f+1 correct signers in each group."""
    f = fault_tolerance(scopes[ALL][0] if ALL in scopes else 0, explicit_f)
    for key, (members, byzantine, crashed) in sorted(scopes.items()):
        if not byzantine:  # crash-only: the exemption
            if key != ALL and ALL in scopes and 0 < members < f + 1:
                raise ConfigurationError(
                    f"the {key!r} group has {members} member server(s) at "
                    f"t={at:g}s, but its epoch commits need {f + 1} signer(s) "
                    f"(quorum = f+1 with f={f} for n={scopes[ALL][0]}); grow "
                    "the group or pin a smaller f with .byzantine(f=...)")
            continue
        if key == ALL and byzantine + crashed > f:
            raise ConfigurationError(
                f"fault schedule exceeds the Byzantine budget at t={at:g}s: "
                f"up to {byzantine} Byzantine, {crashed} crashed, and "
                f"{departed} departed server(s) at that instant, but the "
                f"membership there is n={members} tolerating f={f} faulty "
                f"server(s) (quorum={f + 1}); shorten or stagger the fault "
                "windows, join capacity first, or raise f/n")
        if key != ALL and members - byzantine - crashed < f + 1:
            raise ConfigurationError(
                f"fault schedule leaves the {key!r} group below quorum at "
                f"t={at:g}s: up to {byzantine} Byzantine and {crashed} "
                f"crashed of {members} member server(s), but epoch commits "
                f"need {f + 1} correct signer(s) (quorum = f+1 with f={f}); "
                "shorten or stagger the fault windows, or grow the group first")


def _pool_cost(targets: Targets, pool: set[str],
               region_of: dict[str, str | None], count: int | None = None) -> int:
    """Worst-case servers of ``pool`` a selector hits (named ``nodes`` win)."""
    if targets.nodes:
        return len(set(targets.nodes) & pool)
    if targets.region is not None:
        pool = {name for name in pool if region_of.get(name) == targets.region}
    if targets.role == "validators":
        return 0  # validator faults do not consume the Setchain budget
    count = count if count is not None else targets.count
    return len(pool) if count is None else min(count, len(pool))


def budget_states(events: Sequence[FaultEvent], config: "ExperimentConfig",
                  ) -> Iterator[tuple[float, dict[str, tuple[int, int, int]], int]]:
    """The worst-case ``(at, scopes, departed)`` at t=0, then after each fault,
    join and leave in injector order.  Windows count through their end
    instant (releases fire after its events); sharded joiners follow
    ``placement_for_join`` until a leave."""
    per_shard = config.setchain.n_servers
    shard_sizes = dict.fromkeys(range(config.shards or 0), per_shard)
    region_of: dict[str, str | None] = {}
    pools: dict[str, set[str]] = {}  # the names a selector can hit, per scope
    members: dict[str, int] = {}
    departed = 0

    def enrol(name: str, region: str | None, algorithm: str, shard: int | None) -> None:
        region_of.setdefault(name, region)
        for key in (ALL, shard_group(algorithm, shard)):
            pools.setdefault(key, set()).add(name)
            members[key] = members.get(key, 0) + 1

    for index, (region, algorithm) in enumerate(config.server_assignments()):
        enrol(server_name(index), region, algorithm,
              index // per_shard if config.shards else None)
    next_index = config.total_servers
    windows: list[tuple[float, FaultEvent, dict[str, int] | None]] = []
    scopes = {key: (count, 0, 0) for key, count in members.items()}
    if config.shards:
        del scopes[ALL]
    yield 0.0, scopes, 0
    for event in sorted(events, key=lambda event: event.at):  # stable: ties keep order
        windows = [window for window in windows if window[0] >= event.at]
        if isinstance(event, Join) and event.role == "servers":
            seats = [(size, k) for k, size in shard_sizes.items()
                     if size < per_shard and not departed]
            shard = min(seats)[1] if seats else len(shard_sizes)
            shard_sizes[shard] = shard_sizes.get(shard, 0) + 1
            enrol(event.node or server_name(next_index), event.region,
                  event.algorithm or config.algorithm,
                  shard if config.shards else None)
            next_index += 1  # the deployment's counter bumps on every join
        elif isinstance(event, Leave):
            # Leavers stay in the pools: a draining server is still a target.
            departed += _pool_cost(event.targets, pools[ALL], region_of)
            for key, pool in pools.items():
                members[key] -= _pool_cost(event.targets, pool, region_of)
        elif isinstance(event, BecomeCorrect):
            # It ends each Byzantine window whose servers it all names (every
            # one when it names none); they still count at its ``at``.
            for index, (end, fault, costs) in enumerate(windows):
                nodes = set(fault.targets.nodes)  # type: ignore[attr-defined]
                if isinstance(fault, BecomeByzantine) and (
                        event.targets == Targets()
                        or nodes and nodes <= set(event.targets.nodes)):
                    windows[index] = (min(end, event.at), fault, costs)
            continue
        elif isinstance(event, (Crash, Churn, BecomeByzantine)):
            # A churn re-rolls its victims every period, joiners included,
            # so it is charged against the pools of each later instant.
            windows.append((event.until or math.inf, event,
                            None if isinstance(event, Churn) else
                            {key: _pool_cost(event.targets, pool, region_of)
                             for key, pool in pools.items()}))
        else:
            continue
        scopes = {}
        for key, pool in pools.items():
            counts = [members[key], 0, 0]
            for _end, fault, costs in windows:
                counts[1 if isinstance(fault, BecomeByzantine) else 2] += (
                    costs.get(key, 0) if costs is not None else _pool_cost(
                        fault.targets, pool, region_of, fault.count))
            scopes[key] = (counts[0], counts[1], counts[2])
        if config.shards:
            del scopes[ALL]
        yield event.at, scopes, departed


def validate_fault_budget(config: "ExperimentConfig") -> None:
    """Reject a membership or schedule whose worst case breaks the f-budget
    at any instant."""
    events = config.faults.events if config.faults is not None else ()
    for at, scopes, departed in budget_states(events, config):
        check_budget(at, scopes, departed, config.pinned_f)
