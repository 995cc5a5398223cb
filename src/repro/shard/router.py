"""The deterministic shard router: element-id hash partitioning + failover.

Partition function
------------------
:func:`shard_slot` is a Fibonacci multiplicative hash (64-bit golden-ratio
multiplier, xor-folded) over the element id.  Element ids are sequential
integers, so a plain modulo would stripe them perfectly evenly and hide the
skew machinery; the multiplicative mix gives a pseudo-uniform assignment with
*measurable* per-shard imbalance, which ``RunResult.shards["skew_ratio"]``
reports.

Elasticity
----------
The router hashes over the currently *active* shards — those with at least a
commit quorum of routable members (not crashed, draining, departed, or
bootstrapping).  A shard added under load starts taking traffic the moment a
quorum of its joiners has caught up; a shard being drained (or lost to
crashes) stops receiving new elements immediately while its in-flight
elements finish committing on the remaining drain-capable members.  An
element's shard is therefore fixed at *admission*, never re-balanced — which
is what keeps the per-shard sets disjoint and the merged logical view a true
partition.

Backpressure vocabulary (PR 6): an element routed to its preferred server is
*accepted*; re-pointed at another live server in the same shard it is
*deferred*; with no active shard at all it is *rejected* (dropped, counted).
"""

from __future__ import annotations

from itertools import repeat
from typing import TYPE_CHECKING, Any, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.metrics import MetricsCollector

#: 64-bit golden-ratio multiplier (Fibonacci hashing).
_MIX = 0x9E3779B97F4A7C15
_MASK = 0xFFFFFFFFFFFFFFFF

#: Separator between an algorithm name and its shard suffix in the
#: multi-tenant group key (``hashchain#shard0``).  No algorithm name (the
#: keys of ``ALGORITHMS``) contains ``#``, so the suffix can be split off
#: unambiguously.
SHARD_GROUP_SEPARATOR = "#shard"


def shard_slot(element_id: int, n_slots: int) -> int:
    """Deterministic slot in ``range(n_slots)`` for an element id."""
    if n_slots <= 1:
        return 0
    mixed = (element_id * _MIX) & _MASK
    mixed ^= mixed >> 29
    return mixed % n_slots


def shard_group(algorithm: str, shard_index: int | None) -> str:
    """The multi-tenant group key for one shard of an algorithm."""
    if shard_index is None:
        return algorithm
    return f"{algorithm}{SHARD_GROUP_SEPARATOR}{shard_index}"


class ShardRouter:
    """Routes elements to shards; owns the admission-control counters.

    The router holds the authoritative shard membership (``shard_servers[k]``
    is the server list of shard ``k``; retired servers stay listed but stop
    being routable).  Elements reach it only through ``Deployment.admit``,
    the one door the workload clients, the service drain and hand
    injections share.
    """

    def __init__(self, shard_servers: Sequence[Sequence[Any]],
                 quorum: int) -> None:
        self.shard_servers: list[list[Any]] = [list(s) for s in shard_servers]
        self.quorum = quorum
        #: Admission counters (PR 6 vocabulary — see the module docstring).
        self.routed = 0
        self.deferred = 0
        self.rejected = 0
        self.per_shard_routed: list[int] = [0] * len(self.shard_servers)
        self._rr: list[int] = [0] * len(self.shard_servers)

    # -- membership ---------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self.shard_servers)

    def shard_map(self) -> dict[str, int]:
        """``server name -> shard index`` over every server ever enrolled."""
        return {server.name: index
                for index, servers in enumerate(self.shard_servers)
                for server in servers}

    def add_server(self, shard_index: int, server: Any) -> None:
        """Enroll a joiner; ``shard_index == n_shards`` opens a new shard."""
        while shard_index >= len(self.shard_servers):
            self.shard_servers.append([])
            self.per_shard_routed.append(0)
            self._rr.append(0)
        self.shard_servers[shard_index].append(server)

    def placement_for_join(self, per_shard_size: int) -> int:
        """Shard for the next joiner: fill the smallest under-sized shard
        first (deterministic: lowest index wins ties), else open a new one."""
        sizes = [sum(1 for s in servers if not s.departed)
                 for servers in self.shard_servers]
        candidates = [(size, index) for index, size in enumerate(sizes)
                      if size < per_shard_size]
        if candidates:
            return min(candidates)[1]
        return len(self.shard_servers)

    # -- routing ------------------------------------------------------------------

    def active_shards(self) -> list[int]:
        """Shards currently taking new elements: quorum-many routable members."""
        return [index for index, servers in enumerate(self.shard_servers)
                if sum(1 for s in servers if s.accepts_adds) >= self.quorum]

    def route_many(self, elements: Sequence[Any], preference: int | None = None,
                   active: Sequence[int] | None = None
                   ) -> list[tuple[Any, list[Any]]]:
        """Route one burst: ``(server, its elements)`` in first-routed order.

        ``preference`` is the within-shard position the caller would normally
        hit (the batch workload pins client *i* to position ``i % shard
        size``, mirroring the unsharded one-client-per-server layout); an
        unroutable preferred server fails over to the next routable one in
        the same shard and its elements count as *deferred*.  ``None``
        round-robins instead: a per-shard cursor steps once per element.
        With no active shard the burst is left out and counted *rejected*.

        The cost is per burst: one shard scan (``active`` hands in the
        caller's) and one failover scan per (shard, position) — adds never
        crash or drain a server, so neither answer changes under the burst —
        ids hashed only when more than one shard is active, and the counters
        moved by run length.
        """
        if active is None:
            active = self.active_shards()
        if not active or not elements:
            self.rejected += len(elements)
            return []
        # Runs of elements that share a shard and a position, in burst order.
        n_active = len(active)
        shards = repeat(active[0]) if n_active == 1 else [
            active[shard_slot(element.element_id, n_active)] for element in elements]
        runs: Iterable[tuple[int, Sequence[Any]]]
        if preference is None:  # the cursor steps once per element: runs of one
            runs = zip(shards, zip(elements))
        elif n_active == 1:
            runs = ((active[0], elements),)
        else:
            by_shard: dict[int, list[Any]] = {}
            for shard, element in zip(shards, elements):
                by_shard.setdefault(shard, []).append(element)
            runs = by_shard.items()
        buckets: dict[str, tuple[Any, list[Any]]] = {}
        #: (shard, position) -> (the server's bucket, failed over?), or ``None``
        #: when every member refuses (only from a stale ``active``).
        placed: dict[tuple[int, int], tuple[list[Any], bool] | None] = {}
        for shard, run in runs:
            servers = self.shard_servers[shard]
            start = (self._rr[shard] if preference is None else preference) % len(servers)
            if (key := (shard, start)) not in placed:
                placed[key] = next(
                    ((buckets.setdefault(server.name, (server, []))[1], offset > 0)
                     for offset, server in enumerate(servers[start:] + servers[:start])
                     if server.accepts_adds), None)
            if placed[key] is None:
                self.rejected += len(run)
                continue
            bucket, failed_over = placed[key]
            bucket.extend(run)
            self.routed += len(run)
            self.per_shard_routed[shard] += len(run)
            if failed_over:
                self.deferred += len(run)
            if preference is None:
                self._rr[shard] += 1
        return list(buckets.values())

    # -- reporting ----------------------------------------------------------------

    def counters(self) -> dict[str, int]:
        return {"routed": self.routed, "deferred": self.deferred,
                "rejected": self.rejected}

    def skew_ratio(self) -> float | None:
        """max/mean of per-shard admissions (1.0 = perfectly even), or
        ``None`` before any element was routed."""
        if self.routed == 0 or not self.per_shard_routed:
            return None
        mean = self.routed / len(self.per_shard_routed)
        return round(max(self.per_shard_routed) / mean, 4) if mean else None

    def report(self, metrics: "MetricsCollector") -> dict:
        """The ``RunResult.shards`` block.

        Per shard: its server roster, router admissions, added/committed
        element counts (observed by that shard's servers, off the
        :class:`~repro.analysis.metrics.MetricsCollector`), first-commit
        time, and committed throughput over the paper's 50 s window.  The
        defer/reject counters and the admission skew ratio (max/mean
        per-shard load; 1.0 is perfectly even) summarise the partition
        quality.
        """
        # Imported lazily: repro.analysis imports repro.config, which
        # imports this module (through the f-budget) at load time.
        from ..analysis.throughput import average_throughput
        per_shard: dict[str, dict] = {}
        for index, members in enumerate(self.shard_servers):
            added = metrics.shard_added.get(index, 0)
            committed = metrics.shard_committed.get(index, 0)
            times = metrics.shard_commit_times.get(index, [])
            entry: dict = {
                "servers": [s.name for s in members],
                "routed": self.per_shard_routed[index],
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
            "count": self.n_shards,
            "quorum": self.quorum,
            "router": self.counters(),
            "skew_ratio": self.skew_ratio(),
            "per_shard": per_shard,
        }
