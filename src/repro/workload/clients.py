"""Injection clients.

One client runs alongside each Setchain server (as in the paper's docker
containers) and adds elements to *its local server* at
``sending_rate / server_count`` elements per second for the configured
injection duration.

To keep the discrete-event simulation tractable at high rates, a client fires
on a coarse tick (default 100 ms) and performs all the adds due in that tick
at once; element timestamps still carry the tick time, which is the resolution
the paper's rolling 9-second throughput windows and second-scale latency CDFs
actually need.
"""

from __future__ import annotations

from typing import Callable, Protocol

from ..config import WorkloadConfig
from ..errors import ConfigurationError
from ..sim.process import PeriodicTask
from ..sim.scheduler import Simulator
from .elements import Element
from .generator import ArbitrumLikeGenerator, ElementSizeStats


class AddTarget(Protocol):
    """The slice of a Setchain server a client uses: the ``add`` operation.

    Targets may additionally expose ``add_many(elements)``; clients use it
    for whole-tick injection bursts when present.
    """

    def add(self, element: Element) -> None: ...  # pragma: no cover - protocol


class RoutedTarget:
    """An :class:`AddTarget` that hands each burst to the shard router.

    One exists per client in a sharded deployment, remembering the client's
    index: client *i* prefers the server at position ``i % shard_size``
    within whichever shard an element hashes to, mirroring the unsharded
    one-client-per-server affinity.  A tick's elements are routed as one
    burst (``ShardRouter.route_many``: one decision per shard, not per
    element) and added bucket by bucket; when no shard is active they are
    dropped and counted rejected — the client-side equivalent of an add
    against a downed host failing.
    """

    def __init__(self, router, preference: int) -> None:  # type: ignore[no-untyped-def]
        self.router = router
        self.preference = preference

    def add(self, element: Element) -> bool:
        return self.add_many([element]) == 1

    def add_many(self, elements: list[Element]) -> int:
        return sum(server.add_many(bucket) for server, bucket
                   in self.router.route_many(elements, self.preference))


class InjectionClient:
    """A single client adding elements to one server at a fixed rate."""

    def __init__(self, name: str, sim: Simulator, target: AddTarget,
                 rate: float, duration: float,
                 generator: ArbitrumLikeGenerator,
                 tick: float = 0.1,
                 on_elements: Callable[[list[Element]], None] | None = None) -> None:
        if rate <= 0 or duration <= 0 or tick <= 0:
            raise ConfigurationError("client rate, duration and tick must be positive")
        self.name = name
        self.sim = sim
        self.target = target
        self.rate = rate
        self.duration = duration
        self.generator = generator
        self.tick = tick
        #: Observer handed each tick's elements before they are added.
        self.on_elements = on_elements
        #: The target's batched add, when it has one.
        self._add_many = getattr(target, "add_many", None)
        self.sent = 0
        self._start_time: float | None = None
        self._carry = 0.0
        self._task = PeriodicTask(sim, tick, self._on_tick, offset=tick)

    def start(self) -> None:
        """Begin injecting at the current simulated time."""
        self._start_time = self.sim.now
        self._task.start()

    def stop(self) -> None:
        self._task.stop()

    @property
    def finished(self) -> bool:
        """True once the injection window has elapsed."""
        return (self._start_time is not None
                and self.sim.now >= self._start_time + self.duration)

    def _on_tick(self) -> None:
        assert self._start_time is not None
        elapsed = self.sim.now - self._start_time
        if elapsed > self.duration + 1e-9:
            self._task.stop()
            return
        # Number of elements due this tick, carrying fractional remainders so
        # the long-run rate is exact even when rate * tick is not an integer.
        due = self.rate * self.tick + self._carry
        count = int(due)
        self._carry = due - count
        if count <= 0:
            return
        # The whole tick's burst in three columnar passes: generate, observe,
        # add.  Every element carries the tick timestamp either way, and the
        # observers/targets record first observations per element, so the
        # reordering relative to per-element interleaving is unobservable.
        elements = self.generator.batch(self.name, count, now=self.sim.now)
        if self.on_elements is not None:
            self.on_elements(elements)
        add_many = self._add_many
        if add_many is not None:
            add_many(elements)
        else:
            add = self.target.add
            for element in elements:
                add(element)
        self.sent += count


class ClientPool:
    """One client per server, splitting the aggregate sending rate evenly."""

    def __init__(self, sim: Simulator, targets: list[AddTarget],
                 workload: WorkloadConfig, tick: float = 0.1,
                 on_elements: Callable[[list[Element]], None] | None = None,
                 router=None) -> None:  # type: ignore[no-untyped-def]
        if not targets:
            raise ConfigurationError("need at least one injection target")
        self.sim = sim
        self.workload = workload
        self.router = router
        per_client_rate = workload.sending_rate / len(targets)
        stats = ElementSizeStats(workload.element_size_mean, workload.element_size_std)
        self.clients: list[InjectionClient] = []
        for index, target in enumerate(targets):
            rng = sim.rng.derive("client", index, workload.seed)
            generator = ArbitrumLikeGenerator(rng, stats)
            if router is not None:
                # Sharded: same client count, rates, and RNG streams as the
                # unsharded layout — only the add path goes through the
                # shard router instead of the pinned local server.
                target = RoutedTarget(router, index)
            client = InjectionClient(
                name=f"client-{index}", sim=sim, target=target,
                rate=per_client_rate, duration=workload.injection_duration,
                generator=generator, tick=tick, on_elements=on_elements)
            self.clients.append(client)

    def start(self) -> None:
        for client in self.clients:
            client.start()

    def stop(self) -> None:
        for client in self.clients:
            client.stop()

    @property
    def total_sent(self) -> int:
        return sum(client.sent for client in self.clients)

    @property
    def all_finished(self) -> bool:
        return all(client.finished for client in self.clients)
