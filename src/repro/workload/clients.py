"""Injection clients.

One client runs alongside each Setchain server (as in the paper's docker
containers) and adds elements to *its local server* at
``sending_rate / server_count`` elements per second for the configured
injection duration.  In a deployment every client adds through a
:class:`RoutedTarget`, the deployment's one door (``Deployment.admit``),
which books, routes and adds each burst.

To keep the discrete-event simulation tractable at high rates, a client fires
on a coarse tick (default 100 ms) and performs all the adds due in that tick
at once; element timestamps still carry the tick time, which is the resolution
the paper's rolling 9-second throughput windows and second-scale latency CDFs
actually need.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol

from ..config import WorkloadConfig
from ..errors import ConfigurationError
from ..sim.process import PeriodicTask
from ..sim.scheduler import Simulator
from .elements import Element
from .generator import ArbitrumLikeGenerator, ElementSizeStats


class AddTarget(Protocol):
    """What a client adds a whole tick's burst to; returns how many were taken."""

    def add_many(self, elements: list[Element]) -> int: ...  # pragma: no cover - protocol


class RoutedTarget:
    """An :class:`AddTarget` that hands each burst to the deployment's door.

    One exists per client, holding ``admit`` (``Deployment.admit``) and the
    client's ``prefer``: its home server when unsharded, or its index *i*
    when sharded — the server at position ``i % shard_size`` within
    whichever shard an element hashes to, mirroring the one-client-per-server
    affinity.  The door books the burst, then routes and adds it; what no
    server takes is lost, as a client's add against a downed host is.
    """

    def __init__(self, admit: Callable[[list[Element], Any], int],
                 prefer: Any) -> None:
        self.admit = admit
        self.prefer = prefer

    def add(self, element: Element) -> bool:
        """One element through the door (``benchmarks/e2e/spans.py`` wraps
        this seam by name)."""
        return self.add_many([element]) == 1

    def add_many(self, elements: list[Element]) -> int:
        return self.admit(elements, self.prefer)


class InjectionClient:
    """A single client adding elements to one server at a fixed rate."""

    def __init__(self, name: str, sim: Simulator, target: AddTarget,
                 rate: float, duration: float,
                 generator: ArbitrumLikeGenerator,
                 tick: float = 0.1) -> None:
        if rate <= 0 or duration <= 0 or tick <= 0:
            raise ConfigurationError("client rate, duration and tick must be positive")
        self.name = name
        self.sim = sim
        self.target = target
        self.rate = rate
        self.duration = duration
        self.generator = generator
        self.tick = tick
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
        # The whole tick's burst in one pass: every element carries the tick
        # timestamp either way, so per-element interleaving would be
        # unobservable.
        self.target.add_many(
            self.generator.batch(self.name, count, now=self.sim.now))
        self.sent += count


class ClientPool:
    """One client per server, splitting the aggregate sending rate evenly."""

    def __init__(self, sim: Simulator, targets: list[AddTarget],
                 workload: WorkloadConfig, tick: float = 0.1) -> None:
        if not targets:
            raise ConfigurationError("need at least one injection target")
        self.sim = sim
        self.workload = workload
        per_client_rate = workload.sending_rate / len(targets)
        stats = ElementSizeStats(workload.element_size_mean, workload.element_size_std)
        self.clients: list[InjectionClient] = []
        for index, target in enumerate(targets):
            rng = sim.rng.derive("client", index, workload.seed)
            generator = ArbitrumLikeGenerator(rng, stats)
            client = InjectionClient(
                name=f"client-{index}", sim=sim, target=target,
                rate=per_client_rate, duration=workload.injection_duration,
                generator=generator, tick=tick)
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
