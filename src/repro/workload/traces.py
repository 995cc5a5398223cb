"""Workload traces: freeze a generated workload and replay it exactly.

The paper replays a fixed Arbitrum trace across experiments so algorithm
comparisons see identical inputs.  :func:`record_trace` captures the
``(time, client, size)`` schedule a generator/rate pair would produce, and
:func:`replay_trace` re-injects it against any add target.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from ..errors import ConfigurationError
from ..sim.rng import DeterministicRNG
from .elements import Element, make_element
from .generator import ArbitrumLikeGenerator, ElementSizeStats


@dataclass(frozen=True, slots=True)
class TraceEntry:
    """One scheduled element: when it is created, by whom, and how large it is."""

    time: float
    client: str
    size_bytes: int


@dataclass(frozen=True)
class WorkloadTrace:
    """An immutable sequence of :class:`TraceEntry`, ordered by time."""

    entries: tuple[TraceEntry, ...]

    def __post_init__(self) -> None:
        times = [entry.time for entry in self.entries]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ConfigurationError("trace entries must be ordered by time")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):  # type: ignore[no-untyped-def]
        return iter(self.entries)

    @property
    def duration(self) -> float:
        return self.entries[-1].time if self.entries else 0.0

    @property
    def total_bytes(self) -> int:
        return sum(entry.size_bytes for entry in self.entries)

    def to_json(self, path: str | Path) -> None:
        """Serialise the trace to a JSON file."""
        payload = [[e.time, e.client, e.size_bytes] for e in self.entries]
        Path(path).write_text(json.dumps(payload))

    @classmethod
    def from_json(cls, path: str | Path) -> "WorkloadTrace":
        """Load a trace previously written by :meth:`to_json`."""
        payload = json.loads(Path(path).read_text())
        entries = tuple(TraceEntry(time=float(t), client=str(c), size_bytes=int(s))
                        for t, c, s in payload)
        return cls(entries=entries)


def record_trace(rate: float, duration: float, clients: Iterable[str],
                 seed: int = 0, mean: float = 438.0, std: float = 753.5,
                 tick: float = 0.1) -> WorkloadTrace:
    """Produce the deterministic trace a :class:`ClientPool` run would generate."""
    client_names = list(clients)
    if not client_names or rate <= 0 or duration <= 0 or tick <= 0:
        raise ConfigurationError("invalid trace parameters")
    per_client = rate / len(client_names)
    stats = ElementSizeStats(mean, std)
    entries: list[TraceEntry] = []
    for index, client in enumerate(client_names):
        generator = ArbitrumLikeGenerator(DeterministicRNG(seed).derive("trace", index), stats)
        carry = 0.0
        t = tick
        while t <= duration + 1e-9:
            due = per_client * tick + carry
            count = int(due)
            carry = due - count
            for _ in range(count):
                entries.append(TraceEntry(time=round(t, 9), client=client,
                                          size_bytes=generator.next_size()))
            t += tick
    entries.sort(key=lambda e: (e.time, e.client))
    return WorkloadTrace(entries=tuple(entries))


def replay_trace(trace: WorkloadTrace, sim,  # type: ignore[no-untyped-def]
                 targets: dict[str, object]) -> list[Element]:
    """Schedule every trace entry against its client's target server.

    ``targets`` maps client name → object with an ``add(element)`` method.
    Returns the list of elements that will be injected (in schedule order) so
    callers can track them.

    Consecutive entries for the same client at the same instant — the common
    shape of a recorded high-rate tick — are scheduled as one storm event and
    injected through the target's ``add_many`` when it has one, so a replayed
    million-element trace does not pay one simulator event per element.
    Element ids, creation timestamps and add order are those
    of per-entry scheduling.
    """
    injected: list[Element] = []
    storm_key = ("trace-replay", id(injected))

    def inject_run(entries: list[TraceEntry]) -> None:
        # A storm run may span several (client, time) groups; they arrive in
        # schedule order, so regrouping here preserves per-entry order.
        start = 0
        total = len(entries)
        while start < total:
            client = entries[start].client
            stop = start + 1
            while stop < total and entries[stop].client == client:
                stop += 1
            target = targets.get(client)
            if target is None:
                raise ConfigurationError(f"no target registered for client {client!r}")
            elements = [make_element(client=client, size_bytes=entry.size_bytes,
                                     created_at=sim.now)
                        for entry in entries[start:stop]]
            injected.extend(elements)
            add_many = getattr(target, "add_many", None)
            if add_many is not None:
                add_many(elements)
            else:
                for element in elements:
                    target.add(element)  # type: ignore[attr-defined]
            start = stop

    for entry in trace:
        sim.call_at_storm(entry.time, inject_run, entry, storm_key)
    return injected
