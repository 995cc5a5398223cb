"""Workload traces: freeze a generated workload and replay it exactly.

The paper replays a fixed Arbitrum trace across experiments so algorithm
comparisons see identical inputs.  :func:`record_trace` captures the
``(time, client, size)`` schedule a generator/rate pair would produce, and
``ServiceRuntime.load_trace`` replays it through the service's ingress.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from ..errors import ConfigurationError
from ..sim.rng import DeterministicRNG
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
