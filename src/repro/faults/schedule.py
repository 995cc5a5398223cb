"""Declarative fault timelines: :class:`FaultScheduleConfig`.

The schedule is the frozen, serialisable piece that rides on
:class:`~repro.config.ExperimentConfig` — a tuple of
:class:`~repro.faults.events.FaultEvent` instances plus the window width used
by the resilience report's per-window availability metric.  ``to_dict`` /
``from_dict`` round-trip exactly through JSON (events carry their ``kind``,
a key of :data:`~repro.faults.events.FAULT_KINDS`), so chaos scenarios
persist in ``RunResult`` config echoes the same way topologies do, and
fault-free configs (``faults=None``) leave artifacts byte-identical to
pre-faults schemas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from ..errors import ConfigurationError, check_name
from .events import FAULT_KINDS, FaultEvent

#: Default availability-window width (simulated seconds).
DEFAULT_AVAILABILITY_WINDOW = 5.0


@dataclass(frozen=True)
class FaultScheduleConfig:
    """An ordered chaos timeline plus resilience-metric parameters."""

    events: tuple[FaultEvent, ...] = ()
    #: Width (seconds) of the windows used by the availability metric.
    availability_window: float = DEFAULT_AVAILABILITY_WINDOW

    def __post_init__(self) -> None:
        if not isinstance(self.events, tuple):
            object.__setattr__(self, "events", tuple(self.events))
        for event in self.events:
            if not isinstance(event, FaultEvent):
                raise ConfigurationError(
                    f"fault schedule entries must be FaultEvent instances, "
                    f"got {type(event).__name__}")
        if self.availability_window <= 0:
            raise ConfigurationError("availability window must be positive")

    @property
    def last_time(self) -> float:
        """Latest instant named by the schedule (0 when empty)."""
        times = [event.at for event in self.events]
        times += [event.until for event in self.events if event.until is not None]
        return max(times, default=0.0)

    # -- serialisation ----------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {"events": [event.to_dict() for event in self.events],
                "availability_window": self.availability_window}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultScheduleConfig":
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"fault schedule must be an object, got {type(data).__name__}")
        unknown = sorted(set(data) - {"events", "availability_window"})
        if unknown:
            raise ConfigurationError(f"unknown fault schedule fields: {unknown}")
        raw_events: Iterable[Mapping[str, Any]] = data.get("events", ())
        events = []
        for entry in raw_events:
            if not isinstance(entry, Mapping) or "kind" not in entry:
                raise ConfigurationError(
                    "each fault schedule event needs a 'kind' discriminator")
            event_cls = check_name("fault kind", str(entry["kind"]), FAULT_KINDS)
            events.append(event_cls.from_dict(entry))
        return cls(events=tuple(events),
                   availability_window=float(
                       data.get("availability_window",
                                DEFAULT_AVAILABILITY_WINDOW)))
