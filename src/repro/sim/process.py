"""Higher-level scheduling helpers: timers and periodic tasks."""

from __future__ import annotations

from typing import Callable

from ..errors import SimulationError
from .events import Event
from .scheduler import Simulator


class Timer:
    """A restartable one-shot timer.

    Used by collectors (flush after ``collector_timeout``) and by Hashchain's
    ``Request_batch`` wait.  ``start`` replaces any pending expiry.
    """

    def __init__(self, sim: Simulator, callback: Callable[[], None]) -> None:
        self._sim = sim
        self._callback = callback
        self._event: Event | None = None

    def start(self, delay: float) -> None:
        """(Re)arm the timer to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative timer delay: {delay}")
        self.cancel()
        self._event = self._sim.call_in(delay, self._fire)

    def cancel(self) -> None:
        """Disarm the timer if armed."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._callback()


class PeriodicTask:
    """Invoke a callback at a fixed period until stopped.

    The CometBFT block-production loop and client injection loops are periodic
    tasks.  The first invocation happens ``offset`` seconds after :meth:`start`.
    """

    def __init__(self, sim: Simulator, period: float,
                 callback: Callable[[], None], offset: float | None = None) -> None:
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period}")
        self._sim = sim
        self._period = period
        self._callback = callback
        self._offset = period if offset is None else offset
        self._event: Event | None = None
        self._stopped = True
        #: Number of times the callback has fired.
        self.fired = 0

    def start(self) -> None:
        """Begin firing.  Idempotent while running."""
        if not self._stopped:
            return
        self._stopped = False
        self._event = self._sim.call_in(self._offset, self._tick)

    def stop(self) -> None:
        """Stop firing.  A tick already being executed completes normally."""
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _tick(self) -> None:
        if self._stopped:
            return
        self.fired += 1
        self._callback()
        if not self._stopped:
            self._event = self._sim.call_in(self._period, self._tick)
