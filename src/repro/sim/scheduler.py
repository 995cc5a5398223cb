"""The simulation scheduler: a virtual clock driving an event queue."""

from __future__ import annotations

from typing import Callable

from ..errors import SimulationError
from .events import Callback, Event, EventQueue
from .rng import DeterministicRNG


class Simulator:
    """Single-threaded discrete-event simulator.

    The simulator owns the virtual clock (:attr:`now`), an event queue, and a
    deterministic random number generator shared by all model components so a
    given seed always reproduces the same schedule.

    Parameters
    ----------
    seed:
        Seed for the simulation-wide RNG.
    """

    def __init__(self, seed: int = 0) -> None:
        self._now = 0.0
        #: Sequence number of the running event; one drawn at the stop, past
        #: every event executed, once the loop has returned.
        self._seq = -1
        self._queue = EventQueue()
        self.take_seq = self._queue.take_seq
        self._running = False
        self.rng = DeterministicRNG(seed)
        #: Number of events executed so far.
        self.events_executed = 0
        #: Called, in order, whenever the event loop hands control back to its
        #: caller: a component that has worked ahead of the clock brings what
        #: it shows the outside up to ``now`` here, whoever stopped the clock.
        self.on_pause: list[Callable[[], None]] = []

    # -- clock ----------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def pending_events(self) -> int:
        """Number of live events waiting in the queue."""
        return len(self._queue)

    def position(self) -> tuple[float, int]:
        """``(time, seq)`` of the running event: what sorts before it has
        happened (see "What is an event" in :mod:`repro.sim.events`)."""
        return self._now, self._seq

    # -- scheduling -----------------------------------------------------------

    def call_at(self, time: float, callback: Callback, priority: int = 0) -> Event:
        """Schedule ``callback`` at absolute simulated ``time``.

        Scheduling in the past raises :class:`SimulationError` — model code
        should always schedule at ``now`` or later.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time:.6f}, current time is {self._now:.6f}"
            )
        return self._queue.push(time, callback, priority)

    def call_in(self, delay: float, callback: Callback, priority: int = 0) -> Event:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self._queue.push(self._now + delay, callback, priority)

    def call_soon(self, callback: Callback, priority: int = 0) -> Event:
        """Schedule ``callback`` at the current time, after already-queued events."""
        return self._queue.push(self._now, callback, priority)

    # -- storm scheduling -------------------------------------------------------

    def call_at_storm(self, time: float, handler: Callable[[list], None],
                      payload: object, key: object, priority: int = 0) -> Event:
        """Storm variant of :meth:`call_at`."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time:.6f}, current time is {self._now:.6f}"
            )
        return self._queue.push_storm(time, handler, payload, key, priority)

    def call_in_storm(self, delay: float, handler: Callable[[list], None],
                      payload: object, key: object, priority: int = 0) -> Event:
        """Schedule a batchable event ``delay`` seconds from now.

        Consecutive storm events with identical ``(time, priority, key)`` are
        dispatched as one ``handler(payloads)`` call — see
        :meth:`~repro.sim.events.EventQueue.push_storm` for the contract.
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self._queue.push_storm(self._now + delay, handler, payload, key,
                                      priority)

    def call_soon_storm(self, handler: Callable[[list], None], payload: object,
                        key: object, priority: int = 0) -> Event:
        """Storm variant of :meth:`call_soon`."""
        return self._queue.push_storm(self._now, handler, payload, key, priority)

    # -- execution ------------------------------------------------------------

    def step(self) -> bool:
        """Run the earliest pending event.  Returns ``False`` if the queue is empty."""
        if not self._queue:
            return False
        event = self._queue.pop()
        if event.time < self._now:
            raise SimulationError("event queue produced an event in the past")
        self._now = event.time
        self._seq = event.seq
        self.events_executed += 1
        if event.storm_key is None:
            event.callback()
        else:
            # Scalar dispatch of a storm event: a one-element run.
            event.callback([event.payload])
        if not self._running:
            self._pause()
        return True

    def _pause(self) -> None:
        for hook in self.on_pause:
            hook()

    def _drain(self, horizon: float) -> None:
        """Execute every due event up to ``horizon`` (the shared main loop).

        The queue's peek/pop pair is fused into a single
        :meth:`~repro.sim.events.EventQueue.pop_due` heap access per event, and
        the :meth:`step` call frame is skipped entirely.
        """
        queue = self._queue
        pop_due = queue.pop_due
        take_storm_run = queue.take_storm_run
        while True:
            event = pop_due(horizon)
            if event is None:
                return
            self._now = event.time
            self._seq = event.seq
            key = event.storm_key
            if key is None:
                self.events_executed += 1
                event.callback()
                continue
            # Storm dispatch: drain the whole same-instant run in one
            # handler call.  Every member still counts as an executed
            # event, so progress counters match the scalar schedule.
            payloads = [event.payload]
            run = take_storm_run(event.time, event.priority, key,
                                 event.seq, payloads)
            self.events_executed += 1 + run
            event.callback(payloads)

    def run_until(self, end_time: float) -> None:
        """Run events until the clock reaches ``end_time`` (inclusive).

        The clock is advanced to exactly ``end_time`` when the queue drains or
        the next event lies beyond the horizon, so repeated calls compose.
        """
        if end_time < self._now:
            raise SimulationError(
                f"run_until({end_time}) is before current time {self._now}"
            )
        self._run(end_time, end_time)

    def run_until_idle(self, max_time: float | None = None) -> None:
        """Run until no events remain, optionally bounded by ``max_time``."""
        self._run(float("inf") if max_time is None else max_time, max_time)

    def _run(self, horizon: float, advance_to: float | None) -> None:
        """The one way into and out of the event loop."""
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        self._running = True
        try:
            self._drain(horizon)
            if advance_to is not None:
                self._now = max(self._now, advance_to)
        finally:
            self._running = False
            self._seq = self.take_seq()  # all up to ``now`` has run
            self._pause()

    # -- conditions -----------------------------------------------------------

    def run_until_condition(self, predicate: Callable[[], bool],
                            check_interval: float = 0.1,
                            max_time: float = float("inf")) -> bool:
        """Run until ``predicate()`` is true, polling every ``check_interval``.

        Returns ``True`` if the predicate became true, ``False`` if the
        simulation drained or hit ``max_time`` first.
        """
        if predicate():
            return True
        while self._now < max_time:
            next_time = self._queue.peek_time()
            if next_time is None:
                return predicate()
            target = min(next_time, max_time)
            self.run_until(target)
            if predicate():
                return True
        return predicate()
