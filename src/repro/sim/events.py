"""Event primitives for the discrete-event simulator.

Events are ordered by ``(time, priority, sequence)``.  The sequence number
breaks ties deterministically in insertion order, which keeps simulations
reproducible regardless of callback identity.

Performance notes (this is the hottest loop in the repository):

* Heap entries are plain ``(time, priority, seq, event)`` tuples, so heap
  sift comparisons run entirely in C — no ``Event.__lt__`` Python frames.
* ``len(queue)`` is O(1): the queue counts cancelled-but-still-heaped
  entries, and :meth:`Event.cancel` notifies its owning queue.
* Cancelled events use lazy deletion (skipped at pop time) with amortised
  compaction: once cancellations outnumber live entries the heap is rebuilt,
  bounding memory and pop cost for cancel-heavy workloads (timers).
* :meth:`pop_due` fuses the scheduler's peek-then-pop pair into one
  heap access per executed event.
* *Storm events* (:meth:`push_storm`) carry a payload and a grouping key
  instead of a closed-over callback: a run of consecutive heap heads with
  identical ``(time, priority, key)`` is dispatched as ONE handler call over
  the collected payload list (:meth:`take_storm_run`), collapsing
  per-message scheduling overhead when many deliveries land on the same
  simulated instant (a broadcast under constant latency, a replayed trace
  tick).  Dispatching a run in one call is observably identical to
  dispatching its members one at a time provided the handler (i) processes
  payloads strictly in order and (ii) never cancels another already-queued
  event of the same storm — the network delivery path satisfies both.  A
  run also stops at a gap in the sequence numbers, so nothing that drew a
  number in between (see below) falls inside it.  Under a jittered latency
  profile no two deliveries share an instant and every run has one member.

What is an event: a vote, a proposal, ``Request_batch`` traffic, a timer, a
pipeline continuation — a push, a pop and a dispatch each.  What is not: a
mempool gossip arrival and a member of a pipeline run.  Either only changes
its component's private state, so the component files it itself under the
``(time, seq)`` an event would have had (``take_seq``) and applies what lies
before the running event (``Simulator.position``) when that state is read.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable

from ..errors import SimulationError

Callback = Callable[[], None]

#: Compact only past this many cancelled entries (avoids thrashing tiny heaps).
_COMPACT_MIN_CANCELLED = 64


@dataclass(slots=True)
class Event:
    """A single scheduled callback.

    Attributes
    ----------
    time:
        Absolute simulated time at which the callback fires.
    priority:
        Lower numbers fire first among events scheduled for the same time.
    seq:
        Monotonic tie-breaker assigned by the queue.
    callback:
        Zero-argument callable invoked when the event fires.
    cancelled:
        Set by :meth:`cancel`; cancelled events are skipped by the scheduler.
    """

    time: float
    priority: int
    seq: int
    callback: Callback
    cancelled: bool = False
    #: Storm grouping key: ``None`` for ordinary events.  Events whose
    #: ``(time, priority, storm_key)`` match are batchable; their ``callback``
    #: is a handler taking a *list of payloads* rather than no arguments.
    storm_key: object = None
    #: Payload handed to the storm handler (``None`` for ordinary events).
    payload: object = None
    #: Owning queue while the event sits in its heap; cleared on pop so a
    #: late cancel of an already-executed event is a harmless no-op.
    _queue: "EventQueue | None" = field(default=None, repr=False)

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        queue = self._queue
        if queue is not None:
            self._queue = None
            queue._note_cancelled()


class EventQueue:
    """A min-heap of :class:`Event` objects keyed by time."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._counter = itertools.count()
        #: Draw the sequence number an event pushed now would get (the
        #: counter's own bound method: a draw costs no frame).
        self.take_seq: Callable[[], int] = self._counter.__next__
        #: Cancelled entries still sitting in the heap (lazy deletion debt).
        self._cancelled = 0

    def __len__(self) -> int:
        """Number of live (non-cancelled) events.  O(1)."""
        return len(self._heap) - self._cancelled

    def __bool__(self) -> bool:
        return self.peek_time() is not None

    def _note_cancelled(self) -> None:
        """A heaped event was cancelled; compact once debt dominates."""
        self._cancelled += 1
        if (self._cancelled >= _COMPACT_MIN_CANCELLED
                and self._cancelled * 2 >= len(self._heap)):
            self.discard_cancelled()

    def push(self, time: float, callback: Callback, priority: int = 0) -> Event:
        """Schedule ``callback`` at absolute ``time`` and return the event handle."""
        if time != time:  # NaN guard
            raise SimulationError("event time is NaN")
        event = Event(time, priority, next(self._counter), callback)
        event._queue = self
        heapq.heappush(self._heap, (time, priority, event.seq, event))
        return event

    def push_storm(self, time: float, handler: Callable[[list], None],
                   payload: object, key: object, priority: int = 0) -> Event:
        """Schedule a batchable *storm* event.

        ``handler`` is invoked with the list of payloads of every event in
        the dispatched run (a single-element list when nothing batched); no
        per-event closure is allocated.  ``key`` must be non-``None`` and
        compare equal only for events the handler may legally batch.
        """
        if time != time:  # NaN guard
            raise SimulationError("event time is NaN")
        if key is None:
            raise SimulationError("storm events need a non-None grouping key")
        event = Event(time, priority, next(self._counter), handler,
                      storm_key=key, payload=payload)
        event._queue = self
        heapq.heappush(self._heap, (time, priority, event.seq, event))
        return event

    def take_storm_run(self, time: float, priority: int, key: object,
                       seq: int, payloads: list) -> int:
        """Pop every consecutive live head matching ``(time, priority, key)``
        whose sequence number follows ``seq`` without a gap.

        Appends their payloads (in seq order) to ``payloads`` and returns how
        many were taken.  Cancelled heads encountered on the way are discarded
        exactly as the scalar pop path would skip them.
        """
        heap = self._heap
        taken = 0
        while heap:
            head = heap[0]
            event = head[3]
            if event.cancelled:
                heapq.heappop(heap)
                self._cancelled -= 1
                continue
            if (head[0] != time or head[1] != priority
                    or head[2] != seq + taken + 1 or event.storm_key != key):
                break
            heapq.heappop(heap)
            event._queue = None
            payloads.append(event.payload)
            taken += 1
        return taken

    def pop(self) -> Event:
        """Remove and return the earliest non-cancelled event.

        Raises
        ------
        SimulationError
            If the queue holds no live events.
        """
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[3]
            if event.cancelled:
                self._cancelled -= 1
                continue
            event._queue = None
            return event
        raise SimulationError("pop from empty event queue")

    def pop_due(self, horizon: float) -> Event | None:
        """Pop the earliest live event with ``time <= horizon``, else ``None``.

        Single heap access per returned event — the scheduler's main loop
        uses this instead of a ``peek_time()``/``pop()`` pair.
        """
        heap = self._heap
        while heap:
            head = heap[0]
            event = head[3]
            if event.cancelled:
                heapq.heappop(heap)
                self._cancelled -= 1
                continue
            if head[0] > horizon:
                return None
            heapq.heappop(heap)
            event._queue = None
            return event
        return None

    def peek_time(self) -> float | None:
        """Time of the earliest live event, or ``None`` if the queue is empty."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
            self._cancelled -= 1
        if not heap:
            return None
        return heap[0][0]

    def discard_cancelled(self) -> None:
        """Compact the heap by removing cancelled entries (O(n))."""
        self._heap = [entry for entry in self._heap if not entry[3].cancelled]
        heapq.heapify(self._heap)
        self._cancelled = 0
