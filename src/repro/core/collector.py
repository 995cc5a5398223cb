"""The collector: batches client elements and epoch-proofs before the ledger.

Compresschain and Hashchain hold added items in a collector until either the
collector size is reached or a timeout expires with a non-empty batch
(``isReady(batch)`` in the pseudocode).  The collector then hands the batch to
a flush callback — compression + append for Compresschain, hash + sign +
append for Hashchain — and resets.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..errors import ConfigurationError
from ..sim.process import Timer
from ..sim.scheduler import Simulator

FlushCallback = Callable[[Sequence[object]], None]


class Collector:
    """Size-or-timeout batching of Setchain items."""

    def __init__(self, sim: Simulator, limit: int, timeout: float,
                 on_flush: FlushCallback) -> None:
        if limit < 1:
            raise ConfigurationError("collector limit must be at least 1")
        if timeout <= 0:
            raise ConfigurationError("collector timeout must be positive")
        self.sim = sim
        self.limit = limit
        self.timeout = timeout
        self.on_flush = on_flush
        self._batch: list[object] = []
        self._timer = Timer(sim, self._on_timeout)
        #: Number of flushes triggered by reaching the size limit / by timeout.
        self.size_flushes = 0
        self.timeout_flushes = 0

    @property
    def pending(self) -> tuple[object, ...]:
        """Current batch contents (defensive copy, for external inspection).

        Hot paths must use :meth:`pending_view` instead — this property
        allocates a fresh tuple on every access.  (Audit as of PR 2: no code
        under ``src/`` reads ``pending``; only tests do.)
        """
        return tuple(self._batch)

    def pending_view(self) -> Sequence[object]:
        """Zero-copy read-only view of the current batch contents.

        The returned sequence is the collector's live internal buffer: it
        mutates on the next :meth:`add` and is emptied by a flush, so callers
        must not hold it across simulation steps — snapshot via
        :attr:`pending` for that.
        """
        return self._batch

    def add(self, item: object) -> None:
        """``add_to_batch(e)``: append an element or epoch-proof to the batch."""
        if not self._batch:
            self._timer.start(self.timeout)
        self._batch.append(item)
        if len(self._batch) >= self.limit:
            self.size_flushes += 1
            self._flush()

    def add_many(self, items: Sequence[object]) -> None:
        """Batched :meth:`add`: slice-extend instead of N appends.

        Flush boundaries, flush contents, and timer arming are exactly those
        of adding the items one at a time — the batch is filled to the limit,
        flushed, refilled, and so on; the timer is (re)armed whenever an item
        lands in an empty batch.
        """
        position = 0
        remaining = len(items)
        limit = self.limit
        while remaining > 0:
            batch = self._batch
            if not batch:
                self._timer.start(self.timeout)
            take = limit - len(batch)
            if take > remaining:
                take = remaining
            batch.extend(items[position:position + take])
            position += take
            remaining -= take
            if len(batch) >= limit:
                self.size_flushes += 1
                self._flush()

    def flush_now(self) -> None:
        """Force a flush of a non-empty batch (used at experiment drain time)."""
        if self._batch:
            self.timeout_flushes += 1
            self._flush()

    def clear(self) -> None:
        """Drop the pending batch and disarm the timer (crash-fault volatility).

        The collector is in-memory state: a server that crash-faults loses
        whatever it had batched but not yet flushed.
        """
        self._timer.cancel()
        self._batch = []

    def _on_timeout(self) -> None:
        if self._batch:
            self.timeout_flushes += 1
            self._flush()

    def _flush(self) -> None:
        self._timer.cancel()
        # Hand the callback an immutable snapshot: consumers that need a
        # tuple (the hashchain batch store, CompressedBatch) can reuse it
        # as-is instead of re-copying the batch.
        batch, self._batch = tuple(self._batch), []
        # Contract of the pseudocode's `assert batch != ∅`.
        assert batch, "collector flushed an empty batch"
        self.on_flush(batch)
