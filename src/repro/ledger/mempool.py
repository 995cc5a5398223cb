"""Mempool: unconfirmed transactions held between ``append`` and block inclusion.

Mirrors the CometBFT mempool behaviour that matters to the evaluation: FIFO
order, a transaction-count cap and a byte cap (the paper raises the defaults to
10,000,000 txs / 2 GB so the mempool is not the bottleneck), and reaping up to
a byte budget when the proposer builds a block.
"""

from __future__ import annotations

from collections import OrderedDict

from ..errors import MempoolFullError
from .types import Transaction


class Mempool:
    """FIFO set of pending transactions with count and byte caps."""

    def __init__(self, max_txs: int, max_bytes: int) -> None:
        self.max_txs = max_txs
        self.max_bytes = max_bytes
        self._txs: "OrderedDict[int, Transaction]" = OrderedDict()
        self._bytes = 0
        #: Transactions ever rejected because a cap was hit.
        self.rejected = 0
        #: Simulated time each tx_id first entered this mempool (latency stage 1-3).
        self.arrival_times: dict[int, float] = {}

    @property
    def size_bytes(self) -> int:
        return self._bytes

    def add(self, tx: Transaction, now: float) -> bool:
        """Admit ``tx`` if caps allow and it is not already present.

        Returns ``True`` if the transaction was newly admitted.  Raises
        :class:`MempoolFullError` when a cap is exceeded, matching the
        behaviour the paper tuned away by enlarging the caps.
        """
        if tx.tx_id in self._txs:
            return False
        if len(self._txs) + 1 > self.max_txs or self._bytes + tx.size_bytes > self.max_bytes:
            self.rejected += 1
            raise MempoolFullError(
                f"mempool full ({len(self._txs)} txs / {self._bytes} bytes)"
            )
        self._txs[tx.tx_id] = tx
        self._bytes += tx.size_bytes
        self.arrival_times.setdefault(tx.tx_id, now)
        return True

    def reap(self, max_bytes: int) -> list[Transaction]:
        """Return (without removing) the FIFO prefix fitting in ``max_bytes``.

        A transaction larger than ``max_bytes`` at the head of the queue is
        returned alone rather than wedging the mempool forever — the same
        behaviour as the ideal ledger (a block is never split below one
        transaction).
        """
        selected: list[Transaction] = []
        budget = max_bytes
        for tx in self._txs.values():
            if tx.size_bytes > budget:
                if not selected and tx.size_bytes > max_bytes:
                    selected.append(tx)
                break
            selected.append(tx)
            budget -= tx.size_bytes
        return selected

    def remove_committed(self, txs: list[Transaction]) -> None:
        """Drop transactions that were included in a finalized block."""
        for tx in txs:
            existing = self._txs.pop(tx.tx_id, None)
            if existing is not None:
                self._bytes -= existing.size_bytes

    def pending(self) -> list[Transaction]:
        """All pending transactions in FIFO order (copy)."""
        return list(self._txs.values())
