"""Ideal ledger: a centralized sequencer satisfying Properties 9-11.

The ideal ledger removes consensus messaging entirely: a single sequencer
collects appended transactions and, at the configured block interval, cuts a
block (bounded by the block-size cap) and notifies every subscribed
application in the same order.  It is used to unit-test Setchain logic in
isolation and to run fast analytical-scale sweeps where consensus overhead is
not the quantity being measured.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from ..config import LedgerConfig
from ..errors import LedgerError
from ..sim.process import PeriodicTask
from ..sim.scheduler import Simulator
from .abci import Application, LedgerInterface
from .types import Block, Transaction


class IdealLedger:
    """The shared sequencer.  Each server talks to it through a :class:`IdealLedgerHandle`."""

    def __init__(self, sim: Simulator, config: LedgerConfig | None = None) -> None:
        self.sim = sim
        self.config = config if config is not None else LedgerConfig()
        # A deque: block production pops from the head, and popping a list
        # head is O(pending) — quadratic over a million-element backlog.
        self._pending: deque[Transaction] = deque()
        self._pending_ids: set[int] = set()
        self._apps: list[Application] = []
        self._height = 0
        self.blocks: list[Block] = []
        self._producer = PeriodicTask(sim, self.config.block_interval, self._produce_block)
        #: tx_id -> height of the block that included it.
        self.inclusion_height: dict[int, int] = {}

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Begin producing blocks at the configured rate."""
        self._producer.start()

    def stop(self) -> None:
        self._producer.stop()

    # -- ledger API ------------------------------------------------------------

    def handle_for(self, owner: str) -> "IdealLedgerHandle":
        """A per-server handle implementing :class:`LedgerInterface`."""
        return IdealLedgerHandle(self, owner)

    def submit(self, txs: Sequence[Transaction]) -> None:
        """Accept a burst into the shared pending queue, each id once: a
        transaction already pending or included, or repeated within the
        burst, is dropped (its first fresh copy counts)."""
        pending_ids, included = self._pending_ids, self.inclusion_height
        ids = {tx.tx_id for tx in txs}
        if (len(ids) != len(txs) or not ids.isdisjoint(pending_ids)
                or not included.keys().isdisjoint(ids)):
            ids, fresh = set(), []
            for tx in txs:
                if not (tx.tx_id in ids or tx.tx_id in pending_ids
                        or tx.tx_id in included):
                    ids.add(tx.tx_id)
                    fresh.append(tx)
            txs = fresh
        self._pending.extend(txs)
        pending_ids.update(ids)

    def subscribe(self, app: Application) -> None:
        if app in self._apps:
            raise LedgerError("application already subscribed")
        self._apps.append(app)

    # -- block production -------------------------------------------------------

    @property
    def height(self) -> int:
        return self._height

    def pending_count(self) -> int:
        return len(self._pending)

    def _produce_block(self) -> None:
        pending = self._pending
        if not pending:
            return
        # The longest head that fits, and at least the first transaction (one
        # larger than a block goes alone: CometBFT never splits a tx).  Only
        # the head is read, so a cut costs O(block), never O(backlog).
        budget, count = self.config.block_size_bytes, 0
        for tx in pending:
            budget -= tx.size_bytes
            if budget < 0 and count:
                break
            count += 1
            if budget <= 0:
                break
        popleft = pending.popleft
        included = tuple([popleft() for _ in range(count)])
        ids = [tx.tx_id for tx in included]
        self._pending_ids.difference_update(ids)
        self._height += 1
        block = Block(height=self._height, transactions=included,
                      proposer="sequencer", timestamp=self.sim.now)
        self.blocks.append(block)
        self.inclusion_height.update(dict.fromkeys(ids, block.height))
        # Durability point: the block must be persisted before any application
        # observes it, so a crash can only lose blocks no app has acted on.
        self._persist_block(block)
        for app in list(self._apps):
            app.finalize_block(block)

    def _persist_block(self, block: Block) -> None:
        """Durability hook between block cut and app notification.

        The in-memory sequencer keeps nothing; durable subclasses (the
        ``sqlite`` service backend) override this to write the block inside a
        transaction so the committed prefix survives a process crash.
        """


class IdealLedgerHandle(LedgerInterface):
    """Per-server view of the :class:`IdealLedger`."""

    def __init__(self, ledger: IdealLedger, owner: str) -> None:
        self._ledger = ledger
        self.owner = owner

    def append_many(self, txs: Sequence[Transaction]) -> None:
        self._ledger.submit(txs)

    def subscribe(self, app: Application) -> None:
        self._ledger.subscribe(app)
