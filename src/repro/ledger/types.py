"""Ledger transactions and blocks.

Terminology follows the paper: a *transaction* is what the block-based ledger
orders (it may carry one Setchain element, a compressed batch, a hash-batch,
or an epoch-proof); an *element* is a Setchain-level item.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any

from ..errors import LedgerError
from ..values import SlotValue

_tx_counter = itertools.count()


class Transaction(SlotValue):
    """A ledger transaction; immutable by contract (no field is assigned
    after construction).

    Attributes
    ----------
    payload:
        The Setchain-level object carried by the transaction.
    size_bytes:
        Modelled wire size used for mempool byte caps and block packing.
    origin:
        Name of the process that appended the transaction.
    tx_id:
        Globally unique identifier (the next one, unless given).
    created_at:
        Simulated time at which the transaction was created (for latency
        accounting).  ``None`` when unknown.
    """

    __slots__ = _fields = ("payload", "size_bytes", "origin", "tx_id",
                           "created_at")

    def __init__(self, payload: Any, size_bytes: int, origin: str,
                 tx_id: int | None = None,
                 created_at: float | None = None) -> None:
        if size_bytes < 0:
            raise LedgerError("transaction size cannot be negative")
        self.payload = payload
        self.size_bytes = size_bytes
        self.origin = origin
        self.tx_id = next(_tx_counter) if tx_id is None else tx_id
        self.created_at = created_at


def new_transaction(payload: Any, size_bytes: int, origin: str,
                    created_at: float | None = None) -> Transaction:
    """Convenience constructor mirroring the paper's ``L.append`` argument."""
    return Transaction(payload, size_bytes, origin, None, created_at)


@dataclass(frozen=True, slots=True)
class Block:
    """A finalized ledger block: an ordered sequence of transactions.

    ``B[i]`` in the paper is 1-indexed; ``transactions[i]`` is 0-indexed like
    normal Python.
    """

    height: int
    transactions: tuple[Transaction, ...]
    proposer: str
    timestamp: float

    def __post_init__(self) -> None:
        if self.height < 1:
            raise LedgerError("block heights start at 1")
