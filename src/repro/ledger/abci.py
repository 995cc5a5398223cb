"""Application interface between the ledger and the Setchain layer.

CometBFT separates the consensus engine from the replicated application via
ABCI; the Setchain algorithms live in the application.  We model the two
pieces the algorithms actually use:

* ``CheckTx`` — the mempool asks the application whether a transaction is
  valid before admitting and gossiping it.
* ``FinalizeBlock`` — the engine hands the application each finalized block,
  which is exactly the paper's ``new_block(B)`` notification.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from .types import Block, Transaction


class Application(ABC):
    """The ABCI-facing side of a Setchain server."""

    def check_tx(self, tx: Transaction) -> bool:
        """Mempool admission check.  Default: accept everything.

        The paper's servers validate elements again when processing blocks
        (Byzantine servers may have appended garbage), so mempool-level
        rejection is an optimisation, not a correctness requirement.
        """
        return True

    @abstractmethod
    def finalize_block(self, block: Block) -> None:
        """Process a finalized block — the ``new_block(B)`` notification."""


class LedgerInterface(ABC):
    """What a Setchain server sees of its local ledger node.

    Matches the paper's two endpoints: ``append(tx)`` and block notifications
    (delivered by calling :meth:`Application.finalize_block` on the subscribed
    application).  A backend implements one append body,
    :meth:`append_many`; ``append`` is its run of one, the way ``add`` is for
    ``add_many`` on a server.
    """

    def append(self, tx: Transaction) -> None:
        """Submit a transaction for eventual inclusion in a block."""
        self.append_many((tx,))

    @abstractmethod
    def append_many(self, txs: Sequence[Transaction]) -> None:
        """Submit a burst of transactions, in order: exactly what calling
        :meth:`append` on each in turn would do, with the per-call work
        (dispatch, admission of pending traffic) paid once per burst."""

    @abstractmethod
    def subscribe(self, app: Application) -> None:
        """Register the application that receives ``finalize_block`` callbacks."""
