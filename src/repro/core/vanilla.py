"""Algorithm Vanilla (paper Appendix B).

Every added element is appended to the ledger as its own transaction.  When a
block is notified, the valid epoch-proofs it carries are absorbed, the valid
not-yet-epoched elements form a new epoch, and the server appends its
epoch-proof for that epoch back to the ledger.  Throughput and latency are
therefore those of the underlying ledger — Vanilla is the correctness
baseline the other two algorithms improve on.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import is_
from typing import Sequence

from ..config import EPOCH_PROOF_SIZE, SetchainConfig
from ..crypto.keys import KeyPair
from ..crypto.signatures import SignatureScheme
from ..ledger.types import Block, Transaction
from ..sim.scheduler import Simulator
from ..workload.elements import Element
from .base import BaseSetchainServer
from .types import EpochProof


class VanillaServer(BaseSetchainServer):
    """One Vanilla Setchain server."""

    algorithm = "vanilla"

    def __init__(self, name: str, sim: Simulator, config: SetchainConfig,
                 scheme: SignatureScheme, keypair: KeyPair, metrics=None) -> None:
        super().__init__(name, sim, config, scheme, keypair, metrics)
        #: Valid elements of the block currently being processed (the epoch
        #: candidate set G of Appendix B, line 13).
        self._block_elements: dict[int, Element] = {}
        #: What the run in flight owes the metrics: ids and instants of the
        #: elements it saw in the ledger, instants of those it refused.
        self._run: tuple[list[int], list[float], list[float]] = ([], [], [])

    # -- add path -----------------------------------------------------------------

    def _after_add_many(self, elements: list[Element]) -> None:
        # Appendix B line 6: L.append(e) — one ledger transaction per element,
        # the burst handed to the ledger in one call.
        origin, now = self.name, self.sim.now
        txs = [Transaction(element, element.size_bytes, origin, None, now)
               for element in elements]
        self.ledger.append_many(txs)
        if self.metrics is not None:
            self.metrics.record_tx_elements(
                [(tx.tx_id, (tx.payload.element_id,)) for tx in txs])

    # -- block processing -----------------------------------------------------------

    def _handle_txs(self, block: Block, txs: Sequence[Transaction],
                    start: int) -> int:
        payload = txs[start].payload
        overhead = self.config.tx_processing_overhead
        if not isinstance(payload, Element):
            if isinstance(payload, EpochProof):
                # Appendix B lines 11-12: absorb valid epoch-proofs.
                self._absorb_proofs([payload])
            # Anything else (a Byzantine server appended garbage) is skipped.
            self._finish_after(overhead)
            return 1
        # Every consecutive element of the block is one run: an element reads
        # the epoch index at or below ``_epoch``, which only this server's
        # block ends move and no run spans (entries above it are ignored,
        # whoever writes them), and writes the epoch candidates, private; the
        # stamp or refusal count it owes the metrics waits in ``_run`` for
        # :meth:`_settle`.
        step = overhead + self.config.element_validation_time
        at = self.sim.now
        epoch_of, epoch = self._epoch_of, self._epoch
        candidates = self._block_elements
        ids, times, refused = self._run
        handled = 0
        for tx in txs[start:]:
            element = tx.payload
            if not isinstance(element, Element):
                break
            element_id = element.element_id
            if not element.valid:
                # A Byzantine server appended an invalid element; refuse it.
                refused.append(at)
            elif ((element_id not in epoch_of or epoch_of[element_id] > epoch)
                    and element_id not in candidates):
                candidates[element_id] = element
                ids.append(element_id)
                times.append(at)
            at += step
            handled += 1
        self._finish_at(at)
        return handled

    def _settle(self, before: float) -> None:
        ids, times, refused = self._run
        stamped = bisect_left(times, before)
        counted = bisect_left(refused, before)
        if self.metrics is not None and (stamped or counted):
            self.metrics.record_in_ledger_run(ids[:stamped], times[:stamped])
            for _ in range(counted):
                self.metrics.record_byzantine(self.name,
                                              "invalid_elements_refused")
        del ids[:stamped], times[:stamped], refused[:counted]

    def _handle_block_end(self, block: Block) -> None:
        # Appendix B lines 13-18: the block's valid new elements become an epoch.
        candidates = self._block_elements
        if not candidates:
            return
        self._block_elements = {}
        ids, elements = tuple(candidates), tuple(candidates.values())
        # First id wins in the_set: one update when every id it holds already
        # maps to that very element (the usual case), else a test per id.
        the_set = self._the_set
        if all(map(is_, map(the_set.get, ids, elements), elements)):
            the_set.update(zip(ids, elements))
        else:
            for element_id, element in zip(ids, elements):
                the_set.setdefault(element_id, element)
        proof = self._byz_outgoing_proof(self._record_new_epoch(ids, elements, block))
        if proof is not None and not self.bootstrapping:
            self._append_to_ledger(proof, EPOCH_PROOF_SIZE)

    # -- crash faults ------------------------------------------------------------

    def _halt_pipeline(self) -> list[Block]:
        """The epoch-candidate set of the interrupted block is in-memory
        state (the block is replayed in full on recovery), and what a cut
        run owed for instants it never reached is void."""
        interrupted = super()._halt_pipeline()
        self._block_elements = {}
        self._run = ([], [], [])
        return interrupted
