"""Algorithm Compresschain (paper §3).

Client elements and the server's own epoch-proofs are held in a collector.
When the collector is full (or a timeout fires on a non-empty batch), the
batch is compressed and appended to the ledger as a *single* transaction.
Each compressed batch found in a block becomes one epoch, which multiplies
throughput by roughly ``collector_size × compression_ratio`` relative to
Vanilla at the same ledger capacity.

The "light" variant reproduces the paper's Fig. 2 ablation: decompression and
validation are skipped (all servers assumed correct), isolating the ledger as
the only bottleneck.
"""

from __future__ import annotations

from typing import Sequence

from ..compressor.base import CompressedBatch, Compressor
from ..config import SetchainConfig
from ..crypto.keys import KeyPair
from ..crypto.signatures import SignatureScheme
from ..ledger.types import Block, Transaction
from ..sim.scheduler import Simulator
from ..workload.elements import Element
from .base import BaseSetchainServer
from .collector import Collector
from .types import EpochProof


class CompresschainServer(BaseSetchainServer):
    """One Compresschain Setchain server."""

    algorithm = "compresschain"

    def __init__(self, name: str, sim: Simulator, config: SetchainConfig,
                 scheme: SignatureScheme, keypair: KeyPair,
                 compressor: Compressor, metrics=None, light: bool = False) -> None:
        super().__init__(name, sim, config, scheme, keypair, metrics)
        self.compressor = compressor
        #: Skip decompression/validation cost (the paper's "Compresschain Light").
        self.light = light
        self.collector = Collector(sim, config.collector_limit,
                                   config.collector_timeout, self._flush_batch)
        #: Number of compressed batches this server appended.
        self.batches_appended = 0

    # -- add path -----------------------------------------------------------------

    def _after_add_many(self, elements: list[Element]) -> None:
        # §3 Compresschain line 5: add_to_batch(e) — the same flush
        # boundaries as per-element adds, one slice-extend per flush.
        self.collector.add_many(elements)

    def add_to_batch(self, item: object) -> None:
        """``add_to_batch``: also used internally for this server's epoch-proofs."""
        self.collector.add(item)

    # -- collector flush (lines 12-17) -----------------------------------------------

    def _flush_batch(self, batch: Sequence[object]) -> None:
        byz = self._byz
        if byz is not None and byz.on_flush_batch(self, tuple(batch)):
            return
        original_size = sum(getattr(item, "size_bytes", 0) for item in batch)
        compressed = self.compressor.compress(batch, original_size)
        tx = self._append_to_ledger(compressed, compressed.compressed_size)
        self.batches_appended += 1
        if self.metrics is not None:
            element_ids = [item.element_id for item in batch if isinstance(item, Element)]
            self.metrics.record_tx_elements([(tx.tx_id, element_ids)])
            self.metrics.record_batch_flush(self.name, len(batch),
                                            compressed.compressed_size, self.sim.now,
                                            element_ids)

    # -- block processing (lines 18-29) ------------------------------------------------

    def _handle_tx(self, block: Block, tx: Transaction) -> None:
        payload = tx.payload
        duration = self.config.tx_processing_overhead
        if not isinstance(payload, CompressedBatch):
            # Garbage appended by a Byzantine server: skip (line 21 analogue).
            self._finish_after(duration)
            return
        items = self.compressor.decompress(payload)
        if not self.light:
            duration += len(items) * self.config.element_validation_time
        if not items:
            self._finish_after(duration)
            return
        # Lines 22-25 in one pass: collect the batch's epoch-proofs and build
        # G = valid elements not yet in an epoch (first occurrence wins for
        # conflicting duplicate ids).  Proof absorption and element adds touch
        # disjoint state, so batching the proofs to the end changes nothing.
        proofs: list[EpochProof] = []
        keep_proof = proofs.append
        new_epoch: dict[int, Element] = {}
        epoch_of, epoch = self._epoch_of, self._epoch
        the_set = self._the_set
        for item in items:
            if isinstance(item, Element):
                element_id = item.element_id
                if (item.valid and (element_id not in epoch_of
                                    or epoch_of[element_id] > epoch)
                        and element_id not in new_epoch):
                    new_epoch[element_id] = item
                    the_set.setdefault(element_id, item)
            elif isinstance(item, EpochProof):
                keep_proof(item)
        if proofs:
            self._absorb_proofs(proofs)
        if self.metrics is not None and new_epoch:
            self.metrics.record_in_ledger_many(new_epoch, self.sim.now)
        # Lines 26-29: the batch becomes an epoch and we send our proof for it
        # to the collector.  Proof-only batches do not create (empty) epochs —
        # otherwise the tail of a run would generate epochs, hence proofs,
        # hence batches, forever.
        if new_epoch:
            proof = self._byz_outgoing_proof(
                self._record_new_epoch(tuple(new_epoch), tuple(new_epoch.values()), block))
            if proof is not None and not self.bootstrapping:
                self.add_to_batch(proof)
        self._finish_after(duration)

    # -- membership lifecycle ------------------------------------------------------

    def begin_drain(self) -> None:
        """Flush the collector so no accepted element is stranded in memory."""
        super().begin_drain()
        self.collector.flush_now()

    # -- crash faults ------------------------------------------------------------

    def _on_crash(self) -> None:
        """The collector batch is in-memory state and dies with the process."""
        super()._on_crash()
        self.collector.clear()
