"""Compressor interface and the compressed-batch container."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True, slots=True)
class CompressedBatch:
    """A compressed collector batch as appended to the ledger by Compresschain.

    ``items`` retains the original objects so decompression in the simulation
    is exact; ``compressed_size`` is the modelled (or real) wire size of the
    compressed body, and ``original_size`` the pre-compression size, so the
    compression ratio is observable by the analysis layer.
    """

    items: tuple[object, ...]
    compressed_size: int
    original_size: int
    codec: str

    @property
    def ratio(self) -> float:
        """Original/compressed size ratio (paper reports 2.5-3.5 for Brotli)."""
        if self.compressed_size <= 0:
            return float("inf")
        return self.original_size / self.compressed_size


class Compressor(ABC):
    """Compress/decompress collector batches."""

    name: str = "abstract"

    @abstractmethod
    def compress(self, items: Sequence[object], original_size: int) -> CompressedBatch:
        """Build a :class:`CompressedBatch` from the batch ``items``.

        ``original_size`` is the summed modelled size of the items (elements
        plus epoch-proofs) before compression.
        """

    def decompress(self, batch: CompressedBatch) -> tuple[object, ...]:
        """Recover the original items.  Returns an empty tuple for foreign payloads."""
        if not isinstance(batch, CompressedBatch):
            return ()
        return batch.items
