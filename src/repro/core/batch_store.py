"""Local hash→batch registry used by Hashchain (``hash_to_batch`` / ``Register_batch``).

Each server keeps the batches it has seen keyed by their hash so it can serve
``Request_batch`` calls from peers.  The store also tracks which hashes were
registered locally (our own collector flushes) versus recovered from peers,
which the analysis layer uses to count hash-reversal traffic.
"""

from __future__ import annotations

from ..workload.elements import Element
from .types import EpochProof


class BatchRecord:
    """What one batch tuple holds, worked out once per deployment: every
    server that flushes, serves, checks or absorbs a batch handles the *same
    tuple* (``SignatureScheme.batch_records`` keys it by identity; the record
    pins it, so the ``id`` cannot be reused).  It holds the ``digest`` (the
    flush's own ``hash_batch`` or the first match check's, else ``None``),
    the valid ``elements``, their ``ids`` and the ``proofs`` in item order,
    whether the ids are ``unique`` and the summed ``size`` a
    ``Request_batch`` reply carries.  An epoch filled from a clean batch is
    ``ids`` and ``elements`` as they stand (its frozenset lives in
    ``scheme.epoch_records``, keyed by this very ``ids`` tuple)."""

    __slots__ = ("items", "digest", "elements", "ids", "proofs", "unique", "size")

    def __init__(self, items: tuple[object, ...], digest: str | None = None) -> None:
        self.items = items
        self.digest = digest
        elements: list[Element] = []
        proofs: list[EpochProof] = []
        size = 0
        for item in items:
            if isinstance(item, Element):
                size += item.size_bytes
                if item.valid:
                    elements.append(item)
            else:
                size += getattr(item, "size_bytes", 0)
                if isinstance(item, EpochProof):
                    proofs.append(item)
        self.elements = tuple(elements)
        self.ids = ids = tuple([element.element_id for element in elements])
        self.proofs = tuple(proofs)
        self.unique = len(set(ids)) == len(ids)
        self.size = size


def batch_record(items: tuple[object, ...], records: dict[int, BatchRecord]) -> BatchRecord:
    """The record of ``items`` in ``records``, built on first sight."""
    record = records.get(id(items))
    if record is None or record.items is not items:
        records[id(items)] = record = BatchRecord(items)
    return record


class BatchStore:
    """hash → tuple(items) with provenance accounting."""

    def __init__(self) -> None:
        self._batches: dict[str, tuple[object, ...]] = {}
        #: Number of Request_batch calls served to peers.
        self.served_requests = 0
        #: Number of batches recovered from peers (hash-reversal successes).
        self.recovered = 0

    def __contains__(self, batch_hash: str) -> bool:
        return batch_hash in self._batches

    def register_local(self, batch_hash: str, items: tuple[object, ...]) -> None:
        """``Register_batch`` for a batch this server built itself."""
        self._batches[batch_hash] = items

    def register_remote(self, batch_hash: str, items: tuple[object, ...]) -> None:
        """Store a batch recovered from a peer via ``Request_batch``."""
        if batch_hash not in self._batches:
            self.recovered += 1
        self._batches[batch_hash] = items

    def get(self, batch_hash: str) -> tuple[object, ...] | None:
        """The batch behind ``batch_hash``, or ``None`` if unknown."""
        return self._batches.get(batch_hash)

    def serve(self, batch_hash: str) -> tuple[object, ...] | None:
        """Answer a peer's Request_batch; counts served requests."""
        items = self._batches.get(batch_hash)
        if items is not None:
            self.served_requests += 1
        return items

    def items(self) -> list[tuple[str, tuple[object, ...]]]:
        """Every stored ``(hash, batch)`` pair, for journaling/checkpointing."""
        return list(self._batches.items())
