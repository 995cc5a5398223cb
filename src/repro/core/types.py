"""Setchain-level data types: epoch-proofs, hash-batches, and the get() view."""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

from ..config import EPOCH_PROOF_SIZE, HASH_BATCH_SIZE
from ..errors import SetchainError
from ..values import SlotValue
from ..workload.elements import Element


def epoch_proof_payload(epoch_number: int, epoch_hash: str) -> str:
    """Canonical string signed by an epoch-proof: ``Hash(i, history[i])`` tagged by i."""
    return f"epoch-proof|{epoch_number}|{epoch_hash}"


class EpochProof(SlotValue):
    """``⟨j, p, w⟩``: server ``w``'s signature ``p`` over the hash of epoch ``j``.

    The wire length is the paper's measured 139 bytes regardless of the
    concrete signature backend.  Immutable by contract: no field is assigned
    after construction, so the encoding and the hash are computed once.
    """

    _fields = ("epoch_number", "epoch_hash", "signature", "signer", "size_bytes")
    __slots__ = _fields + ("_canonical", "_hash")

    def __init__(self, epoch_number: int, epoch_hash: str, signature: bytes,
                 signer: str, size_bytes: int = EPOCH_PROOF_SIZE) -> None:
        if epoch_number < 1:
            raise SetchainError("epoch numbers start at 1")
        if not signer:
            raise SetchainError("epoch-proof must name its signer")
        self.epoch_number = epoch_number
        self.epoch_hash = epoch_hash
        self.signature = signature
        self.signer = signer
        self.size_bytes = size_bytes
        #: Canonical encoding (hashed once per batch).
        self._canonical = (f"proof|{epoch_number}|{epoch_hash}|{signer}|"
                           f"{signature.hex()}").encode()
        #: The tuple a frozen dataclass hashes (``_fields``, in order), so set
        #: iteration orders are unchanged — proofs live in sets checked on
        #: every ledger batch re-absorption.
        self._hash = hash((epoch_number, epoch_hash, signature, signer,
                           size_bytes))

    def __hash__(self) -> int:
        return self._hash

    def canonical_bytes(self) -> bytes:
        return self._canonical

    @property
    def is_element(self) -> bool:
        """Type tag: epoch-proofs are not Setchain elements."""
        return False


def hash_batch_payload(batch_hash: str) -> str:
    """Canonical string a server signs when emitting a hash-batch."""
    return f"hash-batch|{batch_hash}"


class HashBatch(SlotValue):
    """``⟨h, s, v⟩``: the hash of a batch, signed by server ``v`` (Hashchain).

    Fixed 139-byte wire size (hash + signature + identity), per the paper.
    Immutable by contract: no field is assigned after construction.
    """

    _fields = ("batch_hash", "signature", "signer", "size_bytes")
    __slots__ = _fields + ("_canonical",)

    def __init__(self, batch_hash: str, signature: bytes, signer: str,
                 size_bytes: int = HASH_BATCH_SIZE) -> None:
        if not batch_hash:
            raise SetchainError("hash-batch must carry a batch hash")
        if not signer:
            raise SetchainError("hash-batch must name its signer")
        self.batch_hash = batch_hash
        self.signature = signature
        self.signer = signer
        self.size_bytes = size_bytes
        #: Canonical encoding (hashed once per batch).
        self._canonical = (f"hash-batch|{batch_hash}|{signer}|"
                           f"{signature.hex()}").encode()

    def canonical_bytes(self) -> bytes:
        return self._canonical

    @property
    def is_element(self) -> bool:
        return False


@dataclass(frozen=True)
class SetchainView:
    """The tuple returned by ``S.get()``: ``(the_set, history, epoch, proofs)``.

    ``history`` maps epoch number (1-based) to the frozenset of elements
    stamped with that epoch.  The view is a snapshot — mutating the server
    afterwards does not change an already-returned view.
    """

    the_set: frozenset[Element]
    history: Mapping[int, frozenset[Element]]
    epoch: int
    proofs: frozenset[EpochProof]

    @staticmethod
    def snapshot(the_set: dict[int, Element],
                 history: Mapping[int, Iterable[Element]],
                 epoch: int, proofs: set[EpochProof]) -> "SetchainView":
        """Build an immutable snapshot from a server's mutable state; epochs
        that are frozensets already (a server's are) are shared, not copied."""
        frozen_history = {i: frozenset(elements) for i, elements in history.items()}
        return SetchainView(
            the_set=frozenset(the_set.values()),
            history=MappingProxyType(frozen_history),
            epoch=epoch,
            proofs=frozenset(proofs),
        )

    def elements_in_epochs(self) -> frozenset[Element]:
        """Union of all epochs (⋃ history[i])."""
        combined: set[Element] = set()
        for elements in self.history.values():
            combined.update(elements)
        return frozenset(combined)

    def epoch_of(self, element: Element) -> int | None:
        """Epoch number containing ``element``, or ``None`` if not yet epoched."""
        for number, elements in self.history.items():
            if element in elements:
                return number
        return None

    def proofs_for(self, epoch_number: int) -> frozenset[EpochProof]:
        """All proofs in the view claiming to cover ``epoch_number``."""
        return frozenset(p for p in self.proofs if p.epoch_number == epoch_number)
