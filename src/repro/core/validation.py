"""Validation predicates used by the algorithms.

These correspond to the paper's ``valid_element``, ``valid_proof`` and
``valid_hash`` helper functions.  They are deliberately side-effect free so
both servers and property checkers can call them.
"""

from __future__ import annotations

from typing import Iterable

from ..crypto.hashing import hash_batch, hash_epoch
from ..crypto.signatures import SignatureScheme
from ..workload.elements import Element
from .types import EpochProof, HashBatch, epoch_proof_payload, hash_batch_payload


def valid_element(element: object) -> bool:
    """Syntactic/semantic validity of a client element.

    The simulation encodes a failed client signature or semantic check as
    ``Element.valid == False`` (set by fault-injection helpers); correct
    servers must discard such elements even if a Byzantine server put them in
    the ledger.
    """
    return isinstance(element, Element) and element.valid


def valid_proof(proof: object, scheme: SignatureScheme,
                epoch_elements: Iterable[Element] | None) -> bool:
    """Check an epoch-proof against the locally known epoch content.

    A proof is valid when (i) it is well-formed, (ii) the local server already
    has the epoch it refers to and its hash matches the proof's, and (iii) the
    signature verifies under the claimed signer's registered public key.
    """
    if not isinstance(proof, EpochProof):
        return False
    if epoch_elements is None:
        return False
    expected_hash = hash_epoch(proof.epoch_number, epoch_elements)
    if expected_hash != proof.epoch_hash:
        return False
    return scheme.verify(proof.signer, epoch_proof_payload(proof.epoch_number,
                                                           proof.epoch_hash),
                         proof.signature)


def valid_hash_batch(hash_batch_obj: object, scheme: SignatureScheme) -> bool:
    """Check a Hashchain hash-batch: well-formed and signed by its claimed signer."""
    if not isinstance(hash_batch_obj, HashBatch):
        return False
    return scheme.verify(hash_batch_obj.signer,
                         hash_batch_payload(hash_batch_obj.batch_hash),
                         hash_batch_obj.signature)


def batch_matches_hash(items: Iterable[object], expected_hash: str,
                       memo: dict[int, tuple[object, str]] | None = None) -> bool:
    """True iff ``Hash(items)`` equals the hash a hash-batch advertised.

    ``memo`` is an identity-keyed store of ``hash_batch`` results: batches
    travel through the simulation by reference, so every server that resolves
    the same hash validates the *same tuple object*.  Entries pin the tuple (a
    strong reference), which is what makes the ``id`` key safe — a pinned
    object's id cannot be reused.  The caller owns it for the lifetime of its
    deployment (``SignatureScheme.batch_digests``).
    """
    if memo is None or not isinstance(items, tuple):
        return hash_batch(items) == expected_hash
    entry = memo.get(id(items))
    if entry is None or entry[0] is not items:
        memo[id(items)] = entry = (items, hash_batch(items))
    return entry[1] == expected_hash


def split_batch(items: Iterable[object]) -> tuple[list[Element], list[EpochProof]]:
    """Split mixed batch contents into (elements, epoch-proofs), dropping anything else."""
    elements: list[Element] = []
    proofs: list[EpochProof] = []
    for item in items:
        if isinstance(item, Element):
            elements.append(item)
        elif isinstance(item, EpochProof):
            proofs.append(item)
    return elements, proofs
