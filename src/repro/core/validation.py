"""Validation predicates used by the algorithms.

These correspond to the paper's ``valid_element``, ``valid_proof`` and
``valid_hash`` helper functions.  They are side-effect free — but for the
batch records ``batch_matches_hash`` fills when handed them, which no
verdict depends on — so both servers and property checkers can call them.
"""

from __future__ import annotations

from typing import Iterable

from ..crypto.hashing import hash_batch, hash_epoch
from ..crypto.signatures import SignatureScheme
from ..workload.elements import Element
from .batch_store import BatchRecord, batch_record
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
                       records: dict[int, BatchRecord] | None = None) -> bool:
    """True iff ``Hash(items)`` equals the hash a hash-batch advertised.

    ``records`` (``SignatureScheme.batch_records``, owned by the deployment)
    holds one :class:`~repro.core.batch_store.BatchRecord` per batch tuple:
    every server that resolves a hash validates the *same tuple object*, and
    its record's digest — the flush's own, or this check's on first sight —
    answers all of them.  A forged or altered reply is another tuple, with
    its own record and its own hash.
    """
    if records is None or not isinstance(items, tuple):
        return hash_batch(items) == expected_hash
    record = batch_record(items, records)
    if record.digest is None:
        record.digest = hash_batch(items)
    return record.digest == expected_hash
