"""Validation predicates used by the algorithms.

These correspond to the paper's ``valid_hash`` helper function; a server's
``add`` is its ``valid_element`` check and ``SetchainClient`` its
``valid_proof`` one.  They are side-effect free — but for the batch records
``batch_matches_hash`` fills when handed them, which no verdict depends on.
"""

from __future__ import annotations

from typing import Iterable

from ..crypto.hashing import hash_batch
from ..crypto.signatures import SignatureScheme
from .batch_store import BatchRecord, batch_record
from .types import HashBatch, hash_batch_payload


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
