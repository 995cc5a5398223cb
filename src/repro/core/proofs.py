"""Epoch-proof creation and verification.

An epoch-proof is ``p_v(i) = Sign_v(Hash(i, history[i]))``.  An epoch is
*committed* (and an element in it is final) once ``f + 1`` consistent
epoch-proofs from distinct signers are available: at least one of them must
come from a correct server, so the epoch content is trustworthy even when the
client only ever talks to a single (possibly Byzantine) server.  That rule is
``SetchainClient.check_commit`` (``core/client.py``).
"""

from __future__ import annotations

from typing import Iterable

from ..crypto.hashing import hash_epoch
from ..crypto.keys import KeyPair
from ..crypto.signatures import SignatureScheme
from ..workload.elements import Element
from .types import EpochProof, epoch_proof_payload


def create_epoch_proof(scheme: SignatureScheme, keypair: KeyPair,
                       epoch_number: int, elements: Iterable[Element],
                       epoch_hash: str | None = None) -> EpochProof:
    """Sign the hash of ``(epoch_number, elements)`` (``epoch_hash`` if known)."""
    epoch_hash = hash_epoch(epoch_number, elements) if epoch_hash is None else epoch_hash
    signature = scheme.sign(keypair, epoch_proof_payload(epoch_number, epoch_hash))
    return EpochProof(epoch_number=epoch_number, epoch_hash=epoch_hash,
                      signature=signature, signer=keypair.owner)


def verify_epoch_proof(scheme: SignatureScheme, proof: EpochProof,
                       elements: Iterable[Element]) -> bool:
    """Client-side check: does ``proof`` really cover this epoch content?"""
    expected = hash_epoch(proof.epoch_number, elements)
    if expected != proof.epoch_hash:
        return False
    return scheme.verify(proof.signer,
                         epoch_proof_payload(proof.epoch_number, proof.epoch_hash),
                         proof.signature)
