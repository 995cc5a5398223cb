"""Epoch-proof creation and the f+1 commit rule.

An epoch-proof is ``p_v(i) = Sign_v(Hash(i, history[i]))``.  An epoch is
*committed* (and an element in it is final) once ``f + 1`` consistent
epoch-proofs from distinct signers are available: at least one of them must
come from a correct server, so the epoch content is trustworthy even when the
client only ever talks to a single (possibly Byzantine) server.
"""

from __future__ import annotations

from typing import Iterable, Mapping

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


def distinct_signers(proofs: Iterable[EpochProof], epoch_number: int,
                     epoch_hash: str | None = None) -> set[str]:
    """Signers of proofs for ``epoch_number`` (optionally only those matching a hash)."""
    signers: set[str] = set()
    for proof in proofs:
        if proof.epoch_number != epoch_number:
            continue
        if epoch_hash is not None and proof.epoch_hash != epoch_hash:
            continue
        signers.add(proof.signer)
    return signers


def epoch_is_committed(proofs: Iterable[EpochProof], epoch_number: int,
                       elements: Iterable[Element], quorum: int,
                       scheme: SignatureScheme | None = None) -> bool:
    """The f+1 rule: enough *consistent* proofs from distinct signers.

    When ``scheme`` is provided each candidate proof's signature is verified;
    otherwise only hash consistency is required (servers have already verified
    signatures before storing proofs).
    """
    epoch_hash = hash_epoch(epoch_number, elements)
    signers: set[str] = set()
    for proof in proofs:
        if proof.epoch_number != epoch_number or proof.epoch_hash != epoch_hash:
            continue
        if scheme is not None and not scheme.verify(
                proof.signer, epoch_proof_payload(proof.epoch_number, proof.epoch_hash),
                proof.signature):
            continue
        signers.add(proof.signer)
        if len(signers) >= quorum:
            return True
    return len(signers) >= quorum


def committed_epochs(proofs: Iterable[EpochProof],
                     history: Mapping[int, frozenset[Element]] | Mapping[int, set[Element]],
                     quorum: int) -> set[int]:
    """All epoch numbers in ``history`` that satisfy the f+1 rule under ``proofs``."""
    result: set[int] = set()
    proofs = list(proofs)
    for epoch_number, elements in history.items():
        if epoch_is_committed(proofs, epoch_number, elements, quorum):
            result.add(epoch_number)
    return result
