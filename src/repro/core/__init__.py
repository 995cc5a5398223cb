"""Setchain core: the paper's contribution.

Public surface:

* the three algorithms — :class:`VanillaServer`, :class:`CompresschainServer`,
  :class:`HashchainServer` — and the Byzantine behaviours any of them can
  adopt mid-run (:meth:`BaseSetchainServer.become_byzantine`),
* the light-client workflow (:class:`SetchainClient`, f+1 epoch-proof rule),
* the Property 1-8 checkers (``check_all`` runs all but Property 2),
* :func:`build_deployment` to assemble a full cluster (run it through
  :class:`repro.api.Session`).
"""

from .types import EpochProof, HashBatch, SetchainView, epoch_proof_payload, hash_batch_payload
from .collector import Collector
from .batch_store import BatchRecord, BatchStore
from .proofs import create_epoch_proof, verify_epoch_proof
from .validation import valid_hash_batch, batch_matches_hash
from .base import BaseSetchainServer
from .vanilla import VanillaServer
from .compresschain import CompresschainServer
from .hashchain import HashchainServer
from .byzantine import (
    BEHAVIOURS,
    ByzantineBehaviour,
    EquivocateBehaviour,
    InvalidElementBehaviour,
    SilentBehaviour,
    WithholdBehaviour,
    WrongHashBehaviour,
    make_invalid_element,
)
from .client import SetchainClient, CommitCheck
from .properties import check_all
from .deployment import Deployment, build_deployment

__all__ = [
    "EpochProof",
    "HashBatch",
    "SetchainView",
    "epoch_proof_payload",
    "hash_batch_payload",
    "Collector",
    "BatchRecord",
    "BatchStore",
    "create_epoch_proof",
    "verify_epoch_proof",
    "valid_hash_batch",
    "batch_matches_hash",
    "BaseSetchainServer",
    "VanillaServer",
    "CompresschainServer",
    "HashchainServer",
    "BEHAVIOURS",
    "ByzantineBehaviour",
    "EquivocateBehaviour",
    "InvalidElementBehaviour",
    "SilentBehaviour",
    "WithholdBehaviour",
    "WrongHashBehaviour",
    "make_invalid_element",
    "SetchainClient",
    "CommitCheck",
    "check_all",
    "Deployment",
    "build_deployment",
]
