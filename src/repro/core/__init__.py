"""Setchain core: the paper's contribution.

Public surface:

* the three algorithms — :class:`VanillaServer`, :class:`CompresschainServer`,
  :class:`HashchainServer` — and the Byzantine behaviours any of them can
  adopt mid-run (:meth:`BaseSetchainServer.become_byzantine`),
* the light-client workflow (:class:`SetchainClient`, f+1 epoch-proof rule),
* the Property 1-8 checkers,
* :func:`build_deployment` to assemble a full cluster (run it through
  :class:`repro.api.Session`).
"""

from .types import EpochProof, HashBatch, SetchainView, epoch_proof_payload, hash_batch_payload
from .collector import Collector
from .batch_store import BatchRecord, BatchStore
from .proofs import (
    create_epoch_proof,
    verify_epoch_proof,
    epoch_is_committed,
    committed_epochs,
    distinct_signers,
)
from .validation import (
    valid_element,
    valid_proof,
    valid_hash_batch,
    batch_matches_hash,
)
from .base import BaseSetchainServer
from .vanilla import VanillaServer
from .compresschain import CompresschainServer
from .hashchain import HashchainServer
from .byzantine import (
    ByzantineBehaviour,
    EquivocateBehaviour,
    InvalidElementBehaviour,
    SilentBehaviour,
    WithholdBehaviour,
    WrongHashBehaviour,
    behaviour_names,
    get_behaviour,
    has_behaviour,
    make_invalid_element,
    register_behaviour,
    unregister_behaviour,
)
from .client import SetchainClient, CommitCheck
from .properties import check_all
from .execution import AccountState, EpochExecutor, ExecutionResult, Transfer
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
    "epoch_is_committed",
    "committed_epochs",
    "distinct_signers",
    "valid_element",
    "valid_proof",
    "valid_hash_batch",
    "batch_matches_hash",
    "BaseSetchainServer",
    "VanillaServer",
    "CompresschainServer",
    "HashchainServer",
    "ByzantineBehaviour",
    "EquivocateBehaviour",
    "InvalidElementBehaviour",
    "SilentBehaviour",
    "WithholdBehaviour",
    "WrongHashBehaviour",
    "behaviour_names",
    "get_behaviour",
    "has_behaviour",
    "make_invalid_element",
    "register_behaviour",
    "unregister_behaviour",
    "SetchainClient",
    "CommitCheck",
    "check_all",
    "AccountState",
    "EpochExecutor",
    "ExecutionResult",
    "Transfer",
    "Deployment",
    "build_deployment",
]
