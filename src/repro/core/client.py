"""The light client workflow (paper §2, "Setchain Epoch-proofs").

A client adds an element through a *single* server (``Session.inject``,
through ``Deployment.admit`` like every other element) and later gets the
Setchain state from a (possibly different) single server.  It trusts an epoch
— and therefore the inclusion of its element — once the returned ``proofs``
set contains at least ``f + 1`` valid epoch-proofs for that epoch from
distinct signers, because at least one of those signers must be correct.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto.signatures import SignatureScheme
from ..errors import SetchainError
from ..workload.elements import Element
from .base import BaseSetchainServer
from .proofs import verify_epoch_proof
from .types import SetchainView


@dataclass(frozen=True)
class CommitCheck:
    """Result of a client-side commit verification."""

    element: Element
    epoch: int | None
    valid_proofs: int
    quorum: int

    @property
    def committed(self) -> bool:
        """True when the element sits in an epoch backed by >= f+1 valid proofs."""
        return self.epoch is not None and self.valid_proofs >= self.quorum


class SetchainClient:
    """A client that talks to one server at a time."""

    def __init__(self, name: str, scheme: SignatureScheme, quorum: int) -> None:
        if quorum < 1:
            raise SetchainError("quorum must be at least 1 (f + 1)")
        self.name = name
        self.scheme = scheme
        self.quorum = quorum

    # -- operations ----------------------------------------------------------------

    def get(self, server: BaseSetchainServer) -> SetchainView:
        """``S.get_w()`` against a single server ``w``."""
        return server.get()

    # -- verification ---------------------------------------------------------------

    def count_valid_proofs(self, view: SetchainView, epoch_number: int) -> int:
        """Valid, distinct-signer epoch-proofs the view holds for ``epoch_number``."""
        elements = view.history.get(epoch_number)
        if elements is None:
            return 0
        signers: set[str] = set()
        for proof in view.proofs_for(epoch_number):
            if proof.signer in signers:
                continue
            if verify_epoch_proof(self.scheme, proof, elements):
                signers.add(proof.signer)
        return len(signers)

    def check_commit(self, view: SetchainView, element: Element) -> CommitCheck:
        """Has ``element`` been committed according to this (single-server) view?"""
        epoch_number = view.epoch_of(element)
        if epoch_number is None:
            return CommitCheck(element=element, epoch=None, valid_proofs=0,
                               quorum=self.quorum)
        valid = self.count_valid_proofs(view, epoch_number)
        return CommitCheck(element=element, epoch=epoch_number, valid_proofs=valid,
                           quorum=self.quorum)

    def wait_for_commit(self, sim, server: BaseSetchainServer, element: Element,
                        poll_interval: float = 0.5,
                        max_time: float = 300.0) -> CommitCheck:  # type: ignore[no-untyped-def]
        """Drive the simulation until the element commits (or the deadline passes).

        This is the simulation-side equivalent of a client polling ``get``
        every ``poll_interval`` seconds.
        """
        deadline = sim.now + max_time

        def committed() -> bool:
            return self.check_commit(self.get(server), element).committed

        sim.run_until_condition(committed, check_interval=poll_interval, max_time=deadline)
        return self.check_commit(self.get(server), element)
