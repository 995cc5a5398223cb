"""Byzantine behaviours as swappable *strategies* on live servers.

The system model allows up to ``f < n/2`` Byzantine Setchain servers.  Until
PR 5 the five misbehaviours lived in fixed-at-construction server
*subclasses*, so a server was either Byzantine for its whole life or never —
chaos timelines could not mix crash and Byzantine nemeses.  They are now
:class:`ByzantineBehaviour` strategy objects that any
:class:`~repro.core.base.BaseSetchainServer` can adopt and shed **mid-run**
(``server.become_byzantine("withhold")`` / ``server.become_correct()``),
which is what the ``become-byzantine`` / ``become-correct`` fault kinds in
:mod:`repro.faults.events` drive from deterministic schedules.

The five behaviours, resolved by name through :data:`BEHAVIOURS`:

=================== ==========================================================
``withhold``        sign and append hash-batches but never answer
                    ``Request_batch`` (the attack the f+1 consolidation rule
                    neutralises); withheld requests are buffered and served
                    when the server becomes correct again
``wrong-hash``      append hash-batches whose hash matches no batch the
                    server is willing to serve
``invalid-element`` append syntactically invalid elements straight to the
                    ledger alongside normal behaviour
``equivocate``      sign epoch-proofs over garbage hashes instead of the real
                    epoch content
``silent``          accept adds but never forward anything to the ledger, and
                    never contribute epoch-proofs
=================== ==========================================================

Behaviours degrade gracefully across algorithms: a hook that a server never
reaches (``Request_batch`` service on a Vanilla server, say) simply never
fires, so one behaviour name works for any algorithm group and schedules do
not need to know which algorithm a random target runs.

A server that is Byzantine from the start is a plain server that adopts a
behaviour before it runs: ``server.become_byzantine(WithholdBehaviour())``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar

from ..config import EPOCH_PROOF_SIZE, HASH_BATCH_SIZE
from ..crypto.hashing import hash_batch
from ..errors import check_name
from ..workload.elements import Element, make_element
from .hashchain import HashchainServer
from .types import EpochProof, HashBatch, epoch_proof_payload, hash_batch_payload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..ledger.types import Block
    from ..net.message import Message
    from .base import BaseSetchainServer


def make_invalid_element(client: str = "byzantine-client", size_bytes: int = 400,
                         created_at: float = 0.0) -> Element:
    """An element every correct server's ``add`` refuses (the pseudocode's
    ``valid_element`` fails: a bad client signature)."""
    return make_element(client=client, size_bytes=size_bytes,
                        created_at=created_at, valid=False)


class ByzantineBehaviour:
    """One misbehaviour strategy, attached to a live server.

    Hooks return ``True`` when the behaviour handled the event (suppressing
    the correct code path) and ``False`` to fall through to it; a behaviour
    instance is private to one server, so hooks may keep per-server state
    (e.g. the withheld-request buffer).  :meth:`outgoing_proof` may replace
    or suppress (``None``) an epoch-proof the server is about to publish.
    """

    #: The behaviour's key in :data:`BEHAVIOURS`.
    name: ClassVar[str] = "?"

    def on_attach(self, server: "BaseSetchainServer") -> None:
        """Called when the server adopts this behaviour."""

    def on_detach(self, server: "BaseSetchainServer") -> None:
        """Called when the server becomes correct (or switches behaviour)."""

    def on_after_add(self, server: "BaseSetchainServer",
                     element: Element) -> bool:
        """Intercept the post-``add`` path (append/collect)."""
        return False

    def on_block_end(self, server: "BaseSetchainServer", block: "Block") -> bool:
        """Intercept the end-of-block handler (epoch creation in Vanilla)."""
        return False

    def on_request_batch(self, server: "BaseSetchainServer",
                         message: "Message") -> bool:
        """Intercept the Hashchain ``Request_batch`` service."""
        return False

    def on_flush_batch(self, server: "BaseSetchainServer",
                       batch: tuple[object, ...]) -> bool:
        """Intercept a collector flush (hash-batch / compressed append)."""
        return False

    def outgoing_proof(self, server: "BaseSetchainServer",
                       proof: EpochProof) -> EpochProof | None:
        """Transform (or suppress, via ``None``) an outgoing epoch-proof."""
        return proof


def resolve_behaviour(behaviour: "str | ByzantineBehaviour") -> ByzantineBehaviour:
    """Accept a behaviour instance or a name (fresh instance)."""
    if isinstance(behaviour, ByzantineBehaviour):
        return behaviour
    return check_name("Byzantine behaviour", behaviour, BEHAVIOURS)()


# -- the five behaviours --------------------------------------------------------


class WithholdBehaviour(ByzantineBehaviour):
    """Append hash-batches normally but refuse to serve their contents.

    Withheld ``Request_batch`` messages are buffered; when the server becomes
    correct again they are answered from the (durable) batch store, so
    consolidation of the withheld hashes resumes and converges.
    """

    name: ClassVar[str] = "withhold"

    def __init__(self) -> None:
        self.withheld: list["Message"] = []

    def on_request_batch(self, server: "BaseSetchainServer",
                         message: "Message") -> bool:
        self.withheld.append(message)
        server._count_byzantine("withheld_requests")
        return True

    def on_detach(self, server: "BaseSetchainServer") -> None:
        pending, self.withheld = self.withheld, []
        serve = getattr(server, "_on_request_batch", None)
        if serve is None:  # pragma: no cover - withhold on a non-hashchain server
            return
        if server.crashed:
            # A crashed server cannot send; park the buffer on the server so
            # recovery replays it (the behaviour object is detached by then).
            server._deferred_request_replays.extend(pending)
            return
        for message in pending:
            serve(message)


class WrongHashBehaviour(ByzantineBehaviour):
    """Append hash-batches whose hash corresponds to no real batch.

    On a server without a hash-batch flush path the batch simply vanishes
    (equivalent to ``silent`` for that flush).
    """

    name: ClassVar[str] = "wrong-hash"

    def on_flush_batch(self, server: "BaseSetchainServer",
                       batch: tuple[object, ...]) -> bool:
        if not isinstance(server, HashchainServer):
            server._count_byzantine("suppressed_flushes")
            return True
        bogus_hash = hash_batch([f"bogus-{server.sim.now}-{len(batch)}"])
        signature = server.scheme.sign(server.keypair,
                                       hash_batch_payload(bogus_hash))
        hb = HashBatch(batch_hash=bogus_hash, signature=signature,
                       signer=server.name)
        server._signed_hashes.add(bogus_hash)
        server._append_to_ledger(hb, HASH_BATCH_SIZE)
        server._count_byzantine("bogus_hash_batches")
        return True

    def on_request_batch(self, server: "BaseSetchainServer",
                         message: "Message") -> bool:
        # It cannot serve a batch it never built; reply with nothing useful.
        server.send(message.sender, "batch_response", (message.payload, None),
                    size_bytes=64)
        server._count_byzantine("useless_batch_replies")
        return True


class InvalidElementBehaviour(ByzantineBehaviour):
    """Flood the ledger with invalid elements alongside normal behaviour."""

    name: ClassVar[str] = "invalid-element"

    def __init__(self, invalid_per_add: int = 1) -> None:
        self.invalid_per_add = invalid_per_add

    def on_after_add(self, server: "BaseSetchainServer",
                     element: Element) -> bool:
        server._after_add(element)  # normal behaviour first, then the junk
        for _ in range(self.invalid_per_add):
            junk = make_invalid_element(created_at=server.sim.now)
            server._append_to_ledger(junk, junk.size_bytes)
            server._count_byzantine("invalid_elements_appended")
        return True


class EquivocateBehaviour(ByzantineBehaviour):
    """Sign epoch-proofs over a hash unrelated to the real epoch content."""

    name: ClassVar[str] = "equivocate"

    def outgoing_proof(self, server: "BaseSetchainServer",
                       proof: EpochProof) -> EpochProof | None:
        bogus_hash = "0" * len(proof.epoch_hash)
        server._count_byzantine("equivocating_proofs")
        return EpochProof(
            epoch_number=proof.epoch_number,
            epoch_hash=bogus_hash,
            signature=server.scheme.sign(
                server.keypair,
                epoch_proof_payload(proof.epoch_number, bogus_hash)),
            signer=server.name,
        )


class SilentBehaviour(ByzantineBehaviour):
    """Accept adds but never forward anything to the ledger."""

    name: ClassVar[str] = "silent"

    def on_after_add(self, server: "BaseSetchainServer",
                     element: Element) -> bool:
        # Drop the element: it stays in this server's the_set but never
        # reaches the ledger through this server.
        server._count_byzantine("suppressed_elements")
        return True

    def on_block_end(self, server: "BaseSetchainServer", block: "Block") -> bool:
        # Never create epochs or contribute epoch-proofs from block ends.
        if hasattr(server, "_block_elements"):
            server._block_elements = {}
        return True

    def outgoing_proof(self, server: "BaseSetchainServer",
                       proof: EpochProof) -> EpochProof | None:
        server._count_byzantine("suppressed_proofs")
        return None


#: Every behaviour, ``name -> class``: what ``BecomeByzantine(behaviour=...)``
#: and ``server.become_byzantine(name)`` resolve a name through.
BEHAVIOURS: dict[str, type[ByzantineBehaviour]] = {cls.name: cls for cls in (
    WithholdBehaviour, WrongHashBehaviour, InvalidElementBehaviour,
    EquivocateBehaviour, SilentBehaviour)}
