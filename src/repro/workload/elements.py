"""Setchain elements.

An element is the client-created unit stored by the Setchain (paper §2): it is
signed by its creating client, can be validated by servers for syntactic and
semantic correctness, and — by assumption — cannot be forged by a server.
"""

from __future__ import annotations

import itertools

from ..errors import InvalidElementError
from ..values import SlotValue

_element_counter = itertools.count()


def element_signing_payload(element_id: int, client: str, size_bytes: int,
                            body_digest: str) -> str:
    """Canonical string a client signs when creating an element."""
    return f"element|{element_id}|{client}|{size_bytes}|{body_digest}"


class Element(SlotValue):
    """A client-created Setchain element.

    Immutable by contract: a field is never assigned after construction
    (``tests/test_value_types.py`` scans ``src/`` for it), which is what lets
    the canonical encoding and the hash be computed once, here.

    Attributes
    ----------
    element_id:
        Unique identifier (stands in for the transaction hash of the Arbitrum
        trace element).
    client:
        Identifier of the creating client.
    size_bytes:
        Modelled wire size of the element (dominates all throughput results);
        the constructor is the one place that refuses a non-positive size.
    body_digest:
        Digest of the element body; the simulation does not carry the raw
        payload bytes around, only their digest and size.
    signature:
        Client signature over :func:`element_signing_payload`.  Empty for
        deliberately invalid elements injected by fault tests.
    created_at:
        Simulated creation time (latency stage 0).
    valid:
        Syntactic/semantic validity flag checked by ``valid_element``.
        Byzantine clients and servers may circulate elements with
        ``valid=False``; correct servers discard them.
    """

    #: The fields equality, ``hash()`` and ``repr`` cover, in this order.
    _fields = ("element_id", "client", "size_bytes", "body_digest",
               "signature", "created_at", "valid")
    __slots__ = _fields + ("_canonical", "_hash")

    def __init__(self, element_id: int, client: str, size_bytes: int,
                 body_digest: str, signature: bytes = b"",
                 created_at: float = 0.0, valid: bool = True) -> None:
        if size_bytes <= 0:
            raise InvalidElementError("element size must be positive")
        self.element_id = element_id
        self.client = client
        self.size_bytes = size_bytes
        self.body_digest = body_digest
        self.signature = signature
        self.created_at = created_at
        self.valid = valid
        #: Canonical encoding — every batch/epoch hash re-reads it.
        self._canonical = element_signing_payload(
            element_id, client, size_bytes, body_digest).encode()
        #: The tuple a frozen dataclass hashes (``_fields``, in order), so set
        #: iteration orders — and every artifact byte — are what they were.
        self._hash = hash((element_id, client, size_bytes, body_digest,
                           signature, created_at, valid))

    def __hash__(self) -> int:
        return self._hash

    def canonical_bytes(self) -> bytes:
        """Stable encoding used for batch/epoch hashing (cached)."""
        return self._canonical

    @property
    def is_element(self) -> bool:
        """Type tag used when unpacking mixed batches (elements + epoch-proofs)."""
        return True


def make_element(client: str, size_bytes: int, body_digest: str = "",
                 created_at: float = 0.0, valid: bool = True,
                 signature: bytes = b"") -> Element:
    """Create a fresh element with a globally unique id."""
    element_id = next(_element_counter)
    return Element(element_id=element_id, client=client, size_bytes=size_bytes,
                   body_digest=body_digest or f"digest-{element_id}",
                   signature=signature, created_at=created_at, valid=valid)


def make_elements(client: str, sizes: list[int],
                  created_at: float = 0.0) -> list[Element]:
    """Create one valid element per size — ids identical to ``make_element``
    called once per size, with the constructor lookups hoisted."""
    counter = _element_counter
    make = Element
    return [make(eid := next(counter), client, size, f"digest-{eid}", b"",
                 created_at)
            for size in sizes]
