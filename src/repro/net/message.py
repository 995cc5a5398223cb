"""Network message envelope."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

_msg_counter = itertools.count()


@dataclass(frozen=True, slots=True)
class Message:
    """An addressed, typed message.

    Attributes
    ----------
    sender / recipient:
        Process identifiers (node names registered on the :class:`~repro.net.network.Network`).
    msg_type:
        Protocol-level discriminator, e.g. ``"proposal"``, ``"vote"``,
        ``"request_batch"``.  Nodes dispatch on this string.
    payload:
        Arbitrary message body.  The simulation passes Python objects by
        reference; size accounting uses :attr:`size_bytes` instead of
        serialisation.
    size_bytes:
        Modelled wire size, used for bandwidth accounting and block packing.
    msg_id:
        Unique id assigned at construction, useful for deduplication and logs.
    """

    sender: str
    recipient: str
    msg_type: str
    payload: Any
    size_bytes: int = 0
    msg_id: int = field(default_factory=lambda: next(_msg_counter))
