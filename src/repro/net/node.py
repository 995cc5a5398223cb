"""Base class for processes attached to the simulated network."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from ..errors import NetworkError
from ..sim.scheduler import Simulator
from .message import Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .network import Network

Handler = Callable[[Message], None]


class NetworkNode:
    """A named process that can send and receive :class:`Message` objects.

    Subclasses register per-``msg_type`` handlers with :meth:`on`; unknown
    message types raise, so protocol typos fail loudly in tests.
    """

    def __init__(self, name: str, sim: Simulator) -> None:
        if not name:
            raise NetworkError("node name must be non-empty")
        self.name = name
        self.sim = sim
        self._network: "Network | None" = None
        self._handlers: dict[str, Handler] = {}
        #: Crash-fault state: a crashed node neither sends nor receives (the
        #: network counts traffic to it as dropped).  Plain attribute, not a
        #: property — it is read on the per-message delivery hot path.
        self.crashed = False
        #: Counters for observability / tests.
        self.messages_sent = 0
        self.messages_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    # -- wiring ---------------------------------------------------------------

    def attach(self, network: "Network") -> None:
        """Called by :meth:`Network.register`; binds the node to its network."""
        self._network = network

    @property
    def network(self) -> "Network":
        if self._network is None:
            raise NetworkError(f"node {self.name!r} is not attached to a network")
        return self._network

    def on(self, msg_type: str, handler: Handler) -> None:
        """Register the handler invoked for messages of ``msg_type``."""
        self._handlers[msg_type] = handler

    # -- crash faults ----------------------------------------------------------

    def crash(self) -> None:
        """Crash-fault the node: it stops sending and receiving entirely.

        Subclasses release volatile state in :meth:`_on_crash` (cancel timers,
        drop in-memory buffers); durable state — anything a real process keeps
        on disk — survives for :meth:`recover`.  Idempotent.
        """
        if self.crashed:
            return
        self.crashed = True
        self._on_crash()

    def recover(self) -> None:
        """Bring a crashed node back; :meth:`_on_recover` re-synchronises state.

        Idempotent; a no-op on a node that is up.
        """
        if not self.crashed:
            return
        self.crashed = False
        self._on_recover()

    def _on_crash(self) -> None:
        """Hook: release volatile state when the node crashes (default: none)."""

    def _on_recover(self) -> None:
        """Hook: replay/re-synchronise state on recovery (default: none)."""

    # -- sending --------------------------------------------------------------

    def send(self, recipient: str, msg_type: str, payload: Any,
             size_bytes: int = 0) -> None:
        """Send a point-to-point message (silently dropped while crashed)."""
        if self.crashed:
            return
        message = Message(sender=self.name, recipient=recipient,
                          msg_type=msg_type, payload=payload, size_bytes=size_bytes)
        self.messages_sent += 1
        self.bytes_sent += size_bytes
        self.network.transmit(message)

    # -- receiving ------------------------------------------------------------

    def deliver(self, message: Message) -> None:
        """Entry point used by the network when a message arrives."""
        if self.crashed:  # defence in depth; the network already drops these
            return
        self.messages_received += 1
        self.bytes_received += message.size_bytes
        handler = self._handlers.get(message.msg_type)
        if handler is None:
            raise NetworkError(
                f"node {self.name!r} has no handler for message type {message.msg_type!r}"
            )
        handler(message)
