"""The simulated network: reliable delivery with modelled latency.

What becomes of a message is decided when it is sent, in one place,
:meth:`Network.fate`: lost (retired recipient, partition, drop rule) or the
delay of each copy that arrives (latency draw, delay and duplicate rules).
:meth:`Network.transmit` and :meth:`Network.multicast` schedule one simulator
event per copy — votes, proposals, block-sync, ``Request_batch`` traffic.  A
sender whose messages only ever enter one structure at the recipient
(CometBFT mempool gossip) asks :meth:`Network.fate` itself and files the
copies there: same recipients, same draws, same counters, no event.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..errors import NetworkError
from ..sim.scheduler import Simulator
from .latency import ConstantLatency, LatencyModel
from .message import Message
from .node import NetworkNode

#: A fault-injection filter: returns True if the message should be dropped.
DropRule = Callable[[Message], bool]

#: A fault-injection filter: returns True if the message should be duplicated.
DuplicateRule = Callable[[Message], bool]

#: A fault-injection delay: extra seconds to add to the message's latency.
DelayRule = Callable[[Message], float]


class Network:
    """Connects :class:`NetworkNode` instances through the simulator.

    Delivery is reliable and exactly-once for correct processes (the system
    model's assumption).  Fault-injection hooks — :meth:`partition` /
    :meth:`heal`, drop, duplicate, and delay rules — model faulty processes
    and behaviour outside the model's guarantees; they are driven
    declaratively by :mod:`repro.faults` and remain usable directly in tests.
    """

    def __init__(self, sim: Simulator, latency: LatencyModel | None = None) -> None:
        self.sim = sim
        self.latency = latency if latency is not None else ConstantLatency()
        self._nodes: dict[str, NetworkNode] = {}
        self._drop_rules: list[DropRule] = []
        self._duplicate_rules: list[DuplicateRule] = []
        self._delay_rules: list[DelayRule] = []
        self._partitions: list[tuple[frozenset[str], frozenset[str]]] = []
        #: Normalised keys of installed partitions (idempotence + targeted heal).
        self._partition_keys: set[frozenset[frozenset[str]]] = set()
        #: True while any fault hook is installed; :meth:`fate` takes its
        #: slow path on this single flag, so the fault-free hot path builds
        #: no envelope and walks no rule list.
        self._faulty = False
        #: Sorted node names, rebuilt on registration (broadcast hot path).
        self._sorted_names: tuple[str, ...] = ()
        #: Names of nodes that retired; sends to them drop instead of erroring.
        self._departed: set[str] = set()
        #: Totals for observability.
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.messages_duplicated = 0
        self.bytes_delivered = 0
        self._rng = sim.rng.derive("network")
        #: Storm grouping key for delivery events: all deliveries of this
        #: network share one handler (:meth:`_deliver_batch`), so same-instant
        #: deliveries — a multicast under constant latency — collapse into a
        #: single batched dispatch.  Delivery events are never cancelled,
        #: which the storm contract requires.
        self._storm_key = object()

    # -- membership -----------------------------------------------------------

    def register(self, node: NetworkNode) -> None:
        """Add a node; names must be unique."""
        if node.name in self._nodes:
            raise NetworkError(f"a node named {node.name!r} is already registered")
        self._nodes[node.name] = node
        self._sorted_names = tuple(sorted(self._nodes))
        node.attach(self)

    def unregister(self, name: str) -> None:
        """Remove a retired node; in-flight messages to it are dropped.

        Delivery already treats an unknown recipient as a drop (the node is
        gone), so messages still in transit when a node retires simply count
        toward ``messages_dropped``.
        """
        if name not in self._nodes:
            raise NetworkError(f"unknown node {name!r}")
        del self._nodes[name]
        self._departed.add(name)
        self._sorted_names = tuple(sorted(self._nodes))

    def node_names(self) -> list[str]:
        """Registered node names in sorted (deterministic) order."""
        return list(self._sorted_names)

    def node(self, name: str) -> NetworkNode:
        try:
            return self._nodes[name]
        except KeyError:
            raise NetworkError(f"unknown node {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    # -- fault injection -------------------------------------------------------

    def _refresh_faulty(self) -> None:
        self._faulty = bool(self._partitions or self._drop_rules
                            or self._duplicate_rules or self._delay_rules)

    def add_drop_rule(self, rule: DropRule) -> None:
        """Drop every message for which ``rule(message)`` is true."""
        self._drop_rules.append(rule)
        self._refresh_faulty()

    def remove_drop_rule(self, rule: DropRule) -> None:
        """Uninstall a drop rule (no-op if it is not installed)."""
        if rule in self._drop_rules:
            self._drop_rules.remove(rule)
        self._refresh_faulty()

    def clear_drop_rules(self) -> None:
        self._drop_rules.clear()
        self._refresh_faulty()

    def add_duplicate_rule(self, rule: DuplicateRule) -> None:
        """Deliver a second copy of every message for which ``rule`` is true."""
        self._duplicate_rules.append(rule)
        self._refresh_faulty()

    def remove_duplicate_rule(self, rule: DuplicateRule) -> None:
        if rule in self._duplicate_rules:
            self._duplicate_rules.remove(rule)
        self._refresh_faulty()

    def add_delay_rule(self, rule: DelayRule) -> None:
        """Add ``rule(message)`` extra seconds to matching messages' latency."""
        self._delay_rules.append(rule)
        self._refresh_faulty()

    def remove_delay_rule(self, rule: DelayRule) -> None:
        if rule in self._delay_rules:
            self._delay_rules.remove(rule)
        self._refresh_faulty()

    @staticmethod
    def _partition_key(group_a: set[str] | frozenset[str],
                       group_b: set[str] | frozenset[str]) -> frozenset[frozenset[str]]:
        return frozenset((frozenset(group_a), frozenset(group_b)))

    def partition(self, group_a: set[str], group_b: set[str]) -> None:
        """Silently drop all traffic between the two groups until :meth:`heal`.

        Idempotent: installing the same cut twice (in either group order) is a
        no-op, so a duplicated ``partition()`` never needs two heals and never
        skews the drop accounting.
        """
        key = self._partition_key(group_a, group_b)
        if key in self._partition_keys:
            return
        self._partition_keys.add(key)
        self._partitions.append((frozenset(group_a), frozenset(group_b)))
        self._refresh_faulty()

    def heal(self, group_a: set[str] | None = None,
             group_b: set[str] | None = None) -> None:
        """Remove partitions: all of them, or exactly one cut.

        With no arguments every partition is removed (the historical
        behaviour).  With both groups, only the matching cut — in either group
        order — is removed, leaving other partitions installed; healing a cut
        that is not installed is a no-op.
        """
        if group_a is None and group_b is None:
            self._partitions.clear()
            self._partition_keys.clear()
        elif group_a is None or group_b is None:
            raise NetworkError("heal() takes both groups or neither")
        else:
            key = self._partition_key(group_a, group_b)
            if key in self._partition_keys:
                self._partition_keys.discard(key)
                self._partitions = [pair for pair in self._partitions
                                    if self._partition_key(*pair) != key]
        self._refresh_faulty()

    def _crosses_partition(self, message: Message) -> bool:
        for group_a, group_b in self._partitions:
            if ((message.sender in group_a and message.recipient in group_b)
                    or (message.sender in group_b and message.recipient in group_a)):
                return True
        return False

    # -- transmission ----------------------------------------------------------

    def fate(self, sender: str, recipient: str, msg_type: str, payload: object,
             size_bytes: int, message: Message | None = None) -> Sequence[float]:
        """Decide, at send time, what becomes of one message: the one-way
        delay of every copy that will arrive — none when it is lost (counted
        here), two or more when a duplicate rule fires.  Rules judge an
        envelope: pass the one in hand, or one is made when a rule needs it.

        Unknown recipients are an error (a correct process never addresses a
        process outside the deployment) — except names that *used to be*
        members: a peer may still hold a retired node's address (e.g. a
        Request_batch retry rotating over historical signers), and those
        messages are simply lost, like mail to a decommissioned host.
        """
        if recipient not in self._nodes:
            if recipient in self._departed:
                self.messages_dropped += 1
                return ()
            raise NetworkError(
                f"{sender!r} sent {msg_type!r} to unknown node {recipient!r}")
        # Local self-delivery has no network latency but is still async so
        # handlers never re-enter each other.
        local = sender == recipient
        if not self._faulty:
            return (0.0 if local else self.latency.delay(
                self._rng, sender, recipient, size_bytes),)
        if message is None:
            message = Message(sender=sender, recipient=recipient,
                              msg_type=msg_type, payload=payload,
                              size_bytes=size_bytes)
        if ((self._partitions and self._crosses_partition(message))
                or (self._drop_rules
                    and any(rule(message) for rule in self._drop_rules))):
            self.messages_dropped += 1
            return ()
        extra = 0.0
        for delay_rule in self._delay_rules:
            extra += delay_rule(message)
        if local and extra <= 0.0:
            delays = [0.0]
        else:
            delays = [(0.0 if local else self.latency.delay(
                self._rng, sender, recipient, size_bytes)) + extra]
        for duplicate_rule in self._duplicate_rules:
            if duplicate_rule(message):
                # The duplicate copy draws its own latency (and delay-rule
                # extras), modelling an independent second network path.
                self.messages_duplicated += 1
                dup_base = 0.0 if local else self.latency.delay(
                    self._rng, sender, recipient, size_bytes)
                dup_extra = 0.0
                for delay_rule in self._delay_rules:
                    dup_extra += delay_rule(message)
                delays.append(dup_base + dup_extra)
        return delays

    def transmit(self, message: Message) -> None:
        """Schedule delivery of ``message`` after a modelled latency."""
        for delay in self.fate(message.sender, message.recipient,
                               message.msg_type, message.payload,
                               message.size_bytes, message):
            self.sim.call_in_storm(delay, self._deliver_batch, message,
                                   self._storm_key)

    def multicast(self, sender: str, msg_type: str, payload: object,
                  size_bytes: int = 0,
                  recipients: list[str] | tuple[str, ...] | None = None) -> int:
        """Fan one payload out to many recipients (the broadcast fast path).

        Every per-recipient envelope shares the *same* payload object — the
        payload (and its modelled size) is computed once by the caller, never
        re-serialised per recipient.  ``recipients`` defaults to every
        registered node except the sender, in sorted order.  Returns the
        number of messages transmitted.
        """
        if recipients is None:
            recipients = [name for name in self._sorted_names if name != sender]
        for recipient in recipients:
            self.transmit(Message(sender=sender, recipient=recipient,
                                  msg_type=msg_type, payload=payload,
                                  size_bytes=size_bytes))
        return len(recipients)

    def _deliver_batch(self, messages: list[Message]) -> None:
        """Deliver a storm run of same-instant messages, strictly in order.

        Per-message behaviour — crash checks, drop accounting, handler
        invocation — is that of one dispatch per message; only the
        event-loop dispatch is shared.  Recipient state is re-read
        for every message, so a handler early in the run crashing (or
        retiring) a node affects later deliveries just as it would have
        under scalar dispatch.
        """
        nodes = self._nodes
        for message in messages:
            node = nodes.get(message.recipient)
            if node is None or node.crashed:
                self.messages_dropped += 1
                continue
            self.messages_delivered += 1
            self.bytes_delivered += message.size_bytes
            node.deliver(message)
