"""Tests for the network substrate: latency models, nodes, delivery, faults."""

import pytest

from repro.errors import ConfigurationError, NetworkError
from repro.net.latency import (ConstantLatency, RegionalLatency, UniformLatency,
                               lan_profile, wan_profile)
from repro.net.message import Message
from repro.net.network import Network
from repro.net.node import NetworkNode
from repro.sim.rng import DeterministicRNG
from repro.sim.scheduler import Simulator


class Recorder(NetworkNode):
    """Test node that records received payloads and delivery times."""

    def __init__(self, name, sim):
        super().__init__(name, sim)
        self.received = []
        self.on("ping", self._on_ping)
        self.on("data", self._on_ping)

    def _on_ping(self, message: Message) -> None:
        self.received.append((self.sim.now, message.sender, message.payload))


@pytest.fixture
def pair(sim):
    network = Network(sim, latency=ConstantLatency(base=0.010))
    a, b = Recorder("a", sim), Recorder("b", sim)
    network.register(a)
    network.register(b)
    return network, a, b


# -- latency models ---------------------------------------------------------------

def test_constant_latency_includes_per_byte_and_extra():
    model = ConstantLatency(base=0.01, per_byte=0.001, extra_delay=0.1)
    delay = model.delay(DeterministicRNG(0), "a", "b", size_bytes=5)
    assert delay == pytest.approx(0.01 + 0.005 + 0.1)


def test_uniform_latency_within_bounds():
    model = UniformLatency(low=0.01, high=0.02)
    rng = DeterministicRNG(1)
    for _ in range(200):
        assert 0.01 <= model.delay(rng, "a", "b", 0) <= 0.02


def test_latency_validation_errors():
    with pytest.raises(ConfigurationError):
        ConstantLatency(base=-0.1)
    with pytest.raises(ConfigurationError):
        UniformLatency(low=0.2, high=0.1)
    with pytest.raises(ConfigurationError):
        ConstantLatency(extra_delay=-1.0)


def _parent_delay(model, rng, sender, recipient, size):
    """``delay`` as the parent commit computed it, in four frames: a base
    draw through ``rng.uniform``, then the extra delay added on top."""
    if isinstance(model, RegionalLatency):
        base = _parent_delay(model.intra, rng, sender, recipient, size)
        regions = {model.region_of.get(sender), model.region_of.get(recipient)}
        if None not in regions and len(regions) == 2:
            cross = model.pair_delay(*regions)
            if model.inter_jitter > 0:
                cross += rng.uniform(0.0, model.inter_jitter)
            base = base + cross
    elif isinstance(model, UniformLatency):
        base = rng.uniform(model.low, model.high) + model.per_byte * size
    else:
        base = model.base + model.per_byte * size
    return base + model.extra_delay


@pytest.mark.parametrize("model", [
    lan_profile(), wan_profile(network_delay=0.05),
    UniformLatency(low=0.0, high=0.0, per_byte=1e-9, extra_delay=0.003),
    ConstantLatency(base=0.001, per_byte=8e-9, extra_delay=0.02),
    ConstantLatency(base=0.0),
    RegionalLatency({"a": "us", "b": "eu", "c": "us"}, lan_profile(),
                    inter_delay=0.04, inter_jitter=0.005, extra_delay=0.01)])
def test_single_frame_delay_is_the_parents_bit_for_bit(model):
    """Every model computes ``delay`` in one frame now; over 10 000 draws it
    equals the parent's base-draw-plus-extra exactly and leaves the stream
    where the parent left it."""
    fast, parent = DeterministicRNG(17), DeterministicRNG(17)
    for size in range(10_000):
        recipient = "bc"[size % 2]
        assert (model.delay(fast, "a", recipient, size)
                == _parent_delay(model, parent, "a", recipient, size))
    assert fast.random() == parent.random()


def test_lan_profile_is_submillisecond_and_wan_is_not():
    rng = DeterministicRNG(2)
    lan = lan_profile()
    wan = wan_profile()
    lan_delays = [lan.delay(rng, "a", "b", 100) for _ in range(100)]
    wan_delays = [wan.delay(rng, "a", "b", 100) for _ in range(100)]
    assert max(lan_delays) < 0.005
    assert min(wan_delays) >= 0.030


def test_network_delay_parameter_adds_to_every_message():
    rng = DeterministicRNG(3)
    base = lan_profile()
    delayed = lan_profile(network_delay=0.100)
    assert delayed.delay(rng, "a", "b", 0) >= 0.100
    assert base.extra_delay == 0.0 and delayed.extra_delay == 0.100


# -- node / network behaviour ---------------------------------------------------------

def test_point_to_point_delivery_applies_latency(pair, sim):
    network, a, b = pair
    a.send("b", "ping", "hello", size_bytes=10)
    sim.run_until(1.0)
    assert len(b.received) == 1
    time, sender, payload = b.received[0]
    assert sender == "a" and payload == "hello"
    assert time == pytest.approx(0.010, abs=1e-9)


def test_broadcast_reaches_all_other_nodes(sim):
    network = Network(sim, latency=ConstantLatency(base=0.001))
    nodes = [Recorder(f"n{i}", sim) for i in range(5)]
    for node in nodes:
        network.register(node)
    nodes[0].broadcast("ping", 42)
    sim.run_until(1.0)
    assert all(len(n.received) == 1 for n in nodes[1:])
    assert len(nodes[0].received) == 0


def test_self_send_is_asynchronous_but_immediate(pair, sim):
    network, a, _ = pair
    a.send("a", "ping", "self")
    assert a.received == []  # not delivered synchronously
    sim.run_until(0.0)
    assert a.received == [(0.0, "a", "self")]


def test_unknown_recipient_raises(pair):
    _, a, _ = pair
    with pytest.raises(NetworkError):
        a.send("nobody", "ping", 1)


def test_unhandled_message_type_raises(pair, sim):
    network, a, b = pair
    a.send("b", "mystery", None)
    with pytest.raises(NetworkError):
        sim.run_until(1.0)


def test_duplicate_registration_rejected(sim):
    network = Network(sim)
    node = Recorder("dup", sim)
    network.register(node)
    with pytest.raises(NetworkError):
        network.register(Recorder("dup", sim))


def test_byte_and_message_accounting(pair, sim):
    network, a, b = pair
    a.send("b", "data", b"x" * 10, size_bytes=10)
    a.send("b", "data", b"y" * 20, size_bytes=20)
    sim.run_until(1.0)
    assert a.messages_sent == 2 and a.bytes_sent == 30
    assert b.messages_received == 2 and b.bytes_received == 30
    assert network.messages_delivered == 2 and network.bytes_delivered == 30


def test_drop_rule_drops_matching_messages(pair, sim):
    network, a, b = pair
    network.add_drop_rule(lambda m: m.msg_type == "ping")
    a.send("b", "ping", 1)
    a.send("b", "data", 2)
    sim.run_until(1.0)
    assert [p for _, _, p in b.received] == [2]
    assert network.messages_dropped == 1
    network.clear_drop_rules()
    a.send("b", "ping", 3)
    sim.run_until(2.0)
    assert [p for _, _, p in b.received] == [2, 3]


def test_partition_blocks_and_heal_restores(pair, sim):
    network, a, b = pair
    network.partition({"a"}, {"b"})
    a.send("b", "ping", "blocked")
    sim.run_until(1.0)
    assert b.received == []
    network.heal()
    a.send("b", "ping", "through")
    sim.run_until(2.0)
    assert [p for _, _, p in b.received] == ["through"]


def test_message_reply_addresses_sender():
    message = Message(sender="a", recipient="b", msg_type="req", payload=1)
    reply = message.reply("resp", 2, size_bytes=8)
    assert reply.sender == "b" and reply.recipient == "a"
    assert reply.msg_type == "resp" and reply.size_bytes == 8


def test_message_ids_are_unique():
    ids = {Message("a", "b", "t", None).msg_id for _ in range(100)}
    assert len(ids) == 100


def test_node_names_sorted_and_membership(sim):
    network = Network(sim)
    for name in ["zeta", "alpha", "mid"]:
        network.register(Recorder(name, sim))
    assert network.node_names() == ["alpha", "mid", "zeta"]
    assert "alpha" in network and "nope" not in network
    assert len(network) == 3
    with pytest.raises(NetworkError):
        network.node("nope")


# -- targeted heal / idempotent partitions (fault-injection contract) ------------

def test_partition_is_idempotent_in_either_group_order(pair, sim):
    network, a, b = pair
    network.partition({"a"}, {"b"})
    network.partition({"a"}, {"b"})
    network.partition({"b"}, {"a"})
    assert len(network._partitions) == 1
    a.send("b", "ping", "blocked")
    sim.run_until(1.0)
    assert network.messages_dropped == 1
    # One heal removes the (single) cut completely.
    network.heal({"a"}, {"b"})
    a.send("b", "ping", "through")
    sim.run_until(2.0)
    assert [p for _, _, p in b.received] == ["through"]


def test_targeted_heal_removes_only_the_matching_cut(sim):
    network = Network(sim, latency=ConstantLatency(base=0.001))
    nodes = {name: Recorder(name, sim) for name in ("a", "b", "c")}
    for node in nodes.values():
        network.register(node)
    network.partition({"a"}, {"b"})
    network.partition({"a"}, {"c"})
    network.heal({"b"}, {"a"})  # reversed order matches too
    nodes["a"].send("b", "ping", "to-b")
    nodes["a"].send("c", "ping", "to-c")
    sim.run_until(1.0)
    assert [p for _, _, p in nodes["b"].received] == ["to-b"]
    assert nodes["c"].received == []  # a-c cut still installed
    network.heal()  # no arguments: clear everything
    nodes["a"].send("c", "ping", "now")
    sim.run_until(2.0)
    assert [p for _, _, p in nodes["c"].received] == ["now"]
    with pytest.raises(NetworkError):
        network.heal({"a"}, None)  # type: ignore[arg-type]


def test_heal_of_uninstalled_cut_is_a_noop(pair, sim):
    network, a, b = pair
    network.partition({"a"}, {"b"})
    network.heal({"a"}, {"nope"})
    a.send("b", "ping", "blocked")
    sim.run_until(1.0)
    assert b.received == []


# -- multicast vs per-recipient transmit accounting parity under faults ----------
# Regression for the hoisted-check fast path: with any fault hook installed,
# both paths must produce identical drop/duplicate/byte accounting and
# identical RNG draw order.

def _faulted(network):
    """Install one of each fault hook, deterministic by message id parity."""
    network.partition({"n0"}, {"n2"})
    network.add_drop_rule(lambda m: m.msg_type == "dropme")
    network.add_drop_rule(lambda m: m.payload == "lossy" and m.size_bytes % 2 == 1)
    network.add_duplicate_rule(lambda m: m.msg_type == "ping" and m.recipient == "n1")
    network.add_delay_rule(lambda m: 0.050 if m.recipient == "n3" else 0.0)


def _accounting(network, nodes):
    return (network.messages_delivered, network.messages_dropped,
            network.messages_duplicated, network.bytes_delivered,
            {name: (node.messages_received, node.bytes_received,
                    [t for t, _, _ in node.received])
             for name, node in nodes.items()})


def _fanout_network(sim):
    network = Network(sim, latency=UniformLatency(low=0.005, high=0.020))
    nodes = {f"n{i}": Recorder(f"n{i}", sim) for i in range(4)}
    for node in nodes.values():
        network.register(node)
    _faulted(network)
    return network, nodes


def test_multicast_and_transmit_accounting_identical_under_faults():
    sim_m, sim_t = Simulator(seed=42), Simulator(seed=42)
    net_m, nodes_m = _fanout_network(sim_m)
    net_t, nodes_t = _fanout_network(sim_t)
    for round_ in range(20):
        msg_type = ("ping", "dropme", "data")[round_ % 3]
        size = 10 + round_
        payload = "lossy" if round_ % 4 == 0 else f"r{round_}"
        # Path A: the broadcast fast path.
        net_m.multicast("n0", msg_type, payload, size_bytes=size)
        # Path B: one transmit per recipient, same sorted order.
        for recipient in ("n1", "n2", "n3"):
            net_t.transmit(Message(sender="n0", recipient=recipient,
                                   msg_type=msg_type, payload=payload,
                                   size_bytes=size))
    sim_m.run_until(10.0)
    sim_t.run_until(10.0)
    assert _accounting(net_m, nodes_m) == _accounting(net_t, nodes_t)
    assert net_m.messages_dropped > 0 and net_m.messages_duplicated > 0


def test_delay_rule_shifts_delivery_time(pair, sim):
    network, a, b = pair
    rule = lambda m: 0.5  # noqa: E731
    network.add_delay_rule(rule)
    a.send("b", "ping", "slow")
    sim.run_until(1.0)
    assert b.received and b.received[0][0] == pytest.approx(0.510)
    network.remove_delay_rule(rule)
    a.send("b", "ping", "fast")
    sim.run_until(2.0)
    assert b.received[1][0] == pytest.approx(1.010)


def test_duplicate_rule_delivers_twice_and_counts(pair, sim):
    network, a, b = pair
    rule = lambda m: m.msg_type == "ping"  # noqa: E731
    network.add_duplicate_rule(rule)
    a.send("b", "ping", "twice")
    a.send("b", "data", "once")
    sim.run_until(1.0)
    assert [p for _, _, p in b.received].count("twice") == 2
    assert [p for _, _, p in b.received].count("once") == 1
    assert network.messages_duplicated == 1
    assert network.messages_delivered == 3
    network.remove_duplicate_rule(rule)
    a.send("b", "ping", "single")
    sim.run_until(2.0)
    assert [p for _, _, p in b.received].count("single") == 1


def test_crashed_recipient_traffic_counts_as_dropped(pair, sim):
    network, a, b = pair
    b.crash()
    a.send("b", "ping", "lost")
    sim.run_until(1.0)
    assert b.received == [] and b.messages_received == 0
    assert network.messages_dropped == 1
    b.recover()
    a.send("b", "ping", "back")
    sim.run_until(2.0)
    assert [p for _, _, p in b.received] == ["back"]


def test_crashed_sender_sends_nothing(pair, sim):
    network, a, b = pair
    a.crash()
    a.send("b", "ping", "void")
    a.broadcast("ping", "void")
    sim.run_until(1.0)
    assert a.messages_sent == 0 and b.received == []
