"""PR 2 fast paths: event-queue compaction, crypto caches, collector views,
multicast, and the parallel sweep determinism guarantees."""

import pytest

from repro.api.parallel import RunSpec, default_jobs, run_specs
from repro.core.collector import Collector
from repro.core.types import EpochProof, HashBatch
from repro.crypto import ed25519
from repro.crypto.keys import PublicKeyInfrastructure
from repro.crypto.signatures import SimulatedScheme
from repro.errors import NetworkError
from repro.net.network import Network
from repro.net.node import NetworkNode
from repro.sim.events import EventQueue
from repro.sim.scheduler import Simulator
from repro.workload.elements import make_element


# -- event queue --------------------------------------------------------------

def test_cancel_10k_events_compacts_and_len_stays_o1():
    queue = EventQueue()
    events = [queue.push(float(i + 1), lambda: None) for i in range(10_000)]
    keeper = queue.push(20_000.0, lambda: None)
    for event in events:
        event.cancel()
    # O(1) live count, and lazy compaction has shed the cancelled entries
    # instead of letting the heap carry 10k tombstones.
    assert len(queue) == 1
    assert len(queue._heap) < 200
    assert queue.peek_time() == 20_000.0
    assert queue.pop() is keeper


def test_pop_due_respects_horizon_and_order():
    queue = EventQueue()
    queue.push(2.0, lambda: None)
    early = queue.push(1.0, lambda: None)
    assert queue.pop_due(0.5) is None
    assert queue.pop_due(1.0) is early
    assert queue.pop_due(10.0).time == 2.0
    assert queue.pop_due(10.0) is None


def test_pop_due_skips_cancelled_events():
    queue = EventQueue()
    first = queue.push(1.0, lambda: None)
    second = queue.push(2.0, lambda: None)
    first.cancel()
    assert queue.pop_due(5.0) is second


def test_cancel_after_pop_is_harmless():
    queue = EventQueue()
    event = queue.push(1.0, lambda: None)
    assert queue.pop() is event
    event.cancel()  # already executed/popped: must not corrupt the counter
    assert len(queue) == 0
    queue.push(2.0, lambda: None)
    assert len(queue) == 1


def test_fused_run_loop_matches_event_order():
    sim = Simulator()
    order = []
    sim.call_at(2.0, lambda: order.append("late"))
    sim.call_at(1.0, lambda: order.append("early"), priority=5)
    sim.call_at(1.0, lambda: order.append("first"), priority=0)
    sim.run_until(5.0)
    assert order == ["first", "early", "late"]
    assert sim.pending_events() == 0


# -- crypto -------------------------------------------------------------------

def test_windowed_base_mul_matches_generic_double_and_add():
    for scalar in (0, 1, 2, 15, 16, 17, ed25519._q - 1, 2**254 + 12345):
        assert ed25519._point_equal(ed25519._point_mul_base(scalar),
                                    ed25519._point_mul(scalar, ed25519._G))


def test_point_double_matches_point_add():
    point = ed25519._G
    for _ in range(8):
        assert ed25519._point_equal(ed25519._point_double(point),
                                    ed25519._point_add(point, point))
        point = ed25519._point_add(point, ed25519._G)


def test_verify_cache_only_keeps_positives(monkeypatch):
    scheme = SimulatedScheme(PublicKeyInfrastructure())
    keypair = scheme.generate_keypair("server-0")
    signature = scheme.sign(keypair, "payload")
    assert scheme.verify("server-0", "payload", signature)
    # A cached positive is served without re-running the backend.
    monkeypatch.setattr(SimulatedScheme, "_verify",
                        lambda self, owner, message, sig: pytest.fail(
                            "cached verification re-ran the backend"))
    assert scheme.verify("server-0", "payload", signature)


def test_verify_failures_are_not_cached():
    scheme = SimulatedScheme(PublicKeyInfrastructure())
    keypair = scheme.generate_keypair("server-0")
    good = scheme.sign(keypair, "payload")
    forged = bytes(64)
    assert not scheme.verify("server-0", "payload", forged)
    assert not scheme.verify("server-0", "payload", forged)
    assert ("server-0", "payload", forged) not in scheme._verified
    assert scheme.verify("server-0", "payload", good)


def test_canonical_bytes_are_cached_and_stable():
    element = make_element("client-1", 120)
    assert element.canonical_bytes() is element.canonical_bytes()
    proof = EpochProof(epoch_number=3, epoch_hash="ab", signature=b"\x01",
                       signer="s0")
    assert proof.canonical_bytes() == (
        b"proof|3|ab|s0|01")
    hb = HashBatch(batch_hash="cd", signature=b"\x02", signer="s1")
    assert hb.canonical_bytes() == b"hash-batch|cd|s1|02"
    # Equality/hash semantics ignore the cache field.
    assert hb == HashBatch(batch_hash="cd", signature=b"\x02", signer="s1")
    assert hash(proof) == hash(EpochProof(epoch_number=3, epoch_hash="ab",
                                          signature=b"\x01", signer="s0"))


# -- collector ----------------------------------------------------------------

def test_pending_view_is_zero_copy_and_pending_is_a_snapshot():
    sim = Simulator()
    flushed = []
    collector = Collector(sim, limit=10, timeout=1.0, on_flush=flushed.append)
    collector.add("a")
    view = collector.pending_view()
    snapshot = collector.pending
    collector.add("b")
    assert list(view) == ["a", "b"]      # live view follows the buffer
    assert snapshot == ("a",)            # snapshot does not
    assert collector.pending_view() is view


def test_flush_hands_over_an_immutable_tuple():
    sim = Simulator()
    flushed = []
    collector = Collector(sim, limit=2, timeout=1.0, on_flush=flushed.append)
    collector.add("a")
    collector.add("b")
    assert flushed == [("a", "b")]
    assert isinstance(flushed[0], tuple)


# -- network multicast --------------------------------------------------------

class _Sink(NetworkNode):
    def __init__(self, name, sim):
        super().__init__(name, sim)
        self.seen = []
        self.on("ping", lambda m: self.seen.append(m))


def _mesh(n):
    sim = Simulator(seed=1)
    network = Network(sim)
    nodes = [_Sink(f"n{i}", sim) for i in range(n)]
    for node in nodes:
        network.register(node)
    return sim, network, nodes


def test_broadcast_shares_one_payload_object():
    sim, network, nodes = _mesh(4)
    payload = {"k": "v"}
    nodes[0].broadcast("ping", payload, size_bytes=10)
    sim.run_until_idle()
    received = [m for node in nodes[1:] for m in node.seen]
    assert len(received) == 3
    assert all(m.payload is payload for m in received)
    assert not nodes[0].seen
    assert nodes[0].messages_sent == 3
    assert nodes[0].bytes_sent == 30


def test_broadcast_include_self_delivers_locally():
    sim, network, nodes = _mesh(3)
    nodes[0].broadcast("ping", "x", include_self=True)
    sim.run_until_idle()
    assert len(nodes[0].seen) == 1
    assert all(len(node.seen) == 1 for node in nodes)


def test_multicast_respects_drop_rules_and_partitions():
    sim, network, nodes = _mesh(4)
    network.add_drop_rule(lambda m: m.recipient == "n2")
    network.partition({"n0"}, {"n3"})
    nodes[0].broadcast("ping", "x")
    sim.run_until_idle()
    assert len(nodes[1].seen) == 1
    assert not nodes[2].seen and not nodes[3].seen
    assert network.messages_dropped == 2


def test_multicast_unknown_recipient_raises():
    sim, network, nodes = _mesh(2)
    with pytest.raises(NetworkError):
        network.multicast("n0", "ping", "x", recipients=["ghost"])


# -- parallel sweep determinism ----------------------------------------------

def test_same_seed_same_json_regardless_of_jobs():
    specs = [RunSpec(name="smoke", seed=11),
             RunSpec(name="quickstart", seed=12),
             RunSpec(name="bench/vanilla", seed=13)]
    serial = [result.to_json() for result in run_specs(specs, jobs=1)]
    parallel = [result.to_json() for result in run_specs(specs, jobs=4)]
    assert serial == parallel


def test_run_specs_order_is_input_order():
    specs = [RunSpec(name="quickstart", seed=1), RunSpec(name="smoke", seed=1)]
    results = run_specs(specs, jobs=2)
    assert [r.label for r in results] == ["quickstart", "smoke"]


def test_default_jobs_is_positive():
    assert default_jobs() >= 1


def test_cli_sweep_jobs_matches_serial(tmp_path):
    from repro.api.cli import main
    serial_dir, parallel_dir = tmp_path / "serial", tmp_path / "parallel"
    assert main(["sweep", "--tag", "demo", "--out", str(serial_dir),
                 "--quiet", "--seed", "5"]) == 0
    assert main(["sweep", "--tag", "demo", "--out", str(parallel_dir),
                 "--quiet", "--seed", "5", "--jobs", "4"]) == 0
    serial_files = sorted(p.name for p in serial_dir.glob("*.json"))
    assert serial_files == sorted(p.name for p in parallel_dir.glob("*.json"))
    for name in serial_files:
        assert (serial_dir / name).read_bytes() == (parallel_dir / name).read_bytes()
