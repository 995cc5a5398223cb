"""Mempool gossip is filed in the recipient's inbox, not scheduled; what a
validator's mempool, its counters and the network's show must be what one
delivery event per (transaction, peer) showed.

The oracle is the replaced node, kept here: ``append`` multicasts a ``"tx"``
message to every peer validator and a handler admits it on delivery, and a
burst (``append_many``) is its transactions appended one at a time.  Each
case plays one script in both worlds and compares everything gossip touches
— arrival times, mempool order and refusals, per-node and network counters,
the committed chains — at every stop of the clock.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable
from unittest import mock

import pytest

from repro import Scenario
from repro.api.parallel import reset_run_counters
from repro.config import LedgerConfig
from repro.errors import MempoolFullError
from repro.ledger.cometbft import engine
from repro.ledger.cometbft.engine import CometBFTNetwork, CometBFTNode
from repro.ledger.types import Transaction, new_transaction
from repro.net.latency import LatencyModel, UniformLatency
from repro.net.message import Message
from repro.net.network import Network
from repro.sim.scheduler import Simulator

from conftest import ConstantLatency

DELAYS_GOLDEN = Path(__file__).parent / "golden" / "network_delays.json"


class PerEventNode(CometBFTNode):
    """The replaced gossip: one ``Message`` and one delivery event per peer."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.on("tx", self._on_tx)

    def append(self, tx: Transaction) -> None:
        if self.crashed:
            return
        if self.app is not None and not self.app.check_tx(tx):
            return
        try:
            fresh = self.mempool.add(tx, self.sim.now)
        except MempoolFullError:
            return
        if fresh:
            self._broadcast_validators("tx", tx, size_bytes=tx.size_bytes)

    def append_many(self, txs) -> None:
        for tx in txs:
            self.append(tx)

    def _on_tx(self, message: Message) -> None:
        tx: Transaction = message.payload
        if tx.tx_id in self.inclusion_height:
            return
        try:
            self.mempool.add(tx, self.sim.now)
        except MempoolFullError:
            pass


def per_event(on: bool):
    """Everything built and run inside uses the oracle node when ``on``."""
    return mock.patch.object(engine, "CometBFTNode", PerEventNode) if on \
        else nullcontext()


def seen(network: Network, nodes: list[CometBFTNode]) -> dict:
    """Everything gossip touches, by value."""
    return {
        "network": (network.messages_delivered, network.messages_dropped,
                    network.messages_duplicated, network.bytes_delivered),
        "nodes": {node.name: {
            "arrivals": dict(node.mempool.arrival_times),
            "mempool": list(node.mempool._txs),
            "refused": node.mempool.rejected,
            "traffic": (node.messages_received, node.bytes_received,
                        node.messages_sent, node.bytes_sent),
            "chain": [(block.timestamp,
                       [tx.tx_id for tx in block.transactions])
                      for block in node.committed_blocks],
        } for node in nodes},
    }


@dataclass
class World:
    """A bare validator cluster and the transactions a script appended."""

    sim: Simulator
    network: Network
    cluster: CometBFTNetwork
    nodes: list[CometBFTNode]
    txs: dict[str, Transaction] = field(default_factory=dict)

    def node(self, index: int) -> CometBFTNode:
        return self.nodes[index]

    def at(self, time: float, action: Callable[[], object]) -> None:
        self.sim.call_at(time, action)

    def append_at(self, time: float, index: int, label: str,
                  size: int = 100) -> None:
        def append() -> None:
            tx = new_transaction(label, size, self.nodes[index].name)
            self.txs[label] = tx
            self.nodes[index].append(tx)
        self.sim.call_at(time, append)

    def burst_at(self, time: float, index: int, labels: list[str]) -> None:
        """One ``append_many`` of ``labels``: a label seen before re-appends
        its transaction."""
        def burst() -> None:
            for label in labels:
                if label not in self.txs:
                    self.txs[label] = new_transaction(label, 100,
                                                      self.nodes[index].name)
            self.nodes[index].append_many([self.txs[label] for label in labels])
        self.sim.call_at(time, burst)

    def arrival(self, index: int, label: str) -> float | None:
        return self.nodes[index].mempool.arrival_times.get(
            self.txs[label].tx_id)


def play(oracle: bool, latency: LatencyModel, script: Callable[[World], None],
         stops: list[float], *, stepped: bool = False, n: int = 4,
         block_rate: float = 1.0, **ledger) -> tuple[World, list[dict]]:
    """Run ``script`` on a fresh cluster; the world and what it showed at
    every stop.  ``stepped`` drives the clock one event at a time."""
    reset_run_counters()
    with per_event(oracle):
        sim = Simulator(seed=3)
        network = Network(sim, latency=latency)
        cluster = CometBFTNetwork(sim, network, n, LedgerConfig(
            block_size_bytes=100_000, block_rate=block_rate, **ledger))
        world = World(sim, network, cluster, cluster.node_list())
        cluster.start()
        script(world)
        shown = []
        for stop in stops:
            while stepped and (sim._queue.peek_time() or stop + 1) <= stop:
                sim.step()
            sim.run_until(stop)
            shown.append(seen(network, world.nodes))
    return world, shown


def both(latency_of: Callable[[], LatencyModel],
         script: Callable[[World], None], stops: list[float],
         **options) -> World:
    """Play in both worlds, require equality at every stop, hand back the
    inbox world for the case's own assertions."""
    _, expected = play(True, latency_of(), script, stops, **options)
    world, shown = play(False, latency_of(), script, stops, **options)
    for stop, ours, theirs in zip(stops, shown, expected):
        assert ours == theirs, f"diverged by t={stop}"
    return world


def lan() -> LatencyModel:
    return UniformLatency(low=0.0002, high=0.0008, per_byte=8.0 / 1e9)


def quarter_second() -> LatencyModel:
    return ConstantLatency(base=0.25)


def _busy(world: World) -> None:
    """Appends from every node, some sharing an instant, across four blocks."""
    for k in range(48):
        world.append_at(0.07 * k, k % 4, f"tx{k}", size=100 + k)
        if k % 5 == 0:
            world.append_at(0.07 * k, (k + 1) % 4, f"twin{k}")


@pytest.mark.parametrize("latency_of", [lan, lambda: ConstantLatency(0.002)])
@pytest.mark.parametrize("clock", ["straight", "ticked", "stepped"])
def test_every_stop_of_the_clock_shows_the_per_event_schedule(latency_of,
                                                              clock):
    """Straight through (only the node's own reads admit arrivals), in 13 ms
    ticks, or one event at a time: arrival instants, mempool order, counters
    and chains are the oracle's — including a transaction gossiped and
    committed within one block interval, whose arrival must be admitted
    before the commit marks it included."""
    stops = [5.07] if clock == "straight" else [
        0.013 * k for k in range(1, 390)]
    world = both(latency_of, _busy, stops, stepped=clock == "stepped")
    assert len(world.node(0).committed_blocks) >= 3
    quick = [tx for block in world.node(1).committed_blocks
             for tx in block.transactions
             if tx.origin != world.node(1).name
             and block.timestamp
             - world.node(1).mempool.arrival_times[tx.tx_id] < 1.0]
    assert quick
    assert all(len(node.mempool.arrival_times) == len(world.txs)
               for node in world.nodes)


def test_a_burst_is_its_transactions_appended_one_by_one():
    """One ``append_many`` per burst — fresh transactions, one twice in the
    burst, one re-appended from the last burst, some refused by a full
    mempool — against the oracle appending them one at a time."""
    def script(world: World) -> None:
        for k in range(16):
            labels = [f"b{k}-{j}" for j in range(k % 4 + 1)]
            labels += labels[:1] + ([f"b{k - 1}-0"] if k else [])
            world.burst_at(0.15 * k, k % 4, labels)

    world = both(lan, script, [0.013 * k for k in range(1, 300)],
                 mempool_max_txs=5)
    assert any(node.mempool.rejected for node in world.nodes)
    assert len(world.node(0).committed_blocks) >= 2


def test_gossip_costs_no_simulator_event():
    stops = [5.0]
    oracle, _ = play(True, lan(), _busy, stops)
    world, _ = play(False, lan(), _busy, stops)
    gossiped = len(world.txs) * 3
    assert world.network.messages_delivered == oracle.network.messages_delivered
    assert (oracle.sim.events_executed - world.sim.events_executed) == gossiped


@pytest.mark.parametrize("armed_late", [False, True])
def test_arrivals_in_a_crash_window_are_dropped_not_admitted(armed_late):
    """Arrivals at 0.75 (up), 1.0 (the crash instant), 1.15 (down), 2.0 (the
    recovery instant) and 2.15 (up again).  A fault armed before the send has
    the lower sequence number and wins the tie; one armed after it loses."""
    def script(world: World) -> None:
        for sent, label in ((0.5, "up"), (0.75, "at-crash"), (0.9, "down"),
                            (1.75, "at-recover"), (1.9, "back")):
            world.append_at(sent, 0, label)
        crash = lambda: world.cluster.crash_node("cometbft-2")
        recover = lambda: world.cluster.recover_node("cometbft-2")
        if armed_late:
            world.at(0.8, lambda: world.at(1.0, crash))
            world.at(1.8, lambda: world.at(2.0, recover))
        else:
            world.at(1.0, crash)
            world.at(2.0, recover)

    world = both(quarter_second, script,
                 [0.9, 1.0, 1.1, 1.2, 1.9, 2.0, 2.1, 2.2, 6.0])
    assert world.arrival(2, "up") == 0.75
    assert world.arrival(2, "down") is None
    assert world.arrival(2, "at-crash") == (1.0 if armed_late else None)
    assert world.arrival(2, "at-recover") == (None if armed_late else 2.0)
    assert world.arrival(2, "back") == 2.15
    # Nothing else was lost: the drops are exactly the refused arrivals.
    assert world.network.messages_dropped >= 2


def test_a_retired_validator_drops_what_was_still_on_its_way():
    def script(world: World) -> None:
        world.append_at(0.3, 0, "landed")      # arrives 0.55
        world.append_at(0.5, 0, "in-flight")   # arrives 0.75
        world.at(0.6, lambda: world.cluster.remove_validator("cometbft-3"))
        world.append_at(0.65, 0, "not-sent")   # peers no longer address it
        world.at(0.7, lambda: world.cluster.retire_node("cometbft-3"))

    # No stop before the retirement: it alone must admit what had landed.
    world = both(quarter_second, script, [0.74, 0.76, 1.0, 4.0])
    assert world.arrival(3, "landed") == 0.55
    assert world.arrival(3, "in-flight") is None
    assert world.arrival(3, "not-sent") is None
    assert not world.node(3)._inbox


def test_the_fate_of_a_copy_is_decided_when_it_is_sent():
    """Partitions and drop, delay and duplicate rules judge gossip at the
    send instant, like every other message: healing before the arrival does
    not resurrect it, cutting after the send does not lose it."""
    def to(name: str) -> Callable[[Message], bool]:
        return lambda m: m.msg_type == "tx" and m.recipient == name

    def script(world: World) -> None:
        net = world.network
        cut = ({"cometbft-3"}, {"cometbft-0", "cometbft-1", "cometbft-2"})
        world.append_at(0.3, 0, "before-cut")        # arrives 0.55, cut at 0.4
        world.at(0.4, lambda: net.partition(*cut))
        world.append_at(0.5, 0, "cut")               # healed before 0.75
        world.at(0.6, lambda: net.heal(*cut))
        drop, twice = to("cometbft-1"), to("cometbft-1")
        slow = lambda m: 0.5 if to("cometbft-2")(m) else 0.0
        world.at(1.0, lambda: net.add_drop_rule(drop))
        world.append_at(1.1, 0, "dropped")
        world.at(1.2, lambda: net.remove_rule(drop))
        world.at(1.3, lambda: net.add_delay_rule(slow))
        world.append_at(1.4, 0, "slowed")
        world.at(1.5, lambda: net.remove_rule(slow))
        world.at(1.6, lambda: net.add_duplicate_rule(twice))
        world.append_at(1.7, 0, "doubled")
        world.at(1.8, lambda: net.remove_rule(twice))

    world = both(quarter_second, script,
                 [0.45, 0.56, 0.8, 1.15, 1.4, 1.7, 1.96, 2.2, 6.0],
                 block_rate=0.1)
    assert world.arrival(3, "before-cut") == 0.55
    assert world.arrival(3, "cut") is None
    assert world.arrival(1, "dropped") is None
    assert world.arrival(2, "dropped") == 1.1 + 0.25
    assert world.arrival(2, "slowed") == 1.4 + (0.25 + 0.5)
    assert world.arrival(1, "slowed") == 1.4 + 0.25
    assert world.arrival(1, "doubled") == 1.7 + 0.25
    assert world.network.messages_duplicated == 1
    assert world.network.messages_dropped == 2


def test_block_sync_admits_what_arrived_before_it_marks_inclusion():
    """A validator deaf to consensus traffic still hears gossip; when it
    block-syncs, transactions that reached its mempool long before keep
    their own arrival instants although nothing read the mempool meanwhile."""
    def script(world: World) -> None:
        deaf = lambda m: m.recipient == "cometbft-3" and m.msg_type != "tx"
        world.at(0.0, lambda: world.network.add_drop_rule(deaf))
        for k in range(8):
            world.append_at(0.3 + 0.4 * k, k % 3, f"tx{k}")
        world.at(4.6, lambda: world.network.remove_rule(deaf))

    world = both(lambda: ConstantLatency(0.002), script, [12.0])
    lagging = world.node(3)
    assert len(lagging.committed_blocks) == len(world.node(0).committed_blocks)
    assert all(world.arrival(3, f"tx{k}") == 0.3 + 0.4 * k + 0.002
               for k in range(8))


@pytest.mark.parametrize("late", [False, True])
def test_a_full_mempool_is_decided_at_the_arrival_instant(late):
    """Room for two.  ``x`` reaches node 1 at 0.25: after node 1 filled its
    own mempool (refused), or before its second append (which is then the
    one refused, at the door, and never gossiped)."""
    def script(world: World) -> None:
        world.append_at(0.0, 0, "x")
        world.append_at(0.1, 1, "y")
        world.append_at(0.3 if late else 0.1, 1, "z")

    world = both(quarter_second, script, [0.2, 0.26, 0.4, 0.7, 2.0],
                 block_rate=0.1, mempool_max_txs=2)
    x, y, z = (world.txs[label].tx_id for label in "xyz")
    assert list(world.node(1).mempool._txs) == ([y, x] if late else [y, z])
    assert world.node(1).mempool.rejected == 1
    assert world.arrival(0, "z") is None
    assert world.node(0).mempool.rejected == (0 if late else 1)


def test_an_arrival_tied_with_a_propose_timer_keeps_its_sequence_order():
    """Two exact ties at the proposer under constant latency.  At 1.0 the
    propose timer (armed at start) precedes the arrival sent at 0.75: the
    mempool looks empty and the timer re-arms for 1.2.  There the arrival
    sent at 0.95 precedes the timer (armed at 1.0): block 1 carries both."""
    retry = 1.0 + 1.0 * engine._EMPTY_RETRY_FRACTION
    sent = retry - 0.25
    assert 0.75 + 0.25 == 1.0 and sent + 0.25 == retry  # the ties are exact

    def script(world: World) -> None:
        world.append_at(0.75, 1, "first")
        world.append_at(sent, 1, "second")

    world = both(quarter_second, script, [1.0, 1.1, retry, 1.3, 2.5])
    assert world.arrival(0, "first") == 1.0
    assert world.arrival(0, "second") == retry
    block = world.node(0).committed_blocks[0]
    assert block.proposer == "cometbft-0"
    assert [tx.payload for tx in block.transactions] == ["first", "second"]


# -- the whole system, clock stopped mid-flight -----------------------------------


def _faulted(servers: int = 7, rate: int = 300):
    return (Scenario.hashchain().servers(servers).rate(rate).collector(20)
            .inject_for(2).drain(6)
            .partition(0.5, until=1.0, nodes=("server-3",))
            .crash(1.2, "server-1", until=1.8)
            .loss(0.02, 0.2, until=1.6).duplicates(0.05, 0.3, until=1.5)
            .delay_spike(20, 0.4, until=1.4, jitter_ms=5).seed(11))


def _session_shows(session) -> dict:
    deployment = session.deployment
    nodes = list(deployment.ledger_backend.nodes.values())
    shown = seen(deployment.network, nodes)
    shown["servers"] = [(server.epoch, server.scan_cache_hits,
                         len(server._committed_epochs))
                        for server in deployment.servers]
    return shown


def _drive(oracle: bool, how: str) -> tuple[list[dict], str, int]:
    reset_run_counters()
    with per_event(oracle):
        session = _faulted().session().start()
        shown = []
        if how == "ticked":
            while session.now + 0.013 < 8.0:
                session.run_for(0.013)
                shown.append(_session_shows(session))
        elif how == "stepped":
            while session.now < 2.5 and session.deployment.sim.step():
                pass
        session.run()
        shown.append(_session_shows(session))
        return (shown, session.result().to_json(),
                session.deployment.sim.events_executed)


def test_a_faulted_session_reads_the_same_however_the_clock_is_advanced():
    """``Session.step``, ``run_for`` in 13 ms ticks and a straight ``run``,
    over a partition, a crash, lossy, duplicating and slow links: the same
    counters as the per-event schedule at every tick, the same artifact."""
    expected, artifact, events = _drive(True, "ticked")
    ticked, ticked_artifact, _ = _drive(False, "ticked")
    for index, (ours, theirs) in enumerate(zip(ticked, expected)):
        assert ours == theirs, f"diverged at tick {index}"
    assert ticked_artifact == artifact
    for how in ("straight", "stepped"):
        shown, same_artifact, fewer = _drive(False, how)
        assert shown[-1] == expected[-1]
        assert same_artifact == artifact
        assert fewer < events
    assert expected[-1]["network"][1] > 0 and expected[-1]["network"][2] > 0


# -- the network's random stream --------------------------------------------------


def _first_delays(count: int = 10_000) -> list[float]:
    """The first ``count`` latency draws of the faulted scenario above, on
    ten servers."""
    reset_run_counters()
    session = _faulted(servers=10, rate=500).session().start()
    latency = session.deployment.network.latency
    draw, drawn = latency.delay, []

    def recording(*args) -> float:
        drawn.append(draw(*args))
        return drawn[-1]

    latency.delay = recording  # the network looks the method up per call
    session.run()
    assert len(drawn) >= count
    return drawn[:count]


def _delays_fingerprint(delays: list[float]) -> dict:
    joined = ",".join(value.hex() for value in delays)
    return {"count": len(delays), "head": [v.hex() for v in delays[:8]],
            "sha256": hashlib.sha256(joined.encode()).hexdigest()}


def test_network_draws_the_delays_the_parent_commit_drew():
    """Draw order on the network stream is part of every artifact: the first
    10 000 delays of a faulted CometBFT run, recorded on the commit before
    gossip left the event queue (``python tests/test_gossip_inbox.py``)."""
    assert _delays_fingerprint(_first_delays()) == json.loads(
        DELAYS_GOLDEN.read_text())


if __name__ == "__main__":
    DELAYS_GOLDEN.write_text(
        json.dumps(_delays_fingerprint(_first_delays()), indent=2) + "\n")
    print(DELAYS_GOLDEN.read_text())
