"""Tests for the CometBFT-style consensus engine."""

import pytest

from repro.config import LedgerConfig
from repro.errors import ConsensusError
from repro.ledger.abci import Application
from repro.ledger.cometbft.consensus import ConsensusState, Vote, VoteType, block_id_for
from repro.ledger.cometbft.engine import CometBFTNetwork
from repro.ledger.cometbft.validator import ValidatorSet
from repro.ledger.types import Block, new_transaction
from repro.net.network import Network
from repro.sim.scheduler import Simulator

from conftest import ConstantLatency


class RecordingApp(Application):
    def __init__(self):
        self.blocks: list[Block] = []

    def finalize_block(self, block: Block) -> None:
        self.blocks.append(block)


def make_cluster(n=4, block_rate=2.0, block_size=100_000, seed=0):
    sim = Simulator(seed=seed)
    network = Network(sim, latency=ConstantLatency(base=0.002))
    config = LedgerConfig(block_size_bytes=block_size, block_rate=block_rate)
    cluster = CometBFTNetwork(sim, network, n, config)
    apps = []
    for node in cluster.node_list():
        app = RecordingApp()
        node.subscribe(app)
        apps.append(app)
    cluster.start()
    return sim, cluster, apps


# -- validator set -----------------------------------------------------------------

def test_validator_set_quorum_math():
    vs = ValidatorSet([f"v{i}" for i in range(4)])
    assert vs.quorum_at(1) == 3
    vs10 = ValidatorSet([f"v{i}" for i in range(10)])
    assert vs10.quorum_at(1) == 7


def test_validator_proposer_rotates_round_robin():
    vs = ValidatorSet(["a", "b", "c"])
    assert [vs.proposer(h) for h in (1, 2, 3, 4)] == ["a", "b", "c", "a"]
    assert vs.proposer(1, round_=1) == "b"


def test_validator_set_rejects_bad_input():
    with pytest.raises(ConsensusError):
        ValidatorSet([])
    with pytest.raises(ConsensusError):
        ValidatorSet(["a", "a"])
    with pytest.raises(ConsensusError):
        ValidatorSet(["a"]).proposer(0)


# -- consensus bookkeeping --------------------------------------------------------------

def test_block_id_depends_on_content():
    t1, t2 = new_transaction("a", 1, "v"), new_transaction("b", 1, "v")
    assert block_id_for(1, (t1,), "v") != block_id_for(1, (t2,), "v")
    assert block_id_for(1, (t1,), "v") != block_id_for(2, (t1,), "v")


def test_consensus_state_vote_counting():
    state = ConsensusState(height=3)
    for voter in ("a", "b", "a"):
        count = state.record_vote(Vote(height=3, round=0, voter=voter,
                                       vote_type=VoteType.PREVOTE, block_id="x"))
    assert count == 2  # duplicate voter not double-counted
    assert state.count(0, VoteType.PREVOTE, "x") == 2
    assert state.count(0, VoteType.PRECOMMIT, "x") == 0
    with pytest.raises(ConsensusError):
        state.record_vote(Vote(height=4, round=0, voter="a",
                               vote_type=VoteType.PREVOTE, block_id="x"))


# -- engine behaviour ---------------------------------------------------------------------

def test_appended_transaction_commits_on_every_node():
    sim, cluster, apps = make_cluster(n=4)
    node = cluster.node_list()[0]
    tx = new_transaction("payload", 200, node.name)
    node.append(tx)
    sim.run_until(5.0)
    for app in apps:
        assert any(t.tx_id == tx.tx_id for block in app.blocks for t in block.transactions)


def test_all_nodes_commit_same_blocks_in_same_order():
    sim, cluster, apps = make_cluster(n=4)
    nodes = cluster.node_list()
    for i in range(20):
        nodes[i % 4].append(new_transaction(f"tx{i}", 100, nodes[i % 4].name))
    sim.run_until(15.0)
    reference = [[t.tx_id for t in block.transactions] for block in apps[0].blocks]
    assert len(reference) >= 1
    for app in apps[1:]:
        assert [[t.tx_id for t in block.transactions] for block in app.blocks] == reference


def test_block_rate_is_respected_under_load():
    sim, cluster, apps = make_cluster(n=4, block_rate=2.0)
    nodes = cluster.node_list()
    # Keep the mempool non-empty for 10 seconds.
    for i in range(100):
        sim.call_at(i * 0.1, lambda i=i: nodes[i % 4].append(
            new_transaction(f"tx{i}", 100, nodes[i % 4].name)))
    sim.run_until(10.0)
    blocks = len(apps[0].blocks)
    # Target is one block every 0.5 s; consensus latency makes it slightly slower.
    assert 10 <= blocks <= 21


def test_block_size_cap_limits_block_bytes():
    sim, cluster, apps = make_cluster(n=4, block_size=1_000)
    node = cluster.node_list()[0]
    for _ in range(10):
        node.append(new_transaction("x", 400, node.name))
    sim.run_until(10.0)
    assert all(sum(tx.size_bytes for tx in block.transactions) <= 1_000
               for app in apps for block in app.blocks)
    total = sum(len(block.transactions) for block in apps[0].blocks)
    assert total == 10


def test_gossip_fills_all_mempools():
    sim, cluster, _ = make_cluster(n=4, block_rate=0.1)  # slow blocks
    nodes = cluster.node_list()
    tx = new_transaction("gossip-me", 100, nodes[0].name)
    nodes[0].append(tx)
    sim.run_until(1.0)
    assert all(tx.tx_id in node.mempool.arrival_times or tx.tx_id in node.inclusion_height
               for node in nodes)


def test_mempool_arrival_times_recorded_for_latency_stages():
    sim, cluster, _ = make_cluster(n=4)
    nodes = cluster.node_list()
    tx = new_transaction("measure", 100, nodes[0].name)
    nodes[0].append(tx)
    sim.run_until(5.0)
    times = [node.mempool.arrival_times.get(tx.tx_id) for node in nodes]
    assert all(t is not None for t in times)
    assert times[0] <= min(t for t in times[1:])


def test_crash_fault_minority_does_not_stop_progress():
    sim, cluster, apps = make_cluster(n=4)
    nodes = cluster.node_list()
    nodes[3].crash()
    for i in range(10):
        nodes[i % 3].append(new_transaction(f"tx{i}", 100, nodes[i % 3].name))
    sim.run_until(30.0)
    live_apps = apps[:3]
    committed = [sum(len(b.transactions) for b in app.blocks) for app in live_apps]
    assert all(c == 10 for c in committed)
    assert cluster.min_committed_height() >= 1


def test_subscribe_twice_rejected():
    sim, cluster, apps = make_cluster(n=4)
    node = cluster.node_list()[0]
    with pytest.raises(ConsensusError):
        node.subscribe(RecordingApp())
