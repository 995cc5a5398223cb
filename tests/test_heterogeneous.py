"""Heterogeneous clusters: correctness under mixed algorithms and regions.

The satellite guarantees of the topology PR:

* a mixed vanilla+hashchain deployment satisfies Properties 1-8 with the
  quorum computed over the *full* server set;
* a Byzantine server in one region does not break consistency in another;
* the same (scenario, seed) is byte-identical under ``--jobs 1`` vs
  ``--jobs 4`` for a ``wan/`` and a ``mixed/`` scenario (extending the PR 2
  byte-identity suite).
"""

from __future__ import annotations

import pytest

from repro.api import Scenario
from repro.api.catalog import SCENARIOS
from repro.api.parallel import RunSpec, iter_spec_results
from repro.core.byzantine import WithholdBehaviour
from repro.core.deployment import build_deployment
from repro.core.hashchain import HashchainServer
from repro.core.properties import check_all, check_consistent_gets
from repro.crypto.keys import PublicKeyInfrastructure
from repro.crypto.signatures import SignatureScheme
from repro.faults.budget import budget_states
from repro.config import LedgerConfig, SetchainConfig
from repro.ledger.ideal import IdealLedger
from repro.net.latency import RegionalLatency
from repro.net.network import Network
from repro.sim.scheduler import Simulator
from repro.workload.elements import make_element

from conftest import ConstantLatency


# -- mixed-algorithm properties ------------------------------------------------

def test_mixed_vanilla_hashchain_satisfies_properties_with_full_quorum():
    """Properties 1-8 hold on a 2+2 mixed cluster, quorum over all 4 servers."""
    config = SCENARIOS["mixed/smoke"].build()
    assert config.setchain.quorum == 2  # f=1 over the full 4-server set
    deployment = build_deployment(config, seed=11)
    deployment.start()
    deployment.run_to_completion()
    assert deployment.committed_fraction == 1.0
    violations = deployment.check_properties(include_liveness=True)
    assert violations == []


def test_mixed_cluster_groups_scope_cross_server_checks():
    """Each algorithm group agrees internally; groups are distinct tenants."""
    config = SCENARIOS["mixed/smoke"].build()
    deployment = build_deployment(config, seed=3)
    deployment.start()
    deployment.run_to_completion()
    groups = deployment.algorithm_groups()
    assert set(groups.values()) == {"vanilla", "hashchain"}
    views = deployment.views()
    for algorithm in ("vanilla", "hashchain"):
        group_views = {name: view for name, view in views.items()
                       if groups[name] == algorithm}
        assert len(group_views) == 2
        assert check_consistent_gets(group_views) == []
    # Without groups, the cross-group epoch comparison would (correctly)
    # report differences — the group scoping is what makes the multi-tenant
    # semantics explicit.
    assert check_all(views, quorum=config.setchain.quorum,
                     include_liveness=False) != []
    assert check_all(views, quorum=config.setchain.quorum,
                     include_liveness=False, groups=groups) == []


def test_mixed_light_groups_do_not_share_batch_stores():
    """hashchain and hashchain-light groups each keep their own store."""
    config = SCENARIOS["mixed/light/hashchain-vs-light-n4"].build()
    deployment = build_deployment(config)
    light = [s for s in deployment.servers
             if getattr(s, "light", False)]
    full = [s for s in deployment.servers
            if isinstance(s, HashchainServer) and not s.light]
    assert len(light) == len(full) == 2
    assert light[0].shared_store is light[1].shared_store
    assert all(s.shared_store is None for s in full)


# -- Byzantine region isolation ------------------------------------------------

def _build_two_region_cluster(byzantine_in: str):
    """4 hashchain servers in two regions over 40 ms links; one Byzantine."""
    sim = Simulator(seed=99)
    region_of = {f"server-{i}": ("west" if i < 2 else "east") for i in range(4)}
    latency = RegionalLatency(region_of, intra=ConstantLatency(base=0.001),
                              inter_delay=0.040, inter_jitter=0.005)
    network = Network(sim, latency=latency)
    scheme = SignatureScheme(PublicKeyInfrastructure())
    config = SetchainConfig(n_servers=4, f=1, collector_limit=10,
                            collector_timeout=0.5, batch_request_timeout=0.5)
    ledger = IdealLedger(sim, LedgerConfig(block_size_bytes=200_000, block_rate=2.0))
    ledger.start()
    servers = []
    for index in range(4):
        name = f"server-{index}"
        keypair = scheme.generate_keypair(name)
        server = HashchainServer(name, sim, config, scheme, keypair)
        if region_of[name] == byzantine_in and name == "server-0":
            server.become_byzantine(WithholdBehaviour())
        network.register(server)
        server.connect_ledger(ledger.handle_for(name))
        servers.append(server)
    return sim, config, region_of, servers


def test_byzantine_server_in_one_region_does_not_break_the_other():
    sim, config, region_of, servers = _build_two_region_cluster("west")
    correct = servers[1:]
    elements = []
    for i in range(30):
        element = make_element(f"c{i % 3}", 120)
        correct[i % 3].add(element)
        elements.append(element)
    sim.run_until(90.0)
    views = {s.name: s.get() for s in correct}
    # All correct servers — both the withholder's west neighbour and the
    # whole east region — agree and commit every element (quorum f+1=2 is
    # reachable without the Byzantine server).
    assert check_all(views, quorum=config.quorum, all_added=elements,
                     include_liveness=True) == []
    east_views = {name: view for name, view in views.items()
                  if region_of[name] == "east"}
    assert len(east_views) == 2
    for view in east_views.values():
        assert all(element in view.elements_in_epochs() for element in elements)


# -- consensus liveness under vote splits --------------------------------------

def test_round_timeout_escalation_breaks_split_prevote_deadlock():
    """Regional jitter can split a round's prevotes between the proposal and
    nil with neither reaching 2f+1; the timeout ladder (timeout_prevote →
    timeout_precommit) must end the round instead of deadlocking."""
    from repro.ledger.cometbft.consensus import (
        NIL_BLOCK,
        Proposal,
        Vote,
        VoteType,
        block_id_for,
    )
    from repro.ledger.cometbft.engine import CometBFTNetwork
    from repro.ledger.types import new_transaction

    sim = Simulator(seed=5)
    network = Network(sim, latency=ConstantLatency(base=0.001))
    net = CometBFTNetwork(sim, network, 4, LedgerConfig(block_rate=2.0))
    names = net.validators.names
    proposer = net.validators.proposer(1, 0)
    node = next(n for n in net.node_list() if n.name != proposer)
    tx = new_transaction(payload=b"x", size_bytes=10, origin="test")
    proposal = Proposal(height=1, round=0, proposer=proposer,
                        transactions=(tx,),
                        block_id=block_id_for(1, (tx,), proposer))
    node._handle_proposal(proposal)  # node prevotes the block
    assert node.state.prevoted and not node.state.precommitted
    # One more block prevote and two nil prevotes: 2 vs 2, quorum is 3.
    others = [name for name in names if name not in (node.name, proposer)]
    node.state.record_vote(Vote(1, 0, proposer, VoteType.PREVOTE,
                                proposal.block_id))
    for voter in others:
        node.state.record_vote(Vote(1, 0, voter, VoteType.PREVOTE, NIL_BLOCK))
    node._maybe_progress()
    assert not node.state.precommitted  # genuinely split: no quorum either way
    # timeout_prevote: the node precommits nil so the round can end.
    node._on_round_timeout()
    assert node.state.precommitted
    assert node.state.count(0, VoteType.PRECOMMIT, NIL_BLOCK) == 1
    # 2 block + 1 nil precommits heard: a still-unheard validator could push
    # the block to quorum, so the timeout must NOT advance (fork guard).
    node.state.record_vote(Vote(1, 0, others[0], VoteType.PRECOMMIT,
                                proposal.block_id))
    node.state.record_vote(Vote(1, 0, others[1], VoteType.PRECOMMIT,
                                proposal.block_id))
    node._maybe_progress()
    assert node.state.round == 0  # no per-value quorum from the mixed votes
    node._on_round_timeout()
    assert node.state.round == 0  # block at 2 + 1 unheard could still commit
    # Once every validator has precommitted (2 block + 2 nil), the round is
    # provably dead: timeout_precommit advances.
    node.state.record_vote(Vote(1, 0, proposer, VoteType.PRECOMMIT, NIL_BLOCK))
    node._maybe_progress()
    assert node.state.round == 0
    node._on_round_timeout()
    assert node.state.round == 1
    assert not node.state.prevoted and not node.state.precommitted


def test_wan_consensus_commits_blocks_despite_jitter():
    """End-to-end: a 2-region CometBFT cluster with jittered 30 ms links
    keeps committing blocks (the deadlock this PR fixed stalled it at 0)."""
    from repro.api import Scenario

    config = (Scenario.hashchain().region("us", 2).region("eu", 2)
              .wan(inter_ms=30, jitter_ms=6).byzantine(f=1)
              .rate(200).collector(20).inject_for(5).drain(120).build())
    deployment = build_deployment(config, seed=2)
    deployment.start()
    deployment.run_to_completion()
    assert deployment.ledger_backend.min_committed_height() > 0
    assert deployment.committed_fraction == 1.0
    assert deployment.check_properties() == []


# -- determinism across worker counts -----------------------------------------

@pytest.mark.parametrize("scenario", ["wan/hashchain/smoke", "mixed/smoke"])
def test_topology_scenarios_byte_identical_across_jobs(scenario):
    specs = [RunSpec(name=scenario, seed=21), RunSpec(name=scenario, seed=22),
             RunSpec(name="smoke", seed=23)]
    serial = [result.to_json() for result in iter_spec_results(specs, jobs=1)]
    parallel = [result.to_json() for result in iter_spec_results(specs, jobs=4)]
    assert serial == parallel
    assert serial[0] != serial[1]  # different seeds genuinely differ


def test_a_light_variant_is_its_own_group_at_run_time_as_at_build():
    """The group key is the ``ALGORITHMS`` row a server was built from, as the
    build-time budget and ``Membership.joining_group`` key it: at the parent
    every server below was in "hashchain"."""
    config = (Scenario.hashchain().mixed(hashchain_light=2, hashchain=3)
              .byzantine(f=1).backend("ideal").build())
    deployment = build_deployment(config)
    assert deployment.algorithm_groups() == {
        "server-0": "hashchain-light", "server-1": "hashchain-light",
        "server-2": "hashchain", "server-3": "hashchain", "server-4": "hashchain"}
    assert {server.algorithm for server in deployment.servers} == {"hashchain"}
    (_, scopes, _), = budget_states([], config)
    assert set(scopes) - {""} == set(deployment.algorithm_groups().values())
    assert deployment.membership.joining_group("hashchain-light", None) \
        == "hashchain-light"
