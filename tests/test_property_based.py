"""Property-based tests (hypothesis) on core data structures and invariants."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.throughput import average_throughput, rolling_throughput
from repro.compressor.model import ModelCompressor
from repro.core.proofs import create_epoch_proof, epoch_is_committed
from repro.core.types import SetchainView
from repro.crypto.hashing import hash_batch, hash_epoch
from repro.crypto.keys import PublicKeyInfrastructure
from repro.crypto.signatures import SignatureScheme
from repro.ledger.mempool import Mempool
from repro.ledger.types import new_transaction
from repro.sim.events import EventQueue
from repro.sim.rng import derive_seed
from repro.workload.elements import make_element
from repro.workload.generator import ArbitrumLikeGenerator, ElementSizeStats
from repro.sim.rng import DeterministicRNG

_slow = settings(max_examples=50, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


# -- event queue ordering -------------------------------------------------------------------

@_slow
@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                          allow_infinity=False), min_size=1, max_size=200))
def test_event_queue_pops_in_nondecreasing_time_order(times):
    queue = EventQueue()
    for t in times:
        queue.push(t, lambda: None)
    popped = []
    while queue:
        popped.append(queue.pop().time)
    assert popped == sorted(popped)
    assert len(popped) == len(times)


# -- hashing invariants -----------------------------------------------------------------------

@_slow
@given(st.lists(st.integers(min_value=64, max_value=5000), min_size=0, max_size=30),
       st.randoms(use_true_random=False))
def test_hash_batch_permutation_invariance(sizes, rnd):
    elements = [make_element("c", s) for s in sizes]
    shuffled = elements[:]
    rnd.shuffle(shuffled)
    assert hash_batch(elements) == hash_batch(shuffled)


@_slow
@given(st.integers(min_value=1, max_value=1000),
       st.lists(st.integers(min_value=64, max_value=2000), min_size=1, max_size=20))
def test_hash_epoch_injective_in_epoch_number(epoch, sizes):
    elements = [make_element("c", s) for s in sizes]
    assert hash_epoch(epoch, elements) != hash_epoch(epoch + 1, elements)


# -- seeds ------------------------------------------------------------------------------------

@_slow
@given(st.integers(min_value=0, max_value=2**32), st.text(max_size=20))
def test_derive_seed_stable_and_in_range(seed, label):
    a = derive_seed(seed, label)
    assert a == derive_seed(seed, label)
    assert 0 <= a < 2**64


# -- generator ----------------------------------------------------------------------------------

@_slow
@given(st.integers(min_value=0, max_value=10_000),
       st.floats(min_value=100, max_value=2000),
       st.floats(min_value=0, max_value=2000))
def test_generator_sizes_always_positive(seed, mean, std):
    generator = ArbitrumLikeGenerator(DeterministicRNG(seed), ElementSizeStats(mean, std))
    assert all(generator.next_size() >= 64 for _ in range(20))


# -- compression ----------------------------------------------------------------------------------

@_slow
@given(st.integers(min_value=1, max_value=600), st.floats(min_value=1.1, max_value=10.0))
def test_model_compressor_never_exceeds_original(count, ratio):
    batch = [make_element("c", 438) for _ in range(count)]
    original = sum(e.size_bytes for e in batch)
    compressed = ModelCompressor(ratio=ratio).compress(batch, original)
    assert 1 <= compressed.compressed_size <= original
    assert compressed.items == tuple(batch)


# -- mempool ---------------------------------------------------------------------------------------

@_slow
@given(st.lists(st.integers(min_value=1, max_value=500), min_size=0, max_size=50),
       st.integers(min_value=100, max_value=2000))
def test_mempool_reap_never_exceeds_budget_and_preserves_fifo(sizes, budget):
    pool = Mempool(max_txs=1000, max_bytes=10**9)
    txs = [new_transaction(f"p{i}", size, "origin") for i, size in enumerate(sizes)]
    for i, tx in enumerate(txs):
        pool.add(tx, float(i))
    reaped = pool.reap(budget)
    assert reaped == txs[:len(reaped)]  # FIFO prefix
    # Budget is respected except for the single oversized-head case, where the
    # head transaction is reaped alone rather than wedging the mempool.
    if not (len(reaped) == 1 and reaped[0].size_bytes > budget):
        assert sum(t.size_bytes for t in reaped) <= budget


# -- f+1 commit rule ---------------------------------------------------------------------------------

@_slow
@given(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=9))
def test_epoch_commit_rule_threshold_exact(signer_count, quorum):
    scheme = SignatureScheme(PublicKeyInfrastructure())
    elements = [make_element("c", 100)]
    proofs = [create_epoch_proof(scheme, scheme.generate_keypair(f"s{i}"), 1, elements)
              for i in range(signer_count)]
    assert epoch_is_committed(proofs, 1, elements, quorum) == (signer_count >= quorum)


# -- SetchainView invariants ---------------------------------------------------------------------------

@_slow
@given(st.lists(st.integers(min_value=64, max_value=1000), min_size=0, max_size=30),
       st.integers(min_value=1, max_value=5))
def test_view_snapshot_preserves_subset_invariant(sizes, epochs):
    elements = [make_element("c", s) for s in sizes]
    the_set = {e.element_id: e for e in elements}
    history = {}
    for i, element in enumerate(elements):
        history.setdefault(1 + (i % epochs), set()).add(element)
    view = SetchainView.snapshot(the_set, history, len(history), set())
    assert view.elements_in_epochs() <= view.the_set
    for element in elements:
        assert view.epoch_of(element) in history


# -- throughput math -------------------------------------------------------------------------------------

@_slow
@given(st.lists(st.floats(min_value=0.1, max_value=200.0, allow_nan=False),
                min_size=1, max_size=300))
def test_rolling_throughput_total_mass_matches_commit_count(commit_times):
    series = rolling_throughput(sorted(commit_times), window=9.0, step=1.0)
    assert all(v >= 0 for v in series.values)
    assert series.peak() <= len(commit_times) / 9.0 + 1e-9
    avg = average_throughput(sorted(commit_times), up_to=200.0)
    assert avg == len(commit_times) / 200.0


# -- Properties 1-8 under random fault schedules (repro.faults) -------------------------------------------
# The paper claims Properties 1-8 for *correct* servers with correct servers
# >= quorum.  Random chaos timelines — crashes with recovery, short
# partitions, background message loss — must not break any of them for the
# never-crashed servers, for any of the three algorithms.  Every fault ends
# well before the drain so "eventually" has room to happen (partial
# synchrony: the network is eventually timely again).

_fault_runs = settings(max_examples=5, deadline=None,
                       suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.parametrize("algorithm", ["vanilla", "compresschain", "hashchain"])
@_fault_runs
@given(data=st.data())
def test_properties_hold_for_correct_servers_under_random_faults(algorithm, data):
    from repro.api import Scenario, Session
    from repro.core.properties import check_all
    from repro.faults import Crash, MessageLoss, Partition, Targets

    events = []
    crashed = []
    # Up to two crash-recover windows hitting distinct servers: 4 servers,
    # f=1, quorum=2, so >= 2 never-crashed servers remain (>= quorum).
    for victim in ("server-2", "server-3"):
        if data.draw(st.booleans(), label=f"crash {victim}"):
            at = data.draw(st.floats(0.2, 3.0), label=f"{victim} at")
            down = data.draw(st.floats(0.5, 2.5), label=f"{victim} down for")
            events.append(Crash(at=at, until=at + down,
                                targets=Targets(nodes=(victim,))))
            crashed.append(victim)
    if data.draw(st.booleans(), label="partition"):
        at = data.draw(st.floats(0.2, 3.5), label="partition at")
        width = data.draw(st.floats(0.3, 2.0), label="partition width")
        count = data.draw(st.integers(1, 2), label="partition size")
        events.append(Partition(at=at, until=at + width,
                                group=Targets(role="servers", count=count)))
    if data.draw(st.booleans(), label="loss"):
        rate = data.draw(st.floats(0.005, 0.05), label="loss rate")
        events.append(MessageLoss(at=0.0, until=4.0, rate=rate))
    seed = data.draw(st.integers(0, 2**16), label="seed")

    config = (Scenario(algorithm).servers(4).rate(150).collector(10)
              .inject_for(4).drain(40).backend("ideal")
              .faults(*events).seed(seed).build())
    deployment = Session(config).start().run().deployment

    views = {server.name: server.get() for server in deployment.servers
             if server.name not in crashed}
    assert len(views) >= config.setchain.quorum
    violations = check_all(views, quorum=config.setchain.quorum,
                           all_added=deployment.injected_elements,
                           include_liveness=True)
    assert violations == [], violations[:5]


# -- Properties 1-8 under mixed crash + Byzantine + partition schedules ----------
# PR 5's tentpole: Byzantine behaviours are schedule events, so one timeline
# can crash a server, turn another Byzantine (any of the five behaviours,
# reverting mid-run), cut a partition, and add background loss.  Generated
# schedules stay within the f-budget by construction (n=5, f=2: at most one
# crashed plus one Byzantine server at any instant), so Properties 1-8 must
# hold at every never-crashed, never-Byzantine server for all three
# algorithms.

_BYZ_BEHAVIOURS = ("withhold", "wrong-hash", "invalid-element", "equivocate",
                   "silent")


@pytest.mark.parametrize("algorithm", ["vanilla", "compresschain", "hashchain"])
@_fault_runs
@given(data=st.data())
def test_properties_hold_under_mixed_crash_byzantine_partition_schedules(
        algorithm, data):
    from repro.api import Scenario, Session
    from repro.core.properties import check_all
    from repro.faults import (
        BecomeByzantine,
        Crash,
        MessageLoss,
        Partition,
        Targets,
    )

    events = []
    faulty = []
    if data.draw(st.booleans(), label="crash server-3"):
        at = data.draw(st.floats(0.2, 3.0), label="crash at")
        down = data.draw(st.floats(0.5, 2.5), label="crash down for")
        events.append(Crash(at=at, until=at + down,
                            targets=Targets(nodes=("server-3",))))
        faulty.append("server-3")
    if data.draw(st.booleans(), label="byzantine server-4"):
        behaviour = data.draw(st.sampled_from(_BYZ_BEHAVIOURS),
                              label="behaviour")
        at = data.draw(st.floats(0.2, 3.0), label="byzantine at")
        width = data.draw(st.floats(0.5, 2.5), label="byzantine width")
        events.append(BecomeByzantine(at=at, until=at + width,
                                      targets=Targets(nodes=("server-4",)),
                                      behaviour=behaviour))
        faulty.append("server-4")
    if data.draw(st.booleans(), label="partition"):
        at = data.draw(st.floats(0.2, 3.5), label="partition at")
        width = data.draw(st.floats(0.3, 2.0), label="partition width")
        count = data.draw(st.integers(1, 2), label="partition size")
        events.append(Partition(at=at, until=at + width,
                                group=Targets(role="servers", count=count)))
    if data.draw(st.booleans(), label="loss"):
        rate = data.draw(st.floats(0.005, 0.05), label="loss rate")
        events.append(MessageLoss(at=0.0, until=4.0, rate=rate))
    seed = data.draw(st.integers(0, 2**16), label="seed")

    config = (Scenario(algorithm).servers(5).rate(150).collector(10)
              .inject_for(4).drain(40).backend("ideal")
              .faults(*events).seed(seed).build())
    deployment = Session(config).start().run().deployment

    assert deployment.byzantine_servers() <= set(faulty)
    views = {server.name: server.get() for server in deployment.servers
             if server.name not in faulty}
    assert len(views) >= config.setchain.quorum
    violations = check_all(views, quorum=config.setchain.quorum,
                           all_added=deployment.injected_elements,
                           include_liveness=True)
    assert violations == [], violations[:5]


# -- Properties 1-8 under mixed join/leave/crash/partition schedules --------------
# PR 7's tentpole: membership itself changes at runtime.  A random timeline
# may admit a joining server (state transfer, then epoch-aware quorum entry),
# drain one original server out, crash-recover another, cut a short
# partition, and add background loss.  Servers 0-2 are members for the whole
# run and never faulted, so Properties 1-8 — checked against the *smallest*
# quorum any membership epoch used — must hold at their views for all three
# algorithms.


@pytest.mark.parametrize("algorithm", ["vanilla", "compresschain", "hashchain"])
@_fault_runs
@given(data=st.data())
def test_properties_hold_under_mixed_membership_and_fault_schedules(
        algorithm, data):
    from repro.api import Scenario, Session
    from repro.core.properties import check_all
    from repro.faults import Crash, Join, Leave, MessageLoss, Partition, Targets

    events = []
    transient = []  # servers that were faulted, joined, or departed mid-run
    if data.draw(st.booleans(), label="join"):
        at = data.draw(st.floats(0.3, 2.0), label="join at")
        events.append(Join(at=at))
        transient.append("server-5")  # joined late: not a full-run member
    if data.draw(st.booleans(), label="leave server-4"):
        at = data.draw(st.floats(0.5, 3.0), label="leave at")
        drain = data.draw(st.booleans(), label="leave drains")
        events.append(Leave(at=at, targets=Targets(nodes=("server-4",)),
                            drain=drain))
        transient.append("server-4")
    if data.draw(st.booleans(), label="crash server-3"):
        at = data.draw(st.floats(0.2, 3.0), label="crash at")
        down = data.draw(st.floats(0.5, 2.5), label="crash down for")
        events.append(Crash(at=at, until=at + down,
                            targets=Targets(nodes=("server-3",))))
        transient.append("server-3")
    if data.draw(st.booleans(), label="partition"):
        at = data.draw(st.floats(0.2, 3.5), label="partition at")
        width = data.draw(st.floats(0.3, 1.5), label="partition width")
        events.append(Partition(at=at, until=at + width,
                                group=Targets(role="servers", count=1)))
    if data.draw(st.booleans(), label="loss"):
        rate = data.draw(st.floats(0.005, 0.05), label="loss rate")
        events.append(MessageLoss(at=0.0, until=4.0, rate=rate))
    seed = data.draw(st.integers(0, 2**16), label="seed")

    config = (Scenario(algorithm).servers(5).rate(150).collector(10)
              .inject_for(4).drain(40).backend("ideal")
              .faults(*events).seed(seed).build())
    deployment = Session(config).start().run().deployment

    # The quorum every element must eventually clear: the smallest any
    # membership epoch required (a drained leave can shrink it below the
    # static config value).
    log = deployment.membership
    if log is not None and log.changed:
        quorum = min(epoch.quorum for epoch in log.epochs)
    else:
        quorum = config.setchain.quorum
    views = {server.name: server.get() for server in deployment.servers
             if server.name not in transient}
    assert len(views) >= quorum
    violations = check_all(views, quorum=quorum,
                           all_added=deployment.injected_elements,
                           include_liveness=True)
    assert violations == [], violations[:5]


# -- Properties 1-8 per shard under a faulty sibling shard ------------------------
# PR 10's tentpole: shards are independent Setchain instances, so faults must
# not cross the partition boundary.  A random schedule crashes or turns
# Byzantine exactly one member of shard 1 (inside that shard's f-budget);
# shard 0 is never touched, so Properties 1-8 over shard 0's admissions —
# and its commit ratio — must be exactly what a fault-free run guarantees.


@pytest.mark.parametrize("algorithm", ["vanilla", "compresschain", "hashchain"])
@_fault_runs
@given(data=st.data())
def test_shard_faults_never_leak_into_healthy_shards(algorithm, data):
    from repro.api import Scenario, Session
    from repro.core.properties import check_all
    from repro.faults import BecomeByzantine, Crash, MessageLoss, Targets

    events = []
    victim = data.draw(st.sampled_from(["server-3", "server-4", "server-5"]),
                       label="victim")
    mode = data.draw(st.sampled_from(["crash", "byzantine"]), label="mode")
    at = data.draw(st.floats(0.2, 2.5), label="fault at")
    width = data.draw(st.floats(0.5, 2.5), label="fault width")
    if mode == "crash":
        events.append(Crash(at=at, until=at + width,
                            targets=Targets(nodes=(victim,))))
    else:
        behaviour = data.draw(st.sampled_from(_BYZ_BEHAVIOURS),
                              label="behaviour")
        events.append(BecomeByzantine(at=at, until=at + width,
                                      targets=Targets(nodes=(victim,)),
                                      behaviour=behaviour))
    if data.draw(st.booleans(), label="loss"):
        rate = data.draw(st.floats(0.005, 0.05), label="loss rate")
        events.append(MessageLoss(at=0.0, until=4.0, rate=rate))
    seed = data.draw(st.integers(0, 2**16), label="seed")

    config = (Scenario(algorithm).servers(3).byzantine(f=1).shards(2)
              .rate(150).collector(10).inject_for(4).drain(40)
              .backend("ideal").faults(*events).seed(seed).build())
    deployment = Session(config).start().run().deployment
    router = deployment.shard_router

    # Shard ownership is fixed at admission, and neither shard ever loses
    # quorum (at most one of three members is down), so the routing function
    # reproduces each element's owner post hoc.
    shard_0_added = [e for e in deployment.injected_elements
                     if router.shard_for(e.element_id) == 0]
    assert shard_0_added

    views = {server.name: server.get() for server in deployment.servers
             if server.shard_index == 0}
    assert len(views) == 3
    violations = check_all(views, quorum=config.setchain.quorum,
                           all_added=shard_0_added, include_liveness=True)
    assert violations == [], violations[:5]

    report = deployment.shard_router.report(deployment.metrics)
    assert report["per_shard"]["0"]["added"] == len(shard_0_added)
    assert report["per_shard"]["0"]["committed"] == len(shard_0_added)
