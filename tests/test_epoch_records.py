"""One epoch record per deployment: every server that derives an epoch's
content — its ids and elements in arrival order — shares its frozenset, its
hash and its id tuple, and the metrics skip re-stamping a record they stamped
in full.  The servers of a group whose epochs are those records read one
index of which epoch holds each id.

The oracle for the hash is a fresh ``hash_epoch`` over the server's own
history; for the metrics, the replaced per-element commit loop, kept below
(a collector that is never handed the same immutable object twice); for the
index, the ids of the server's own history.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Scenario, Session
from repro.analysis.metrics import ElementRecord, MetricsCollector
from repro.config import SetchainConfig
from repro.core import base, proofs, validation
from repro.core import hashchain as hashchain_module
from repro.core.types import epoch_proof_payload
from repro.core.vanilla import VanillaServer
from repro.crypto.hashing import hash_batch, hash_epoch
from repro.crypto.keys import PublicKeyInfrastructure
from repro.crypto.signatures import SignatureScheme
from repro.service import ServiceRuntime
from repro.sim.scheduler import Simulator
from repro.workload.elements import Element

from conftest import epoched_ids

_examples = settings(max_examples=40, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def _copies(specs: list[tuple[int, int]], digest: str = "digest") -> tuple[Element, ...]:
    """Fresh ``Element`` objects in ``specs`` order, equal by value to any
    other copy with the same ``digest`` prefix."""
    return tuple(Element(element_id, "client", size, f"{digest}-{element_id}")
                 for element_id, size in specs)


def _servers(count: int) -> tuple[SignatureScheme, list[VanillaServer]]:
    scheme = SignatureScheme(PublicKeyInfrastructure())
    sim = Simulator(seed=1)
    config = SetchainConfig(n_servers=count)
    return scheme, [VanillaServer(f"s{i}", sim, config, scheme,
                                  scheme.generate_keypair(f"s{i}"))
                    for i in range(count)]


def _ids(elements: tuple[Element, ...]) -> tuple[int, ...]:
    return tuple(element.element_id for element in elements)


def _checked(scheme, server, number: int, elements: tuple[Element, ...]):
    """Record ``elements`` (arrival order) as the server's next epoch (which
    must be ``number``) and check its set, hash and proof against a fresh
    hash of the set."""
    proof = server._record_new_epoch(_ids(elements), elements, None)
    fresh = hash_epoch(number, frozenset(elements))
    assert proof.epoch_number == number == server.epoch
    assert proof.epoch_hash == server._epoch_hashes[number] == fresh
    assert server.epoch_elements(number) == frozenset(elements)
    assert isinstance(server.epoch_elements(number), frozenset)
    assert scheme.verify(server.name, epoch_proof_payload(number, fresh),
                         proof.signature)
    return proof


# -- the shared record ------------------------------------------------------------

_SPECS = st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 5000)),
                  min_size=1, max_size=20, unique_by=lambda spec: spec[0])


@_examples
@given(_SPECS)
def test_the_record_is_keyed_by_exact_content_and_number(specs):
    scheme, (first, twin, forged, other, later) = _servers(5)
    elements, copy = _copies(specs), _copies(specs)
    assert elements == copy and not any(a is b for a, b in zip(elements, copy))
    unequal = _copies(specs, digest="forged")
    extra = max(element_id for element_id, _ in specs) + 1
    different = _copies(specs + [(extra, 100)])

    _checked(scheme, first, 1, elements)
    shared = first.epoch_elements(1)
    # Equal by value, distinct objects, same arrival order: the twin keeps
    # the first frozenset.
    _checked(scheme, twin, 1, copy)
    assert twin.epoch_elements(1) is shared
    # The same ids with unequal elements: their own frozenset and hash, and
    # the first record stays.
    _checked(scheme, forged, 1, unequal)
    assert forged.epoch_elements(1) is not shared
    assert forged._epoch_hashes[1] != first._epoch_hashes[1]
    assert scheme.epoch_records[1, _ids(elements)][1] is shared
    # Other ids at one number: another record, another hash.
    _checked(scheme, other, 1, different)
    assert other._epoch_hashes[1] != first._epoch_hashes[1]
    _checked(scheme, later, 1, different)
    assert later.epoch_elements(1) is other.epoch_elements(1)
    # The same ids at another number: the number is part of the key.
    _checked(scheme, later, 2, copy)
    assert later._epoch_hashes[2] != first._epoch_hashes[1]
    assert later.epoch_elements(2) is not shared
    assert len(scheme.epoch_records) == 3
    # One index for the servers whose epochs are the group's records, the
    # first's and the twin's; each other server copied one of its own.
    index = scheme.epoch_lineages["vanilla"][1]
    assert first._epoch_of is twin._epoch_of is index
    private = [forged._epoch_of, other._epoch_of, later._epoch_of]
    assert len({id(index), *map(id, private)}) == 4
    # The group's index runs ahead of the twin, which still answers only
    # for its own epoch.
    ahead = _copies([(extra + 1, 100)])
    _checked(scheme, first, 2, ahead)
    assert first._epoch_of is twin._epoch_of is index
    # Each answers as its own set of epoched ids did.
    for server, epochs in ((first, [elements, ahead]), (twin, [copy]),
                           (forged, [unequal]), (other, [different]),
                           (later, [different, copy])):
        assert epoched_ids(server) == {element.element_id
                                       for epoch in epochs for element in epoch}


@_examples
@given(_SPECS, st.data())
def test_an_epoch_hashes_alike_in_every_arrival_order(specs, data):
    elements = _copies(specs)
    order = tuple(data.draw(st.permutations(elements)))
    number = data.draw(st.integers(1, 10**6))
    assert hash_epoch(number, order) == hash_epoch(number, frozenset(elements))


@pytest.mark.parametrize("name", ["bench/vanilla", "bench/compresschain",
                                  "byz/golden/compresschain-equivocate",
                                  "chaos/smoke", "shard/smoke"])
def test_every_cached_epoch_hash_equals_a_fresh_one(name):
    session = Session(name, seed=7).start().run()
    servers = session.deployment.servers
    assert sum(server.epoch for server in servers) > 0
    for server in servers:
        assert sorted(server._epoch_hashes) == list(range(1, server.epoch + 1))
        for number, cached in server._epoch_hashes.items():
            assert cached == hash_epoch(number, server.epoch_elements(number))


# -- one epoch index per group ----------------------------------------------------


def _check_indexes(servers) -> dict[str, set[int]]:
    """Each server's epoched ids, read off its index, are its history's ids,
    all in its the_set; returns the ``id`` of every index, per group."""
    indexes: dict[str, set[int]] = {}
    for server in servers:
        history = {element.element_id for number in range(1, server.epoch + 1)
                   for element in server.epoch_elements(number)}
        assert epoched_ids(server) == history, server.name
        assert history <= server._the_set.keys(), server.name
        indexes.setdefault(server.algorithm_group(), set()).add(id(server._epoch_of))
    return indexes


@pytest.mark.parametrize("name", [
    "bench/vanilla", "bench/compresschain", "bench/hashchain-base",
    "byz/smoke", "byz/golden/compresschain-equivocate",
    "byz/golden/vanilla-silent", "chaos/smoke", "shard/smoke",
    "shard/elastic/add-shard-under-load", "member/smoke",
    "member/join/vanilla-pair", "member/join/compresschain-under-load"])
def test_the_index_answers_as_the_per_server_sets_did(name):
    """A joiner replays the chain behind a group index that already holds
    every epoch: it must still read only its own, or its epochs break the
    safety properties."""
    session = Session(name, seed=7).start().run()
    deployment = session.deployment
    servers = deployment.servers + deployment.departed_servers
    assert sum(server.epoch for server in servers) > 0
    _check_indexes(servers)
    assert session.check_properties(include_liveness=False) == []


#: The five end-to-end benchmark workloads' configs at seed 7, service-durable
#: driven as its pass drives it.
_WORKLOADS = {
    "bulk-hashchain": lambda: (
        Scenario.hashchain().servers(4).rate(20_000).collector(2000)
        .inject_for(1.25).drain(40).backend("ideal")),
    "perelement-vanilla": lambda: (
        Scenario.vanilla().servers(4).rate(20_000).block_size(8_388_608)
        .block_rate(4).inject_for(1.25).drain(40).backend("ideal")),
    "faulted-hashchain": lambda: (
        Scenario.hashchain().servers(10).rate(500).collector(100)
        .inject_for(20).drain(60)
        .partition(4.0, until=9.0, nodes=("server-7", "server-8", "server-9"))
        .crash(21.0, "server-2", until=26.0)),
    "service-durable": lambda: (
        Scenario.hashchain().servers(4).rate(1).collector(500)
        .inject_for(1).drain(1).backend("ideal")),
    "overload-1shard": lambda: (
        Scenario.hashchain().servers(3).byzantine(f=1).shards(1).rate(3_500)
        .collector(50).setchain(element_validation_time=2e-3).block_rate(2.0)
        .inject_for(20).drain(20).backend("ideal")),
}


@pytest.mark.parametrize("workload", sorted(_WORKLOADS))
def test_every_server_of_a_group_reads_one_index(workload, tmp_path):
    config = _WORKLOADS[workload]().seed(7).build()
    if workload == "service-durable":
        runtime = ServiceRuntime(config, db=tmp_path / "service.sqlite",
                                 tick=0.1, queue_limit=100_000)
        for _ in range(20):
            runtime.submit_many(500)
            runtime.tick()
        runtime.run_for(8.0)
        runtime.stop()
        deployment = runtime.deployment
    else:
        deployment = Session(config).start().run().deployment
    assert min(server.epoch for server in deployment.servers) > 1
    indexes = _check_indexes(deployment.servers)
    assert all(len(ids) == 1 for ids in indexes.values()), indexes


def test_a_fault_free_hashchain_run_hashes_each_epoch_and_batch_once():
    """Four servers hashed every epoch four times and every requested batch
    twice (at its flush and at the first requester's check)."""
    calls = {"epoch": 0, "batch": 0}

    def counting(kind, function):
        def wrapper(*args):
            calls[kind] += 1
            return function(*args)
        return wrapper

    epoch_counter = counting("epoch", hash_epoch)
    batch_counter = counting("batch", hash_batch)
    with mock.patch.object(base, "hash_epoch", epoch_counter), \
            mock.patch.object(proofs, "hash_epoch", epoch_counter), \
            mock.patch.object(hashchain_module, "hash_batch", batch_counter), \
            mock.patch.object(validation, "hash_batch", batch_counter):
        session = (Scenario.hashchain().servers(4).rate(2000).collector(250)
                   .inject_for(2).drain(10).backend("ideal").seed(3)
                   .session().start().run())
    servers = session.deployment.servers
    assert all(server.batch_requests_sent for server in servers)
    epochs = servers[0].epoch
    assert epochs > 1 and all(server.epoch == epochs for server in servers)
    assert calls["epoch"] == epochs
    assert calls["batch"] == len(session.deployment.metrics.batch_flushes) > 1
    assert session.deployment.metrics.committed_count == 4000


def test_a_fault_free_vanilla_run_holds_one_frozenset_per_epoch():
    session = (Scenario.vanilla().servers(4).rate(2000).inject_for(1).drain(5)
               .backend("ideal").seed(5).session().start().run())
    servers = session.deployment.servers
    epochs = servers[0].epoch
    assert epochs > 1 and all(server.epoch == epochs for server in servers)
    for number in range(1, epochs + 1):
        epoch = servers[0].epoch_elements(number)
        assert all(server.epoch_elements(number) is epoch for server in servers)
    assert len(servers[0].scheme.epoch_records) == epochs
    assert session.deployment.metrics.committed_count == 2000


# -- frozen epochs ------------------------------------------------------------------


def test_epochs_are_frozen_and_shared_by_get():
    session = (Scenario.hashchain().servers(4).rate(500).collector(50)
               .inject_for(1).drain(10).backend("ideal").seed(2)
               .session().start().run())
    server = session.deployment.servers[1]
    view = server.get()
    assert server.epoch > 0
    for number in range(1, server.epoch + 1):
        epoch = server.epoch_elements(number)
        assert view.history[number] is epoch
        assert isinstance(epoch, frozenset)
        with pytest.raises(AttributeError):
            epoch.add(next(iter(epoch)))  # type: ignore[attr-defined]
        with pytest.raises(AttributeError):
            view.history[number].clear()  # type: ignore[attr-defined]
    with pytest.raises(TypeError):
        view.history[1] = frozenset()  # type: ignore[index]


# -- the metrics skip ------------------------------------------------------------------

_OBSERVERS = ["s0", "s1", "s2", "s3"]
_ELEMENTS = [Element(i, "client", 100 + i, f"digest-{i}") for i in range(10)]


class ReferenceCollector(MetricsCollector):
    """The commit stamp as it was: region and shard tallies per element, and
    never a skipped repeat."""

    def record_epoch_committed(self, epoch_number, elements, time, observer="?"):
        if epoch_number not in self.epoch_commit_times:
            self.epoch_commit_times[epoch_number] = time
        region = self.region_of.get(observer)
        shard = self.shard_of.get(observer)
        records = self.elements
        for element in elements:
            element_id = element.element_id
            record = records.get(element_id)
            if record is None:
                records[element_id] = record = ElementRecord(element_id=element_id)
            if record.committed_at is None:
                record.committed_at = time
                self._committed_total += 1
                if record.injected_at is not None:
                    self.committed_injected += 1
                if region is not None:
                    self.region_committed[region] = (
                        self.region_committed.get(region, 0) + 1)
                    if region not in self.region_first_commit:
                        self.region_first_commit[region] = time
                if shard is not None:
                    self.shard_committed[shard] = (
                        self.shard_committed.get(shard, 0) + 1)
                    self.shard_commit_times.setdefault(shard, []).append(time)


def _collector(kind: type[MetricsCollector] = MetricsCollector) -> MetricsCollector:
    metrics = kind()
    metrics.set_region_map({"s0": "eu", "s1": "eu", "s2": "us", "s3": "us"})
    metrics.set_shard_map({"s0": 0, "s1": 0, "s2": 1, "s3": 1})
    metrics.record_injected_many(_ELEMENTS[::2], 0.5)
    return metrics


@_examples
@given(st.lists(st.frozensets(st.sampled_from(_ELEMENTS), min_size=1),
                min_size=1, max_size=4),
       st.lists(st.tuples(st.booleans(), st.integers(0, 3), st.integers(1, 3),
                          st.floats(1.0, 9.0), st.sampled_from(_OBSERVERS)),
                min_size=1, max_size=30))
def test_skipped_repeats_stamp_exactly_what_the_full_loop_stamps(contents, calls):
    records = [(content, tuple(element.element_id for element in content))
               for content in contents]
    shared, full = _collector(), _collector(ReferenceCollector)
    for commit, index, number, time, observer in calls:
        content, ids = records[index % len(records)]
        if commit:
            shared.record_epoch_committed(number, content, time, observer)
            full.record_epoch_committed(number, list(content), time, observer)
        else:
            shared.record_epoch_assigned_many(ids, number, time, observer)
            full.record_epoch_assigned_many(list(ids), number, time, observer)
    assert list(shared.elements.items()) == list(full.elements.items())
    for name in ("epoch_commit_times", "region_committed", "region_first_commit",
                 "shard_committed", "shard_commit_times", "committed_count",
                 "committed_injected"):
        assert getattr(shared, name) == getattr(full, name), name
