"""One epoch record per deployment: every server that derives an epoch's
content shares its frozenset, its hash and its id list, and the metrics skip
re-stamping a record they stamped in full.

The oracle for the hash is a fresh ``hash_epoch`` over the server's own
history; for the metrics, the full element loop (a collector that is never
handed the same immutable object twice).
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Scenario, Session
from repro.analysis.metrics import MetricsCollector
from repro.config import SetchainConfig
from repro.core import base, proofs, validation
from repro.core import hashchain as hashchain_module
from repro.core.types import epoch_proof_payload
from repro.core.vanilla import VanillaServer
from repro.crypto.hashing import hash_batch, hash_epoch
from repro.crypto.keys import PublicKeyInfrastructure
from repro.crypto.signatures import SimulatedScheme
from repro.sim.scheduler import Simulator
from repro.workload.elements import Element

_examples = settings(max_examples=40, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def _copies(specs: list[tuple[int, int]]) -> frozenset[Element]:
    """Fresh ``Element`` objects, equal by value to any other copy."""
    return frozenset(Element(element_id, "client", size, f"digest-{element_id}")
                     for element_id, size in specs)


def _servers(count: int) -> tuple[SimulatedScheme, list[VanillaServer]]:
    scheme = SimulatedScheme(PublicKeyInfrastructure())
    sim = Simulator(seed=1)
    config = SetchainConfig(n_servers=count)
    return scheme, [VanillaServer(f"s{i}", sim, config, scheme,
                                  scheme.generate_keypair(f"s{i}"))
                    for i in range(count)]


def _checked(scheme, server, number: int, content: frozenset[Element]):
    """Record ``content`` as the server's next epoch (which must be
    ``number``) and check its hash and proof against a fresh hash."""
    proof = server._record_new_epoch(content, None)
    fresh = hash_epoch(number, content)
    assert proof.epoch_number == number == server.epoch
    assert proof.epoch_hash == server._epoch_hashes[number] == fresh
    assert server.epoch_elements(number) == content
    assert scheme.verify(server.name, epoch_proof_payload(number, fresh),
                         proof.signature)
    return proof


# -- the shared record ------------------------------------------------------------


@_examples
@given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 5000)),
                min_size=1, max_size=20, unique_by=lambda spec: spec[0]))
def test_the_record_is_keyed_by_exact_content_and_number(specs):
    scheme, (first, twin, other, later) = _servers(4)
    content, copy = _copies(specs), _copies(specs)
    assert content == copy and not any(a is b for a in content for b in copy)
    extra = max(element_id for element_id, _ in specs) + 1
    different = _copies(specs + [(extra, 100)])

    _checked(scheme, first, 1, content)
    # Equal by value, distinct objects: the twin keeps the first frozenset.
    _checked(scheme, twin, 1, copy)
    assert twin.epoch_elements(1) is first.epoch_elements(1) is content
    # Two contents at one number: two records, two hashes.
    _checked(scheme, other, 1, different)
    assert other.epoch_elements(1) is different
    assert other._epoch_hashes[1] != first._epoch_hashes[1]
    # One content at two numbers: the number is part of the key.
    _checked(scheme, later, 1, different)
    _checked(scheme, later, 2, copy)
    assert later._epoch_hashes[2] != first._epoch_hashes[1]
    assert later.epoch_elements(2) is copy
    assert len(scheme.epoch_records) == 3


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
            mock.patch.object(validation, "hash_epoch", epoch_counter), \
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


def _collector() -> MetricsCollector:
    metrics = MetricsCollector()
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
    shared, full = _collector(), _collector()
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
