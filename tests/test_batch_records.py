"""One batch record per flushed tuple: every Hashchain server that checks,
serves, absorbs or fills a batch reads the split, the digest and the size
the deployment worked out once for that tuple, and an epoch filled from it
is the record's id and element tuples, frozen once in the epoch record.

The oracle for absorb and fill is the per-item code the record replaced,
kept below as :class:`ReferenceServer`: each server walked the
items itself, fed ``the_set`` first-wins with ``setdefault`` and built the
G-set last-wins in a dict of its own.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Scenario
from repro.analysis.metrics import MetricsCollector
from repro.config import SetchainConfig
from repro.core import batch_store
from repro.core.batch_store import BatchRecord
from repro.core.hashchain import HashchainServer
from repro.core.types import EpochProof
from repro.core.validation import batch_matches_hash
from repro.crypto.hashing import hash_batch
from repro.crypto.keys import PublicKeyInfrastructure
from repro.crypto.signatures import SignatureScheme
from repro.net.message import Message
from repro.sim.scheduler import Simulator
from repro.workload.elements import Element, make_element

from conftest import epoched_ids


class ReferenceServer(HashchainServer):
    """The per-item absorb and fill loops, as they were before the record."""

    def _absorb_batch(self, digest, items):
        pending = self._pending_replay(digest)
        if pending is not None:
            self.scan_cache_hits += 1
            if pending:
                self._absorb_proofs(pending)
            return
        proofs: list[EpochProof] = []
        elements: list[Element] = []
        epoched = epoched_ids(self)
        the_set = self._the_set
        for item in items:
            if isinstance(item, Element):
                if item.valid:
                    elements.append(item)
                    if item.element_id not in epoched:
                        the_set.setdefault(item.element_id, item)
            elif isinstance(item, EpochProof):
                proofs.append(item)
        self._scanned_batches[digest] = proofs
        self._scanned_elements[digest] = elements
        if proofs:
            self._absorb_proofs(proofs)

    def _try_fill_epochs(self):
        while self._fill_queue:
            digest = self._fill_queue[0]
            items = self.store.get(digest)
            if items is None and self.shared_store is not None:
                items = self.shared_store.get(digest)
                if items is not None:
                    self.store.register_remote(digest, items)
            if items is None:
                return
            self._fill_queue.popleft()
            block = self._fill_meta.pop(digest)
            scanned = self._scanned_elements.pop(digest, None)
            epoched = epoched_ids(self)
            if scanned is not None:
                fresh = {element.element_id: element for element in scanned
                         if element.element_id not in epoched}
            else:
                fresh = {}
                the_set = self._the_set
                for element in items:
                    if (isinstance(element, Element) and element.valid
                            and element.element_id not in epoched):
                        the_set.setdefault(element.element_id, element)
                        fresh[element.element_id] = element
            if fresh:
                proof = self._byz_outgoing_proof(
                    self._record_new_epoch(tuple(fresh), tuple(fresh.values()),
                                           block))
                if proof is not None and not self.bootstrapping:
                    self.add_to_batch(proof)


def _world(kind: type[HashchainServer]) -> list[HashchainServer]:
    """An origin and a peer sharing one scheme (hence one record table)."""
    scheme = SignatureScheme(PublicKeyInfrastructure())
    sim = Simulator(seed=1)
    config = SetchainConfig(n_servers=4, collector_limit=10**6)
    return [kind(name, sim, config, scheme,
                 scheme.generate_keypair(name, deployment_seed=3))
            for name in ("server-0", "server-1")]


def _state(server: HashchainServer) -> dict:
    return {
        "the_set": list(server._the_set.items()),
        "epochs": [list(server.epoch_elements(number))
                   for number in range(1, server.epoch + 1)],
        "replay": dict(server._scanned_batches),
        "epoched": epoched_ids(server),
        "proofs": server._proofs,
        "future": server._future_proofs,
        "invalid": server.invalid_proofs,
        "hits": server.scan_cache_hits,
        "emitted": list(server.collector.pending_view()),
    }


_ID = st.integers(0, 7)
_ITEM = st.one_of(
    # An element: id, one of three contents for that id, validity.
    st.tuples(st.just("element"), _ID, st.integers(0, 2), st.booleans()),
    # An epoch-proof: epoch number, one of two hashes, signer.
    st.tuples(st.just("proof"), st.integers(1, 3), st.integers(0, 1),
              st.sampled_from(["server-0", "server-1", "server-2"])),
    st.just(("garbage",)))


def _item(spec):
    if spec[0] == "element":
        _, element_id, variant, valid = spec
        return Element(element_id, "client", 100 + variant,
                       f"digest-{element_id}-{variant}", valid=valid)
    if spec[0] == "proof":
        _, number, variant, signer = spec
        return EpochProof(number, f"hash-{variant}", b"signature", signer)
    return "garbage"


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(batches=st.lists(st.lists(_ITEM, min_size=1, max_size=10),
                        min_size=1, max_size=4),
       held=st.lists(st.tuples(_ID, st.integers(0, 2)), max_size=4),
       epoched=st.sets(_ID, max_size=3),
       ops=st.lists(st.tuples(st.sampled_from(["absorb", "fill"]),
                              st.integers(0, 3)), max_size=12))
def test_absorb_and_fill_equal_the_per_item_loops(batches, held, epoched, ops):
    """Duplicate ids with conflicting content, invalid elements, interleaved
    proofs, ids already epoched (hence held) or held, unscanned fills,
    co-sign repeats; the origin (which holds its own elements) and a peer."""
    tuples = [tuple(_item(spec) for spec in specs) for specs in batches]
    worlds = {"record": _world(HashchainServer), "reference": _world(ReferenceServer)}
    for origin, peer in worlds.values():
        for server in (origin, peer):
            if epoched:  # a recorded epoch 1, its ids in the_set first
                first = tuple(_item(("element", element_id, 0, True))
                              for element_id in sorted(epoched))
                server._the_set.update((e.element_id, e) for e in first)
                server._record_new_epoch(tuple(sorted(epoched)), first, None)
            for element_id, variant in held:
                server._the_set.setdefault(element_id, _item(
                    ("element", element_id, variant, True)))
            for index, items in enumerate(tuples):
                server.store.register_local(f"batch-{index}", items)
        for items in tuples:  # as add_many left them at the origin
            for item in items:
                if isinstance(item, Element) and item.valid:
                    origin._the_set.setdefault(item.element_id, item)
    filled: set[int] = set()
    for action, index in ops:
        index %= len(tuples)
        digest = f"batch-{index}"
        if action == "fill" and index in filled:
            continue
        for servers in worlds.values():
            for server in servers:
                if action == "absorb":
                    server._absorb_batch(digest, tuples[index])
                else:
                    server._fill_queue.append(digest)
                    server._fill_meta[digest] = None
                    server._try_fill_epochs()
        if action == "fill":
            filled.add(index)
        for ours, theirs in zip(worlds["record"], worlds["reference"]):
            assert _state(ours) == _state(theirs)


def test_the_fast_branches_share_one_record_and_one_frozenset():
    """A peer's first sight of a clean batch is one update; every server that
    fills it holds the record's frozenset."""
    origin, peer = _world(HashchainServer)
    items = tuple(make_element("client", 100 + index) for index in range(5))
    for server in (origin, peer):
        server.store.register_local("batch", items)
    origin._the_set.update((element.element_id, element) for element in items)
    for server in (origin, peer):
        server._absorb_batch("batch", items)
        server._fill_queue.append("batch")
        server._fill_meta["batch"] = None
        server._try_fill_epochs()
    record = origin.scheme.batch_records[id(items)]
    assert record.digest is None  # absorbing never sets it
    assert list(peer._the_set.values()) == list(items)
    epoch = origin.epoch_elements(1)
    assert peer.epoch_elements(1) is epoch
    assert list(epoch) == list(frozenset(items))
    (key, (elements, content, _, ids)), = origin.scheme.epoch_records.items()
    assert key == (1, record.ids) and content is epoch
    assert ids is record.ids and elements is record.elements


# -- the record itself -----------------------------------------------------------------

def test_a_record_splits_and_sizes_its_batch():
    valid = [make_element("client", size) for size in (100, 250, 7)]
    invalid = make_element("client", 50, valid=False)
    proof = EpochProof(1, "hash", b"signature", "server-0")
    items = (valid[0], invalid, proof, valid[1], "garbage", valid[2])
    record = BatchRecord(items)
    assert record.items is items and record.digest is None
    assert record.elements == tuple(valid)
    assert record.ids == tuple(element.element_id for element in valid)
    assert record.proofs == (proof,)
    assert record.unique
    assert record.size == 100 + 50 + proof.size_bytes + 250 + 7
    twin = Element(valid[0].element_id, "client", 999, "other")
    assert not BatchRecord((valid[0], twin)).unique
    empty = BatchRecord((), "digest")
    assert empty.elements == empty.ids == empty.proofs == () and empty.unique


class _Ledger:
    def append(self, tx) -> None:
        pass

    def subscribe(self, app) -> None:
        pass


def test_a_flush_shares_the_id_tuple_and_keeps_invalid_ids():
    """The metrics get every element id of a flush, valid or not: the
    record's own tuple when all are valid, a tuple of all of them else."""
    server = _world(HashchainServer)[0]
    server.metrics = metrics = MetricsCollector()
    server.connect_ledger(_Ledger())
    proof = EpochProof(1, "hash", b"signature", "server-1")
    clean = (make_element("client", 100), proof, make_element("client", 200))
    invalid = make_element("client", 300, valid=False)
    mixed = (clean[0], invalid, proof, "garbage")
    for items in (clean, mixed):
        server._flush_batch(items)
    records = server.scheme.batch_records
    (clean_ids, mixed_ids) = metrics.tx_elements.values()
    assert clean_ids is records[id(clean)].ids
    assert clean_ids == (clean[0].element_id, clean[2].element_id)
    assert mixed_ids == (clean[0].element_id, invalid.element_id)
    assert records[id(mixed)].ids == (clean[0].element_id,)
    assert list(metrics.hash_elements.values()) == [clean_ids, mixed_ids]


def test_a_forged_or_altered_reply_gets_its_own_record_and_is_refused():
    server = _world(HashchainServer)[1]
    records = server.scheme.batch_records
    genuine = tuple(make_element("client", 100 + index) for index in range(3))
    digest = hash_batch(genuine)
    records[id(genuine)] = seeded = BatchRecord(genuine, digest)
    altered = genuine[:2] + (make_element("client", 500),)
    truncated = genuine[:2]

    def reply(items) -> None:
        server._on_batch_response(Message("server-0", "server-1",
                                          "batch_response", (digest, items)))

    for bad in (altered, truncated):
        reply(bad)
        assert server.store.get(digest) is None
        assert records[id(bad)].items is bad
        assert records[id(bad)].digest == hash_batch(bad) != digest
    assert records[id(genuine)] is seeded and len(records) == 3
    # The hash is order-free: a reordered copy is another tuple, hashed once
    # on its own record (whose split follows its own order), and accepted.
    copy = tuple(reversed(genuine))
    reply(copy)
    assert server.store.get(digest) is copy
    assert records[id(copy)].digest == digest and len(records) == 4
    assert records[id(copy)].elements == copy
    reply(genuine)
    assert server.store.get(digest) is genuine and len(records) == 4


def test_a_fault_free_run_builds_one_record_per_flush():
    built: list[BatchRecord] = []
    real_init = BatchRecord.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    with mock.patch.object(batch_store.BatchRecord, "__init__", counting):
        session = (Scenario.hashchain().servers(4).rate(2000).collector(250)
                   .inject_for(2).drain(10).backend("ideal").seed(3)
                   .session().start().run())
    deployment = session.deployment
    servers = deployment.servers
    records = servers[0].scheme.batch_records
    assert all(server.batch_requests_sent for server in servers)
    assert len(built) == len(records) == len(deployment.metrics.batch_flushes) > 1
    assert sorted(map(id, built)) == sorted(map(id, records.values()))
    for record in built:
        assert record.digest == hash_batch(record.items)
        assert record.size == sum(item.size_bytes for item in record.items)
    # Each epoch is one record's ids and elements, frozen once: the same
    # frozenset at every server.
    epoch_records = servers[0].scheme.epoch_records
    assert len(epoch_records) == servers[0].epoch
    for (number, ids), (elements, content, _, _) in epoch_records.items():
        assert all(server.epoch_elements(number) is content for server in servers)
        assert any(record.ids is ids and record.elements is elements
                   for record in built)
    assert deployment.metrics.committed_count == 4000
