"""Tests for Setchain core types, validation predicates, collector, and batch store."""

import pytest

from repro.config import EPOCH_PROOF_SIZE, HASH_BATCH_SIZE
from repro.core.batch_store import BatchRecord, BatchStore
from repro.core.collector import Collector
from repro.core.proofs import create_epoch_proof
from repro.core.types import EpochProof, HashBatch, SetchainView
from repro.core.validation import (
    batch_matches_hash,
    valid_element,
    valid_hash_batch,
    valid_proof,
)
from repro.crypto.hashing import hash_batch
from repro.crypto.keys import PublicKeyInfrastructure
from repro.crypto.signatures import SimulatedScheme
from repro.errors import ConfigurationError, SetchainError
from repro.sim.scheduler import Simulator
from repro.workload.elements import make_element


@pytest.fixture
def scheme():
    return SimulatedScheme(PublicKeyInfrastructure())


# -- types ---------------------------------------------------------------------------

def test_epoch_proof_sizes_match_paper():
    proof = EpochProof(epoch_number=1, epoch_hash="h", signature=b"s", signer="v")
    assert proof.size_bytes == EPOCH_PROOF_SIZE == 139
    hb = HashBatch(batch_hash="h", signature=b"s", signer="v")
    assert hb.size_bytes == HASH_BATCH_SIZE == 139


def test_epoch_proof_validation():
    with pytest.raises(SetchainError):
        EpochProof(epoch_number=0, epoch_hash="h", signature=b"s", signer="v")
    with pytest.raises(SetchainError):
        EpochProof(epoch_number=1, epoch_hash="h", signature=b"s", signer="")
    with pytest.raises(SetchainError):
        HashBatch(batch_hash="", signature=b"s", signer="v")


def test_proof_and_hash_batch_are_not_elements():
    proof = EpochProof(epoch_number=1, epoch_hash="h", signature=b"s", signer="v")
    hb = HashBatch(batch_hash="h", signature=b"s", signer="v")
    assert not proof.is_element and not hb.is_element
    assert proof.canonical_bytes() != hb.canonical_bytes()


def test_setchain_view_snapshot_is_immutable_copy():
    e1, e2 = make_element("c", 10), make_element("c", 10)
    the_set = {e1.element_id: e1, e2.element_id: e2}
    history = {1: {e1}}
    view = SetchainView.snapshot(the_set, history, 1, set())
    history[1].add(e2)  # later mutation must not affect the snapshot
    assert view.history[1] == frozenset({e1})
    assert view.the_set == frozenset({e1, e2})
    assert view.epoch == 1


def test_setchain_view_helpers():
    e1, e2 = make_element("c", 10), make_element("c", 10)
    view = SetchainView.snapshot({e1.element_id: e1, e2.element_id: e2},
                                 {1: {e1}, 2: {e2}}, 2, set())
    assert view.epoch_of(e1) == 1 and view.epoch_of(e2) == 2
    assert view.epoch_of(make_element("c", 10)) is None
    assert view.elements_in_epochs() == frozenset({e1, e2})
    assert view.proofs_for(1) == frozenset()


# -- validation ---------------------------------------------------------------------------

def test_valid_element_checks():
    assert valid_element(make_element("c", 100))
    assert not valid_element(make_element("c", 100, valid=False))
    assert not valid_element("not an element")
    assert not valid_element(None)


def test_valid_proof_requires_matching_epoch_and_signature(scheme):
    keypair = scheme.generate_keypair("server-0")
    elements = [make_element("c", 50) for _ in range(3)]
    proof = create_epoch_proof(scheme, keypair, 1, elements)
    assert valid_proof(proof, scheme, elements)
    assert not valid_proof(proof, scheme, elements[:-1])     # different content
    assert not valid_proof(proof, scheme, None)              # epoch unknown locally
    assert not valid_proof("junk", scheme, elements)
    forged = EpochProof(epoch_number=1, epoch_hash=proof.epoch_hash,
                        signature=b"0" * 64, signer="server-0")
    assert not valid_proof(forged, scheme, elements)


def test_valid_hash_batch_checks_signature(scheme):
    from repro.core.types import hash_batch_payload
    keypair = scheme.generate_keypair("server-0")
    items = [make_element("c", 30)]
    digest = hash_batch(items)
    hb = HashBatch(batch_hash=digest,
                   signature=scheme.sign(keypair, hash_batch_payload(digest)),
                   signer="server-0")
    assert valid_hash_batch(hb, scheme)
    assert batch_matches_hash(items, digest)
    assert not batch_matches_hash(items + [make_element("c", 30)], digest)
    bogus = HashBatch(batch_hash=digest, signature=b"x" * 64, signer="server-0")
    assert not valid_hash_batch(bogus, scheme)
    assert not valid_hash_batch("junk", scheme)


def test_batch_record_splits_and_drops_garbage(scheme):
    keypair = scheme.generate_keypair("server-0")
    elements = [make_element("c", 10), make_element("c", 20)]
    proof = create_epoch_proof(scheme, keypair, 1, elements)
    record = BatchRecord(tuple(elements + [proof, "garbage", 42]))
    assert record.elements == tuple(elements)
    assert record.proofs == (proof,)


# -- collector ----------------------------------------------------------------------------

def test_collector_flushes_on_size_limit():
    sim = Simulator()
    flushed = []
    collector = Collector(sim, limit=3, timeout=10.0, on_flush=lambda b: flushed.append(list(b)))
    for i in range(7):
        collector.add(i)
    assert flushed == [[0, 1, 2], [3, 4, 5]]
    assert len(collector) == 1
    assert collector.size_flushes == 2


def test_collector_flushes_on_timeout():
    sim = Simulator()
    flushed = []
    collector = Collector(sim, limit=100, timeout=2.0, on_flush=lambda b: flushed.append(list(b)))
    collector.add("a")
    sim.run_until(1.0)
    assert flushed == []
    sim.run_until(2.5)
    assert flushed == [["a"]]
    assert collector.timeout_flushes == 1


def test_collector_timeout_timer_restarts_per_batch():
    sim = Simulator()
    flushed = []
    collector = Collector(sim, limit=100, timeout=2.0, on_flush=lambda b: flushed.append(list(b)))
    collector.add("a")
    sim.run_until(2.5)
    collector.add("b")
    sim.run_until(3.0)
    assert flushed == [["a"]]   # second batch not yet timed out
    sim.run_until(5.0)
    assert flushed == [["a"], ["b"]]


def test_collector_flush_now_and_empty_flush_is_noop():
    sim = Simulator()
    flushed = []
    collector = Collector(sim, limit=100, timeout=5.0, on_flush=lambda b: flushed.append(list(b)))
    collector.flush_now()
    assert flushed == []
    collector.add(1)
    collector.flush_now()
    assert flushed == [[1]]
    assert collector.pending == ()


def test_collector_validation():
    sim = Simulator()
    with pytest.raises(ConfigurationError):
        Collector(sim, limit=0, timeout=1.0, on_flush=lambda b: None)
    with pytest.raises(ConfigurationError):
        Collector(sim, limit=1, timeout=0.0, on_flush=lambda b: None)


# -- batch store -----------------------------------------------------------------------------

def test_batch_store_local_and_remote_registration():
    store = BatchStore()
    store.register_local("h1", ("a",))
    store.register_remote("h2", ("b",))
    assert "h1" in store and "h2" in store and len(store) == 2
    assert store.is_local("h1") and not store.is_local("h2")
    assert store.recovered == 1
    assert store.get("h1") == ("a",)
    assert store.get("missing") is None


def test_batch_store_serve_counts_requests():
    store = BatchStore()
    store.register_local("h", ("x",))
    assert store.serve("h") == ("x",)
    assert store.serve("nope") is None
    assert store.served_requests == 1
