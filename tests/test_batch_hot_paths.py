"""PR 8 batched hot paths: batch/scalar crypto equivalence, verify-cache
eviction, batch-hash memoisation and the commit-times cache."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import MetricsCollector
from repro.core.batch_store import BatchRecord, BatchStore, batch_record
from repro.core.validation import batch_matches_hash
from repro.crypto.hashing import hash_batch
from repro.crypto.keys import PublicKeyInfrastructure
from repro.crypto import signatures
from repro.crypto.signatures import Ed25519Scheme, SimulatedScheme
from repro.workload.elements import Element, make_element

_crypto = settings(max_examples=25, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


def _schemes():
    """Fresh instances of both backends sharing nothing."""
    return [SimulatedScheme(PublicKeyInfrastructure()),
            Ed25519Scheme(PublicKeyInfrastructure())]


# -- verify_many equivalence -------------------------------------------------


@_crypto
@given(st.lists(st.tuples(st.sampled_from(["server-0", "server-1", "ghost"]),
                          st.text(max_size=30),
                          st.booleans()),
                max_size=10),
       st.booleans())
def test_verify_many_matches_scalar_verify(entries, warm_cache):
    """Batch verdicts equal scalar verdicts: unknown owners, corrupted
    signatures, and cache warm/cold states included."""
    for scheme in _schemes():
        pairs = {owner: scheme.generate_keypair(owner, deployment_seed=5)
                 for owner in ("server-0", "server-1")}
        signer = pairs["server-0"]
        triples = []
        for owner, message, corrupt in entries:
            signature = scheme.sign(signer, message)
            if corrupt:
                signature = bytes(64)  # a tag nobody produced
            triples.append((owner, message, signature))
        # A scalar-verified reference on an identical, independent scheme —
        # the scheme under test must agree whether its cache is cold or warm.
        fresh = type(scheme)(PublicKeyInfrastructure())
        for owner in pairs:
            fresh.generate_keypair(owner, deployment_seed=5)
        expected = [fresh.verify(*t) for t in triples]
        if warm_cache:
            scheme.verify_many(triples)  # prime the positive cache
        assert scheme.verify_many(triples) == expected
        assert [scheme.verify(*t) for t in triples] == expected


def test_verify_many_unknown_owner_is_false_not_raise():
    for scheme in _schemes():
        keypair = scheme.generate_keypair("server-0")
        sig = scheme.sign(keypair, "msg")
        assert scheme.verify_many([("nobody", "msg", sig),
                                   ("server-0", "msg", sig)]) == [False, True]


# -- verify-cache FIFO eviction ----------------------------------------------------------

def test_verify_cache_evicts_oldest_half_in_fifo_order(monkeypatch):
    monkeypatch.setattr(signatures, "_VERIFY_CACHE_MAX", 8)
    scheme = SimulatedScheme(PublicKeyInfrastructure())
    keypair = scheme.generate_keypair("server-0")
    messages = [f"m{i}" for i in range(8)]
    triples = [("server-0", m, scheme.sign(keypair, m)) for m in messages]
    assert scheme.verify_many(triples) == [True] * 8
    assert len(scheme._verified) == 8
    # The next fresh positive triggers retirement of the oldest half only.
    extra = ("server-0", "m8", scheme.sign(keypair, "m8"))
    assert scheme.verify(*extra)
    cached = list(scheme._verified)
    assert cached == triples[4:] + [extra]
    # Evicted entries still verify (recomputed, then re-cached at the tail).
    assert scheme.verify(*triples[0])
    assert list(scheme._verified)[-1] == triples[0]


# -- batch-hash memoisation --------------------------------------------------------------

def test_batch_matches_hash_memoises_per_tuple_identity():
    records: dict = {}
    batch = tuple(make_element("c", 100) for _ in range(3))
    digest = hash_batch(batch)
    assert batch_matches_hash(batch, digest, records)
    record = records[id(batch)]
    assert list(records) == [id(batch)]
    assert record.items is batch and record.digest == digest
    assert not batch_matches_hash(batch, "0" * 128, records)
    # The recorded digest answers: no recompute.
    record.digest = "0" * 128
    assert batch_matches_hash(batch, "0" * 128, records)
    # A record only speaks for the very tuple it pins (ids can be reused).
    records[id(batch)] = BatchRecord(tuple(list(batch)), "0" * 128)
    assert batch_matches_hash(batch, digest, records)
    assert records[id(batch)].items is batch
    # Lists, and callers without records, hash every time and agree.
    assert batch_matches_hash(list(batch), digest, records) and len(records) == 1
    assert batch_matches_hash(batch, digest)
    assert not batch_matches_hash(batch, "0" * 128)


def test_batch_record_payload_size_is_computed_once_and_correct():
    store = BatchStore()
    batch = tuple(make_element("c", size) for size in (100, 250, 7))
    store.register_local("h1", batch)
    records: dict = {}
    record = batch_record(store.get("h1"), records)
    assert record.size == 357
    assert batch_record(batch, records) is record  # one record per tuple
    assert not hasattr(store, "payload_size")


# -- commit-times cache ------------------------------------------------------------------

def test_commit_times_cache_invalidates_on_new_commits():
    metrics = MetricsCollector()
    first = make_element("c", 10)
    second = make_element("c", 10)
    metrics.record_epoch_committed(1, [first], time=5.0)
    assert metrics.commit_times() == [5.0]
    assert metrics.commit_times() is metrics.commit_times()  # cached list
    metrics.record_epoch_committed(2, [second], time=3.0)
    assert metrics.commit_times() == [3.0, 5.0]
