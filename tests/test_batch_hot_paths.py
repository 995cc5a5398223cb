"""PR 8 batched hot paths: batch/scalar crypto equivalence, verify-cache
eviction, batch-hash memoisation and the commit-times cache."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import MetricsCollector
from repro.core.batch_store import BatchStore
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


# -- sign_many / verify_many equivalence -------------------------------------------------

@_crypto
@given(st.lists(st.text(max_size=40), max_size=8))
def test_sign_many_is_bitwise_scalar_equivalent(messages):
    for scheme in _schemes():
        keypair = scheme.generate_keypair("server-0", deployment_seed=3)
        batch = scheme.sign_many(keypair, messages)
        assert batch == [scheme.sign(keypair, m) for m in messages]


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
    memo: dict = {}
    batch = tuple(make_element("c", 100) for _ in range(3))
    digest = hash_batch(batch)
    assert batch_matches_hash(batch, digest, memo)
    assert memo == {id(batch): (batch, digest)}
    assert not batch_matches_hash(batch, "0" * 128, memo)
    # The memoised digest answers: no recompute.
    memo[id(batch)] = (batch, "0" * 128)
    assert batch_matches_hash(batch, "0" * 128, memo)
    # An entry only speaks for the very tuple it pins (ids can be reused).
    memo[id(batch)] = (tuple(list(batch)), "0" * 128)
    assert batch_matches_hash(batch, digest, memo)
    # Lists, and callers without a memo, hash every time and agree.
    assert batch_matches_hash(list(batch), digest, memo) and len(memo) == 1
    assert batch_matches_hash(batch, digest)
    assert not batch_matches_hash(batch, "0" * 128)


def test_batch_store_payload_size_is_cached_and_correct():
    store = BatchStore()
    batch = tuple(make_element("c", size) for size in (100, 250, 7))
    store.register_local("h1", batch)
    assert store.payload_size("h1") == 357
    assert store.payload_size("h1") == 357  # served from the size cache
    assert store.payload_size("missing") == 0


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
