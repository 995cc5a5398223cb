"""Tests for canonical hashing of batches and epochs."""

from repro.crypto.hashing import canonical_bytes_of, hash_batch, hash_epoch
from repro.workload.elements import make_element


def test_hash_batch_is_order_independent():
    elements = [make_element("c", 100) for _ in range(5)]
    assert hash_batch(elements) == hash_batch(list(reversed(elements)))


def test_hash_batch_differs_for_different_content():
    a = make_element("c", 100)
    b = make_element("c", 100)
    assert hash_batch([a]) != hash_batch([b])
    assert hash_batch([a]) != hash_batch([a, b])


def test_hash_batch_of_strings_and_bytes():
    assert hash_batch(["x", "y"]) == hash_batch([b"y", b"x"])


def test_empty_batch_has_stable_hash():
    assert hash_batch([]) == hash_batch([])
    assert len(hash_batch([])) == 128  # hex sha512


def test_hash_epoch_depends_on_epoch_number():
    elements = [make_element("c", 100)]
    assert hash_epoch(1, elements) != hash_epoch(2, elements)


def test_hash_epoch_order_independent():
    elements = [make_element("c", 100) for _ in range(4)]
    assert hash_epoch(3, elements) == hash_epoch(3, tuple(reversed(elements)))


def test_hash_epoch_differs_from_batch_hash():
    elements = [make_element("c", 100)]
    assert hash_epoch(1, elements) != hash_batch(elements)


def test_canonical_bytes_of_prefers_method():
    element = make_element("c", 77)
    assert canonical_bytes_of(element) is element._canonical
    assert canonical_bytes_of("abc") == b"abc"
    assert canonical_bytes_of(b"raw") == b"raw"
    assert canonical_bytes_of(123) == repr(123).encode()
