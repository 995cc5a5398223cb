"""Unit tests for deterministic RNG streams."""

from repro.sim.rng import DRAWS, DeterministicRNG, derive_seed


def test_same_seed_same_stream():
    a = DeterministicRNG(5)
    b = DeterministicRNG(5)
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_seeds_differ():
    a = DeterministicRNG(5)
    b = DeterministicRNG(6)
    assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]


def test_derive_seed_is_stable_and_label_sensitive():
    assert derive_seed(1, "client", 0) == derive_seed(1, "client", 0)
    assert derive_seed(1, "client", 0) != derive_seed(1, "client", 1)
    assert derive_seed(1, "client") != derive_seed(2, "client")


def test_derive_returns_independent_streams():
    root = DeterministicRNG(99)
    a = root.derive("network")
    b = root.derive("client", 3)
    seq_a = [a.random() for _ in range(5)]
    seq_b = [b.random() for _ in range(5)]
    assert seq_a != seq_b
    # Re-deriving reproduces the same child stream.
    a2 = DeterministicRNG(99).derive("network")
    assert [a2.random() for _ in range(5)] == seq_a


def test_draw_helpers_within_ranges():
    rng = DeterministicRNG(3)
    for _ in range(100):
        assert 0.0 <= rng.random() < 1.0
        assert 2.0 <= rng.uniform(2.0, 4.0) <= 4.0
        assert rng.expovariate(10.0) >= 0.0
        assert rng.lognormvariate(0.0, 1.0) > 0.0
        assert 1 <= rng.randint(1, 6) <= 6
    assert len(rng.randbytes(16)) == 16


def test_draws_are_the_streams_own_bound_methods():
    """No wrapper frame per draw: hoisting ``rng.lognormvariate`` out of a
    loop hoists ``random.Random``'s method itself."""
    rng = DeterministicRNG(3)
    for name in DRAWS:
        assert getattr(rng, name) == getattr(rng._random, name)
    assert rng.derive("x").random.__self__ is not rng._random


def test_choice_sample_shuffle_are_deterministic():
    items = list(range(20))
    a = DeterministicRNG(11)
    b = DeterministicRNG(11)
    assert a.choice(items) == b.choice(items)
    assert a.sample(items, 5) == b.sample(items, 5)
    items_a, items_b = items[:], items[:]
    a.shuffle(items_a)
    b.shuffle(items_b)
    assert items_a == items_b
