"""Tests for elements, the Arbitrum-like generator and clients."""

import pytest

from repro.config import WorkloadConfig
from repro.errors import ConfigurationError, InvalidElementError
from repro.sim.rng import DeterministicRNG
from repro.sim.scheduler import Simulator
from repro.workload.clients import ClientPool, InjectionClient
from repro.workload.elements import Element, make_element
from repro.workload.generator import MIN_ELEMENT_SIZE, ArbitrumLikeGenerator, ElementSizeStats
from repro.crypto.hashing import canonical_bytes_of


class SinkServer:
    """Minimal add target collecting elements."""

    def __init__(self):
        self.elements = []

    def add_many(self, elements):
        self.elements.extend(elements)
        return len(elements)


# -- elements -----------------------------------------------------------------------

def test_make_element_assigns_unique_ids():
    ids = {make_element("c", 100).element_id for _ in range(100)}
    assert len(ids) == 100


def test_element_rejects_non_positive_size():
    with pytest.raises(InvalidElementError):
        Element(element_id=1, client="c", size_bytes=0, body_digest="d")


def test_element_canonical_bytes_stable_and_distinct():
    a = make_element("c", 100)
    b = make_element("c", 100)
    assert canonical_bytes_of(a) == canonical_bytes_of(a)
    assert canonical_bytes_of(a) != canonical_bytes_of(b)


# -- generator -----------------------------------------------------------------------

def test_generator_matches_paper_statistics():
    generator = ArbitrumLikeGenerator(DeterministicRNG(1))
    sizes = [generator.next_size() for _ in range(20_000)]
    mean = sum(sizes) / len(sizes)
    variance = sum((s - mean) ** 2 for s in sizes) / len(sizes)
    # Paper: mean 438, std 753.5.  Allow sampling tolerance.
    assert mean == pytest.approx(438, rel=0.10)
    assert variance ** 0.5 == pytest.approx(753.5, rel=0.30)
    assert min(sizes) >= MIN_ELEMENT_SIZE


def test_generator_zero_std_is_constant():
    generator = ArbitrumLikeGenerator(DeterministicRNG(1), ElementSizeStats(200.0, 0.0))
    assert {generator.next_size() for _ in range(10)} == {200}


def test_generator_counts_and_mean():
    generator = ArbitrumLikeGenerator(DeterministicRNG(2))
    assert generator.observed_mean_size == 0.0
    batch = generator.batch("client-0", 50, now=1.0)
    assert len(batch) == 50
    assert generator.generated == 50
    assert generator.observed_mean_size > 0
    assert all(e.client == "client-0" and e.created_at == 1.0 for e in batch)


def test_element_size_stats_validation():
    with pytest.raises(ConfigurationError):
        ElementSizeStats(-1.0, 1.0)


def test_generator_is_deterministic_per_seed():
    a = ArbitrumLikeGenerator(DeterministicRNG(9))
    b = ArbitrumLikeGenerator(DeterministicRNG(9))
    assert [a.next_size() for _ in range(20)] == [b.next_size() for _ in range(20)]


@pytest.mark.parametrize("stats", [None, ElementSizeStats(200.0, 0.0)])
def test_next_sizes_is_next_size_n_times_on_the_same_stream(stats):
    one, many = (ArbitrumLikeGenerator(DeterministicRNG(9), stats) for _ in range(2))
    for count in (0, 1, 117, 1000):
        assert many.next_sizes(count) == [one.next_size() for _ in range(count)]
        assert many.rng._random.getstate() == one.rng._random.getstate()
    # A batch is one ``next_sizes`` pass: sizes and the stream stay in step.
    assert [e.size_bytes for e in many.batch("c", 50)] == one.next_sizes(50)
    assert many.rng.lognormvariate(0.0, 1.0) == one.rng.lognormvariate(0.0, 1.0)


@pytest.mark.parametrize("mean, std", [(438.0, 753.5), (120.0, 15.0), (300.0, 0.0)])
def test_next_sizes_equal_the_stdlib_lognormal_draws(mean, std):
    """The inlined Kinderman–Monahan loop is ``rng.lognormvariate`` bit for
    bit, over 10⁵ draws (a zero σ draws nothing and gives the same sizes)."""
    stats = ElementSizeStats(mean, std)
    generator = ArbitrumLikeGenerator(DeterministicRNG(17), stats)
    reference = DeterministicRNG(17)
    sizes = generator.next_sizes(100_000)
    assert sizes == [max(MIN_ELEMENT_SIZE, int(round(reference.lognormvariate(
        stats.lognormal_mu, stats.lognormal_sigma)))) for _ in range(100_000)]
    if std:
        assert generator.rng._random.getstate() == reference._random.getstate()


# -- clients --------------------------------------------------------------------------

def test_injection_client_respects_rate_and_duration():
    sim = Simulator(seed=0)
    sink = SinkServer()
    client = InjectionClient("client-0", sim, sink, rate=100.0, duration=5.0,
                             generator=ArbitrumLikeGenerator(DeterministicRNG(0)))
    client.start()
    sim.run_until(20.0)
    assert client.sent == pytest.approx(500, abs=1)
    assert len(sink.elements) == client.sent
    assert client.finished


def test_injection_client_fractional_rate_accumulates():
    sim = Simulator(seed=0)
    sink = SinkServer()
    client = InjectionClient("client-0", sim, sink, rate=3.3, duration=10.0,
                             generator=ArbitrumLikeGenerator(DeterministicRNG(0)))
    client.start()
    sim.run_until(20.0)
    assert client.sent == pytest.approx(33, abs=1)


def test_client_pool_splits_rate_evenly():
    sim = Simulator(seed=0)
    sinks = [SinkServer() for _ in range(4)]
    pool = ClientPool(sim, sinks, WorkloadConfig(sending_rate=400, injection_duration=5))
    pool.start()
    sim.run_until(10.0)
    assert pool.total_sent == pytest.approx(2000, abs=4)
    per_server = [len(s.elements) for s in sinks]
    assert max(per_server) - min(per_server) <= 2
    assert sum(per_server) == pool.total_sent
    assert pool.all_finished


def test_client_pool_requires_targets():
    sim = Simulator(seed=0)
    with pytest.raises(ConfigurationError):
        ClientPool(sim, [], WorkloadConfig())


def test_client_validation_errors():
    sim = Simulator(seed=0)
    with pytest.raises(ConfigurationError):
        InjectionClient("c", sim, SinkServer(), rate=0, duration=1,
                        generator=ArbitrumLikeGenerator(DeterministicRNG(0)))
