"""Shared fixtures for the Setchain reproduction test suite."""

from __future__ import annotations

import pytest

from repro.config import LedgerConfig, SetchainConfig
from repro.crypto.keys import PublicKeyInfrastructure
from repro.crypto.signatures import SignatureScheme
from repro.ledger.ideal import IdealLedger
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.sim.scheduler import Simulator
from repro.workload.generator import ArbitrumLikeGenerator
from repro.sim.rng import DeterministicRNG


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator with a fixed seed."""
    return Simulator(seed=1234)


@pytest.fixture
def network(sim: Simulator) -> Network:
    """A network with a small constant latency."""
    return Network(sim, latency=ConstantLatency(base=0.001))


@pytest.fixture
def scheme() -> SignatureScheme:
    """The signature scheme over a fresh PKI."""
    return SignatureScheme(PublicKeyInfrastructure())


@pytest.fixture
def generator() -> ArbitrumLikeGenerator:
    """An element generator with a fixed RNG stream."""
    return ArbitrumLikeGenerator(DeterministicRNG(7))


@pytest.fixture
def small_setchain_config() -> SetchainConfig:
    """A 4-server Setchain config with a small collector for fast tests."""
    return SetchainConfig(n_servers=4, collector_limit=10, collector_timeout=0.5,
                          batch_request_timeout=0.5)


@pytest.fixture
def fast_ledger_config() -> LedgerConfig:
    """A ledger producing small blocks quickly (keeps unit tests snappy)."""
    return LedgerConfig(block_size_bytes=200_000, block_rate=2.0)


@pytest.fixture
def ideal_ledger(sim: Simulator, fast_ledger_config: LedgerConfig) -> IdealLedger:
    """A started ideal ledger."""
    ledger = IdealLedger(sim, fast_ledger_config)
    ledger.start()
    return ledger


def build_servers(algorithm: str, sim: Simulator, network: Network,
                  scheme: SignatureScheme, config: SetchainConfig,
                  ledger: IdealLedger, metrics=None, light: bool = False):
    """Helper used by algorithm tests: n servers of one kind over an ideal ledger."""
    from repro.compressor.model import ModelCompressor
    from repro.core.batch_store import BatchStore
    from repro.core.compresschain import CompresschainServer
    from repro.core.hashchain import HashchainServer
    from repro.core.vanilla import VanillaServer

    shared = BatchStore() if light else None
    servers = []
    for index in range(config.n_servers):
        name = f"server-{index}"
        keypair = scheme.generate_keypair(name)
        if algorithm == "vanilla":
            server = VanillaServer(name, sim, config, scheme, keypair, metrics=metrics)
        elif algorithm == "compresschain":
            server = CompresschainServer(name, sim, config, scheme, keypair,
                                         ModelCompressor(), metrics=metrics, light=light)
        elif algorithm == "hashchain":
            server = HashchainServer(name, sim, config, scheme, keypair,
                                     metrics=metrics, light=light, shared_store=shared)
        else:
            raise ValueError(algorithm)
        network.register(server)
        server.connect_ledger(ledger.handle_for(name))
        servers.append(server)
    return servers


def epoched_ids(server) -> set[int]:
    """The ids epoched at ``server``, read off its epoch index: what the
    per-server set the index replaced held."""
    return {element_id for element_id, number in server._epoch_of.items()
            if number <= server.epoch}
