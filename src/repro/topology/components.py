"""The component tables ``build_deployment`` indexes: one ``name -> factory``
dict each for the paper's algorithms, ledger backends and latency profiles.

A name is valid in a config exactly when it is a key here: the config, the
scenario builder and the deployment builder all read these tables (through
:func:`~repro.errors.check_name` where a name may be unknown).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from ..analysis.metrics import MetricsCollector
from ..compressor.factory import make_compressor
from ..config import ExperimentConfig
from ..core.base import BaseSetchainServer
from ..core.batch_store import BatchStore
from ..core.compresschain import CompresschainServer
from ..core.hashchain import HashchainServer
from ..core.vanilla import VanillaServer
from ..crypto.keys import KeyPair
from ..crypto.signatures import SignatureScheme
from ..ledger.abci import LedgerInterface
from ..ledger.cometbft.engine import CometBFTNetwork
from ..ledger.ideal import IdealLedger
from ..net.latency import LatencyModel, lan_profile, wan_profile
from ..net.network import Network
from ..service.persistence import SqliteLedger
from ..sim.scheduler import Simulator
from .regions import server_name


@dataclass
class DeploymentContext:
    """Build-time objects shared by every server of one deployment."""

    sim: Simulator
    network: Network
    config: ExperimentConfig
    scheme: SignatureScheme
    metrics: MetricsCollector
    #: The out-of-band batch store every hashchain-light server of the
    #: deployment shares (the Fig. 2 ablation's zero-cost content sharing).
    light_store: BatchStore = field(default_factory=BatchStore)


# -- algorithms ----------------------------------------------------------------
# Each builds one server; the deployment registers it with the network and
# connects its ledger.


def _vanilla(ctx: DeploymentContext, name: str, keypair: KeyPair) -> VanillaServer:
    return VanillaServer(name, ctx.sim, ctx.config.setchain, ctx.scheme,
                         keypair, metrics=ctx.metrics)


def _compresschain(light: bool) -> Callable[..., CompresschainServer]:
    def build(ctx: DeploymentContext, name: str,
              keypair: KeyPair) -> CompresschainServer:
        compressor = make_compressor(ctx.config.setchain.compressor)
        return CompresschainServer(name, ctx.sim, ctx.config.setchain,
                                   ctx.scheme, keypair, compressor,
                                   metrics=ctx.metrics, light=light)
    return build


def _hashchain(light: bool) -> Callable[..., HashchainServer]:
    def build(ctx: DeploymentContext, name: str,
              keypair: KeyPair) -> HashchainServer:
        return HashchainServer(name, ctx.sim, ctx.config.setchain, ctx.scheme,
                               keypair, metrics=ctx.metrics, light=light,
                               shared_store=ctx.light_store if light else None)
    return build


ALGORITHMS: dict[str, Callable[[DeploymentContext, str, KeyPair], BaseSetchainServer]] = {
    "vanilla": _vanilla,
    "compresschain": _compresschain(light=False),
    "compresschain-light": _compresschain(light=True),
    "hashchain": _hashchain(light=False),
    "hashchain-light": _hashchain(light=True),
}


def build_server(algorithm: str, ctx: DeploymentContext, name: str,
                 keypair: KeyPair) -> BaseSetchainServer:
    """One server from its ``ALGORITHMS`` row, whose name is the server's
    ``variant`` and so its group key: a ``hashchain-light`` server is a
    ``HashchainServer`` (``algorithm`` "hashchain") in the light group."""
    server = ALGORITHMS[algorithm](ctx, name, keypair)
    server.variant = algorithm
    return server


# -- ledger backends -----------------------------------------------------------
# Each returns the backend plus one ledger handle per server; only sqlite
# reads ``db_path`` (``None`` is an in-memory database).

LedgerHandles = tuple[IdealLedger | CometBFTNetwork, list[LedgerInterface]]


def _cometbft(sim: Simulator, network: Network, n: int, config: ExperimentConfig,
              db_path: str | Path | None) -> LedgerHandles:
    cometbft = CometBFTNetwork(sim, network, n, config.ledger)
    return cometbft, list(cometbft.node_list())


def _ideal(sim: Simulator, network: Network, n: int, config: ExperimentConfig,
           db_path: str | Path | None) -> LedgerHandles:
    ideal = IdealLedger(sim, config.ledger)
    return ideal, [ideal.handle_for(server_name(i)) for i in range(n)]


def _sqlite(sim: Simulator, network: Network, n: int, config: ExperimentConfig,
            db_path: str | Path | None) -> LedgerHandles:
    ledger = SqliteLedger(sim, config.ledger,
                          path=db_path if db_path is not None else ":memory:")
    ledger.advance_id_counters()
    return ledger, [ledger.handle_for(server_name(i)) for i in range(n)]


LEDGER_BACKENDS: dict[str, Callable[..., LedgerHandles]] = {
    "cometbft": _cometbft,
    "ideal": _ideal,
    "sqlite": _sqlite,
}


# -- latency profiles ----------------------------------------------------------
# Each builds a base model for the Table 1 ``network_delay`` (seconds).

LATENCY_PROFILES: dict[str, Callable[[float], LatencyModel]] = {
    "lan": lambda network_delay: lan_profile(network_delay=network_delay),
    "wan": lambda network_delay: wan_profile(network_delay=network_delay),
}
