"""Built-in registry entries: the paper's algorithms, backends, and profiles.

Imported lazily by :mod:`repro.topology.plugins` on first registry access so
the registry machinery itself never drags in the core/ledger/net layers.
Each factory constructs exactly what ``build_deployment``'s old if/elif
funnel built, so homogeneous deployments are byte-identical before and after
the registry refactor.
"""

from __future__ import annotations

from ..compressor.factory import make_compressor
from ..config import ExperimentConfig
from ..core.batch_store import BatchStore
from ..core.compresschain import CompresschainServer
from ..core.hashchain import HashchainServer
from ..core.vanilla import VanillaServer
from ..crypto.keys import KeyPair
from ..ledger.abci import LedgerInterface
from ..ledger.cometbft.engine import CometBFTNetwork
from ..ledger.ideal import IdealLedger
from ..net.latency import LatencyModel, lan_profile, wan_profile
from ..net.network import Network
from ..sim.scheduler import Simulator
from .plugins import (
    DeploymentContext,
    LedgerBackend,
    register_algorithm,
    register_latency_profile,
    register_ledger_backend,
)
from .regions import server_name

# -- algorithms ----------------------------------------------------------------


@register_algorithm("vanilla")
def _vanilla(ctx: DeploymentContext, name: str, keypair: KeyPair) -> VanillaServer:
    return VanillaServer(name, ctx.sim, ctx.config.setchain, ctx.scheme,
                         keypair, metrics=ctx.metrics)


@register_algorithm("compresschain")
def _compresschain(ctx: DeploymentContext, name: str,
                   keypair: KeyPair) -> CompresschainServer:
    compressor = make_compressor(ctx.config.setchain.compressor)
    return CompresschainServer(name, ctx.sim, ctx.config.setchain, ctx.scheme,
                               keypair, compressor, metrics=ctx.metrics,
                               light=False)


@register_algorithm("compresschain-light")
def _compresschain_light(ctx: DeploymentContext, name: str,
                         keypair: KeyPair) -> CompresschainServer:
    compressor = make_compressor(ctx.config.setchain.compressor)
    return CompresschainServer(name, ctx.sim, ctx.config.setchain, ctx.scheme,
                               keypair, compressor, metrics=ctx.metrics,
                               light=True)


@register_algorithm("hashchain")
def _hashchain(ctx: DeploymentContext, name: str,
               keypair: KeyPair) -> HashchainServer:
    return HashchainServer(name, ctx.sim, ctx.config.setchain, ctx.scheme,
                           keypair, metrics=ctx.metrics, light=False,
                           shared_store=None)


@register_algorithm("hashchain-light")
def _hashchain_light(ctx: DeploymentContext, name: str,
                     keypair: KeyPair) -> HashchainServer:
    # All hashchain-light servers of one deployment share the out-of-band
    # batch store (the Fig. 2 ablation's zero-cost content sharing); distinct
    # algorithm groups in a heterogeneous cluster each get their own store.
    shared = ctx.shared_state("hashchain-light")
    store = shared.setdefault("batch_store", BatchStore())
    assert isinstance(store, BatchStore)
    return HashchainServer(name, ctx.sim, ctx.config.setchain, ctx.scheme,
                           keypair, metrics=ctx.metrics, light=True,
                           shared_store=store)


# -- ledger backends -----------------------------------------------------------


@register_ledger_backend("cometbft")
def _cometbft(sim: Simulator, network: Network, n: int,
              config: ExperimentConfig) -> tuple[LedgerBackend, list[LedgerInterface]]:
    cometbft = CometBFTNetwork(sim, network, n, config.ledger)
    return cometbft, list(cometbft.node_list())


@register_ledger_backend("ideal")
def _ideal(sim: Simulator, network: Network, n: int,
           config: ExperimentConfig) -> tuple[LedgerBackend, list[LedgerInterface]]:
    ideal = IdealLedger(sim, config.ledger)
    return ideal, [ideal.handle_for(server_name(i)) for i in range(n)]


# The durable service-mode backend registers itself on import ("sqlite");
# importing it here makes the name resolvable from any config, not only after
# service entry points have run.
from ..service import persistence as _service_persistence  # noqa: E402,F401


# -- latency profiles ----------------------------------------------------------


@register_latency_profile("lan")
def _lan(network_delay: float) -> LatencyModel:
    return lan_profile(network_delay=network_delay)


@register_latency_profile("wan")
def _wan(network_delay: float) -> LatencyModel:
    return wan_profile(network_delay=network_delay)
