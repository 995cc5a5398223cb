"""repro — a reproduction of *Setchain Algorithms for Blockchain Scalability* (IPPS 2025).

The package implements the paper's three Setchain algorithms (Vanilla,
Compresschain, Hashchain) with epoch-proofs on top of a simulated
CometBFT-style block-based ledger, plus every substrate they need (discrete-
event simulation, network, crypto, mempool/consensus, compression, workload)
and the full evaluation harness.

The public face is the :mod:`repro.api` subsystem — a typed scenario
builder, a catalog of named scenarios, interactive sessions, and
serialisable results::

    from repro import Scenario, run

    result = run(Scenario.hashchain().rate(500).inject_for(10))
    print(result.avg_throughput_50s, result.efficiency["100s"])
    result.save("hashchain.json")          # exact JSON round-trip

    run("figure4/hashchain", scale=50)     # any catalog scenario by name

Interactive control of a deployment (advance time, inject, inspect views)::

    from repro import Session

    with Session("quickstart") as session:
        session.run_for(10.0)
        print(session.backlog(), session.committed_fraction)

:class:`Session` is the one way a scenario runs (:func:`run` is its
one-call form) and :class:`RunResult` the one result every figure, table,
sweep and report reads.  The same catalog backs the command line:
``python -m repro list-scenarios``, ``run``, ``sweep``, and ``report``.
"""

from .version import __version__
from .config import (
    ExperimentConfig,
    LedgerConfig,
    RegionSpec,
    SetchainConfig,
    TopologyConfig,
    WorkloadConfig,
)
from .core import (
    BaseSetchainServer,
    ByzantineBehaviour,
    CompresschainServer,
    HashchainServer,
    SetchainClient,
    SetchainView,
    VanillaServer,
    build_deployment,
)
from .experiments.runner import scaled_config
from .api import (
    RunResult,
    Scenario,
    ScenarioBuilder,
    Session,
    run,
)

__all__ = [
    "__version__",
    # configuration
    "ExperimentConfig",
    "LedgerConfig",
    "SetchainConfig",
    "WorkloadConfig",
    "RegionSpec",
    "TopologyConfig",
    # public experiment API
    "Scenario",
    "ScenarioBuilder",
    "Session",
    "RunResult",
    "run",
    # core system
    "BaseSetchainServer",
    "ByzantineBehaviour",
    "VanillaServer",
    "CompresschainServer",
    "HashchainServer",
    "SetchainClient",
    "SetchainView",
    "build_deployment",
    "scaled_config",
]
