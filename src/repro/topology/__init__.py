"""Pluggable deployment topology: registries + multi-region configs.

Two layers live here:

* :mod:`repro.topology.plugins` — the algorithm / ledger-backend / latency
  registries (``@register_algorithm`` & friends) and the typed
  :class:`LedgerBackend` protocol that ``Deployment`` builds against;
* :mod:`repro.topology.regions` — :class:`TopologyConfig` /
  :class:`RegionSpec`, the declarative description of heterogeneous
  multi-region clusters consumed by ``build_deployment`` and the
  ``Scenario`` builder's ``.region()/.wan()/.mixed()`` knobs.
"""

from .plugins import (
    DeploymentContext,
    LedgerBackend,
    algorithm_names,
    get_algorithm,
    get_latency_profile,
    get_ledger_backend,
    has_algorithm,
    has_latency_profile,
    has_ledger_backend,
    latency_profile_names,
    ledger_backend_names,
    register_algorithm,
    register_latency_profile,
    register_ledger_backend,
    unregister_algorithm,
    unregister_latency_profile,
    unregister_ledger_backend,
)
from .regions import RegionSpec, TopologyConfig, evenly_split, server_name, single_region

__all__ = [
    "DeploymentContext",
    "LedgerBackend",
    "RegionSpec",
    "TopologyConfig",
    "evenly_split",
    "server_name",
    "single_region",
    "algorithm_names",
    "ledger_backend_names",
    "latency_profile_names",
    "get_algorithm",
    "get_ledger_backend",
    "get_latency_profile",
    "has_algorithm",
    "has_ledger_backend",
    "has_latency_profile",
    "register_algorithm",
    "register_ledger_backend",
    "register_latency_profile",
    "unregister_algorithm",
    "unregister_ledger_backend",
    "unregister_latency_profile",
]
