"""Deployment topology: the component tables plus multi-region configs.

* :mod:`repro.topology.components` — ``ALGORITHMS``, ``LEDGER_BACKENDS`` and
  ``LATENCY_PROFILES``, the ``name -> factory`` tables ``build_deployment``
  indexes (imported on demand: they pull in the core and ledger layers);
* :mod:`repro.topology.regions` — :class:`TopologyConfig` /
  :class:`RegionSpec`, the declarative description of heterogeneous
  multi-region clusters consumed by ``build_deployment`` and the
  ``Scenario`` builder's ``.region()/.wan()/.mixed()`` knobs.
"""

from .regions import RegionSpec, TopologyConfig, server_name

__all__ = [
    "RegionSpec",
    "TopologyConfig",
    "server_name",
]
