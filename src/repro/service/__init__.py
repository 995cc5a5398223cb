"""Service mode: Setchain as a long-running process instead of a batch run.

* :class:`~repro.service.runtime.ServiceRuntime` — streamed ingest with
  bounded-queue backpressure over a ticking deployment;
* :class:`~repro.service.persistence.SqliteLedger` — the durable ``sqlite``
  ledger backend (chain + batch journal survive restarts);
* :class:`~repro.service.http.MetricsEndpoint` — ``GET /metrics`` /
  ``/healthz`` on a stdlib HTTP server;
* the ``service/`` scenario family and the ``repro serve`` /
  ``repro service inspect`` CLI entry points.

Attributes resolve lazily (PEP 562) so importing
:mod:`repro.service.persistence` — which the topology component tables do for
the ``sqlite`` backend — never drags the whole API layer in.
"""

from __future__ import annotations

_EXPORTS = {
    "ServiceRuntime": ("repro.service.runtime", "ServiceRuntime"),
    "MetricsEndpoint": ("repro.service.http", "MetricsEndpoint"),
    "SqliteLedger": ("repro.service.persistence", "SqliteLedger"),
    "audit_chain": ("repro.service.persistence", "audit_chain"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):  # type: ignore[no-untyped-def]
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    return getattr(importlib.import_module(module_name), attr)
