"""Workload substrate: Setchain elements and the clients that inject them.

The paper feeds real Arbitrum transactions (mean 438 bytes, σ 753.5) into the
Setchain at a configurable aggregate ``sending_rate``, split evenly across one
client per server for 50 seconds.  This package provides the synthetic
equivalent: an element generator matching those size statistics, client
processes that add elements to their local server at the per-client rate, and
trace recording so a workload can be frozen and replayed.
"""

from .elements import Element, make_element, element_signing_payload
from .generator import ArbitrumLikeGenerator, ElementSizeStats
from .clients import InjectionClient, ClientPool
from .traces import WorkloadTrace, record_trace

__all__ = [
    "Element",
    "make_element",
    "element_signing_payload",
    "ArbitrumLikeGenerator",
    "ElementSizeStats",
    "InjectionClient",
    "ClientPool",
    "WorkloadTrace",
    "record_trace",
]
