"""Simulated network substrate.

Models the reliable, authenticated channels assumed by the system model
(paper §2): messages between correct processes are eventually delivered
exactly once, no spurious messages are generated, and delivery latency follows
a configurable model including the artificial ``network_delay`` of Table 1.

The network also supports fault injection (message drops towards/from chosen
nodes, partitions) used by Byzantine-behaviour tests — those faults are only
ever applied to *faulty* processes, preserving the reliability assumption for
correct ones.
"""

from .message import Message
from .latency import (
    LatencyModel,
    UniformLatency,
    lan_profile,
    wan_profile,
)
from .network import Network
from .node import NetworkNode

__all__ = [
    "Message",
    "LatencyModel",
    "UniformLatency",
    "lan_profile",
    "wan_profile",
    "Network",
    "NetworkNode",
]
