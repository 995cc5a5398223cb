"""Latency models for message delivery.

Every model returns a one-way delivery delay in seconds.  The artificial
``network_delay`` knob from Table 1 is added uniformly on top of the base
model, exactly as the paper injects it into all server-to-server
communication.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Mapping

from ..errors import ConfigurationError
from ..sim.rng import DeterministicRNG


class LatencyModel(ABC):
    """Base class: draw a one-way delay for a (sender, recipient, size) triple."""

    def __init__(self, extra_delay: float = 0.0) -> None:
        if extra_delay < 0:
            raise ConfigurationError("extra_delay cannot be negative")
        #: The artificial per-message delay added on top of the base model
        #: (the ``network_delay`` experiment parameter, in seconds).
        self.extra_delay = extra_delay

    @abstractmethod
    def delay(self, rng: DeterministicRNG, sender: str, recipient: str,
              size_bytes: int) -> float:
        """Total one-way delay in seconds: base draw plus ``extra_delay``.

        Called once per message, so a model computes it in one frame; it can
        never be negative because every parameter is checked at construction.
        """


class UniformLatency(LatencyModel):
    """Delay drawn uniformly from ``[low, high]`` plus per-byte transmission cost."""

    def __init__(self, low: float, high: float, per_byte: float = 0.0,
                 extra_delay: float = 0.0) -> None:
        super().__init__(extra_delay)
        if low < 0 or high < low:
            raise ConfigurationError("require 0 <= low <= high for UniformLatency")
        if per_byte < 0:
            raise ConfigurationError("per_byte cannot be negative")
        self.low = low
        self.high = high
        self.per_byte = per_byte

    def delay(self, rng: DeterministicRNG, sender: str, recipient: str,
              size_bytes: int) -> float:
        # ``rng.uniform(low, high)`` spelled out: same operations, same order.
        return (self.low + (self.high - self.low) * rng.random()
                + self.per_byte * size_bytes + self.extra_delay)


class RegionalLatency(LatencyModel):
    """Per-region link quality for geo-distributed deployments.

    Intra-region messages draw from a base *intra* model (typically the LAN
    profile).  Cross-region messages additionally pay a per-pair one-way
    delay — looked up in a symmetric delay matrix, defaulting to
    ``inter_delay`` — plus a uniform jitter draw in ``[0, inter_jitter]``,
    modelling the wider delay variation of wide-area links.  Nodes absent
    from ``region_of`` (or with no known peer region) are treated as
    co-located, so auxiliary processes keep LAN behaviour.  An extra delay
    on the intra model itself would count too; it is built with none.
    """

    def __init__(self, region_of: Mapping[str, str], intra: LatencyModel,
                 inter_delay: float = 0.0, inter_jitter: float = 0.0,
                 links: Mapping[frozenset[str], float] | None = None,
                 extra_delay: float = 0.0) -> None:
        super().__init__(extra_delay)
        if inter_delay < 0 or inter_jitter < 0:
            raise ConfigurationError(
                "inter-region delay and jitter cannot be negative")
        self.region_of = dict(region_of)
        self.intra = intra
        self.inter_delay = inter_delay
        self.inter_jitter = inter_jitter
        self.links: dict[frozenset[str], float] = dict(links or {})
        for pair, delay in self.links.items():
            if len(pair) != 2:
                raise ConfigurationError(
                    f"link key {set(pair)!r} must name two distinct regions")
            if delay < 0:
                raise ConfigurationError("link delays cannot be negative")

    def pair_delay(self, region_a: str, region_b: str) -> float:
        """Base one-way delay between two regions (0 within a region)."""
        if region_a == region_b:
            return 0.0
        return self.links.get(frozenset((region_a, region_b)), self.inter_delay)

    def delay(self, rng: DeterministicRNG, sender: str, recipient: str,
              size_bytes: int) -> float:
        base = self.intra.delay(rng, sender, recipient, size_bytes)
        region_a = self.region_of.get(sender)
        region_b = self.region_of.get(recipient)
        if region_a is None or region_b is None or region_a == region_b:
            return base + self.extra_delay
        cross = self.pair_delay(region_a, region_b)
        if self.inter_jitter > 0:
            cross += rng.uniform(0.0, self.inter_jitter)
        return base + cross + self.extra_delay


#: Approximate cluster-network bandwidth used by the profiles: 1 Gbit/s.
_GIGABIT_PER_BYTE = 8.0 / 1e9


def lan_profile(network_delay: float = 0.0) -> LatencyModel:
    """Latency profile matching the paper's single-cluster deployment.

    Sub-millisecond base latency plus 1 Gbit/s serialisation cost, plus the
    artificial ``network_delay`` (seconds).
    """
    return UniformLatency(low=0.0002, high=0.0008, per_byte=_GIGABIT_PER_BYTE,
                          extra_delay=network_delay)


def wan_profile(network_delay: float = 0.0) -> LatencyModel:
    """A wide-area profile (tens of milliseconds) for the geo-distribution discussion."""
    return UniformLatency(low=0.030, high=0.080, per_byte=_GIGABIT_PER_BYTE,
                          extra_delay=network_delay)
