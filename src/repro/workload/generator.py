"""Synthetic Arbitrum-like element generation.

The only element attribute the Setchain algorithms observe is the size in
bytes, so the generator's job is to match the paper's published statistics:
mean ≈ 438 bytes, standard deviation ≈ 753.5 bytes.  A log-normal distribution
(heavy right tail, strictly positive) fits that mean/σ pair well and matches
the qualitative shape of on-chain transaction sizes; sizes are clamped to a
sane minimum so no element is smaller than a bare transfer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import NV_MAGICCONST

from ..errors import ConfigurationError
from ..sim.rng import DeterministicRNG
from .elements import Element, make_elements

#: Smallest element the generator will emit (a minimal signed transfer).
MIN_ELEMENT_SIZE = 64


@dataclass(frozen=True)
class ElementSizeStats:
    """Target mean/σ of element sizes plus the derived log-normal parameters."""

    mean: float
    std: float

    def __post_init__(self) -> None:
        if self.mean <= 0 or self.std < 0:
            raise ConfigurationError("element size statistics must be positive")

    @property
    def lognormal_mu(self) -> float:
        """μ of the underlying normal such that the log-normal has the target mean."""
        variance = math.log(1.0 + (self.std / self.mean) ** 2)
        return math.log(self.mean) - variance / 2.0

    @property
    def lognormal_sigma(self) -> float:
        """σ of the underlying normal matching the target coefficient of variation."""
        return math.sqrt(math.log(1.0 + (self.std / self.mean) ** 2))


class ArbitrumLikeGenerator:
    """Generate elements whose sizes follow the paper's Arbitrum statistics."""

    def __init__(self, rng: DeterministicRNG,
                 stats: ElementSizeStats | None = None) -> None:
        self.rng = rng
        self.stats = stats if stats is not None else ElementSizeStats(438.0, 753.5)
        #: Elements generated so far.
        self.generated = 0
        self._size_total = 0

    def next_size(self) -> int:
        """Draw one element size in bytes."""
        return self.next_sizes(1)[0]

    def next_sizes(self, count: int) -> list[int]:
        """Draw ``count`` sizes ``max(64, round(rng.lognormvariate(mu, σ)))``:
        the stdlib's Kinderman–Monahan loop, inlined with the same float
        operations, so sizes and stream state are bit-identical to it."""
        if count <= 0:
            return []
        if self.stats.std == 0:
            return [max(MIN_ELEMENT_SIZE, int(round(self.stats.mean)))] * count
        random, exp, log = self.rng.random, math.exp, math.log
        mu = self.stats.lognormal_mu
        sigma = self.stats.lognormal_sigma
        sizes: list[int] = []
        for _ in range(count):
            while True:
                u1 = random()
                u2 = 1.0 - random()
                z = NV_MAGICCONST * (u1 - 0.5) / u2
                if z * z / 4.0 <= -log(u2):
                    break
            sizes.append(max(MIN_ELEMENT_SIZE, int(round(exp(mu + z * sigma)))))
        return sizes

    def batch(self, client: str, count: int, now: float = 0.0) -> list[Element]:
        """Generate ``count`` elements at once (one size pass, one build pass)."""
        sizes = self.next_sizes(count)
        self.generated += count
        self._size_total += sum(sizes)
        return make_elements(client, sizes, created_at=now)

    @property
    def observed_mean_size(self) -> float:
        """Empirical mean size of everything generated so far (0 if nothing yet)."""
        if self.generated == 0:
            return 0.0
        return self._size_total / self.generated
