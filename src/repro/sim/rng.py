"""Deterministic random number generation for reproducible simulations.

Model components must never touch the global :mod:`random` state; they draw
from a :class:`DeterministicRNG` owned by the simulator, or from a stream
derived from it with :func:`derive_seed` so that adding a component does not
perturb the randomness seen by others.
"""

from __future__ import annotations

import hashlib
import random


def derive_seed(base_seed: int, *labels: object) -> int:
    """Derive a child seed from ``base_seed`` and a label path.

    The derivation is stable across Python versions and processes (it does not
    rely on ``hash()``), so the same ``(seed, labels)`` pair always produces
    the same stream.
    """
    material = repr((int(base_seed),) + tuple(str(x) for x in labels)).encode()
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:8], "big")


#: The draws a :class:`DeterministicRNG` hands through to its stream.
DRAWS = ("random", "uniform", "expovariate", "lognormvariate", "gauss",
         "randint", "randbytes", "choice", "shuffle", "sample")


class DeterministicRNG:
    """A seeded :class:`random.Random` stream with child-stream derivation.

    Each name in :data:`DRAWS` is the stream's own bound method, so a draw
    costs no wrapper frame (a burst draws one size per element).
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._random = random.Random(self.seed)
        for name in DRAWS:
            setattr(self, name, getattr(self._random, name))

    def derive(self, *labels: object) -> "DeterministicRNG":
        """Return an independent RNG stream labelled by ``labels``."""
        return DeterministicRNG(derive_seed(self.seed, *labels))
