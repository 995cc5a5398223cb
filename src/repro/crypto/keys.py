"""Key pairs and the public key infrastructure (PKI).

The system model (paper §2) assumes a deployed PKI: every process has a
private/public key pair and knows everyone else's public key.  The
:class:`PublicKeyInfrastructure` registry models exactly that — registration
happens at deployment time, lookups never fail silently.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..errors import CryptoError


@dataclass(frozen=True)
class KeyPair:
    """A process's signing key pair.

    ``secret`` is a 32-byte seed; ``public`` is the scheme-specific public key
    bytes; ``owner`` is the process identifier the PKI binds the key to.
    """

    owner: str
    secret: bytes = field(repr=False)
    public: bytes

    def __post_init__(self) -> None:
        if not self.owner:
            raise CryptoError("key pair owner must be a non-empty identifier")
        if len(self.secret) != 32:
            raise CryptoError("secret seed must be exactly 32 bytes")
        if not self.public:
            raise CryptoError("public key must not be empty")


def derive_secret_seed(owner: str, deployment_seed: int = 0) -> bytes:
    """Deterministically derive a 32-byte secret seed for ``owner``.

    Real deployments draw keys from an OS CSPRNG; for reproducible simulations
    we derive them from the deployment seed so reruns produce identical
    signatures and transcripts.
    """
    material = f"setchain-key:{deployment_seed}:{owner}".encode()
    return hashlib.sha512(material).digest()[:32]


class PublicKeyInfrastructure:
    """Registry binding process identifiers to public keys.

    Faulty processes cannot impersonate others because verification always
    resolves the public key through this registry by *claimed owner*, so a
    signature made with a different key never verifies.
    """

    def __init__(self) -> None:
        self._keys: dict[str, bytes] = {}

    def register(self, owner: str, public: bytes) -> None:
        """Bind ``owner`` to ``public``.  Re-registering a different key is an error."""
        if not owner:
            raise CryptoError("cannot register an empty owner id")
        existing = self._keys.get(owner)
        if existing is not None and existing != public:
            raise CryptoError(f"owner {owner!r} already registered with a different key")
        self._keys[owner] = public

    def knows(self, owner: str) -> bool:
        return owner in self._keys
