"""Cryptographic substrate.

The paper uses SHA-512 for hashing and ed25519 (EdDSA) for signatures, with a
public-key infrastructure so every process knows every other process's public
key.  This package provides, on the standard library alone:

* :mod:`repro.crypto.hashing` — SHA-512 based canonical hashing of batches and
  epochs (the exact hash the epoch-proofs sign).
* :mod:`repro.crypto.signatures` — :class:`SignatureScheme`, the one scheme:
  64-byte HMAC-SHA512 tags that only their owner can produce, verified
  through the PKI, in place of the paper's Ed25519 signatures.
* :mod:`repro.crypto.keys` — key pairs and the PKI registry.
"""

from .hashing import hash_batch, hash_epoch, canonical_bytes_of
from .keys import KeyPair, PublicKeyInfrastructure
from .signatures import SignatureScheme

__all__ = [
    "hash_batch",
    "hash_epoch",
    "canonical_bytes_of",
    "KeyPair",
    "PublicKeyInfrastructure",
    "SignatureScheme",
]
