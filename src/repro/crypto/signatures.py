"""Signature schemes behind a common interface.

Two backends:

* :class:`Ed25519Scheme` — the real EdDSA code path (RFC 8032, pure Python).
  Used by default in unit tests and small runs; matches the paper exactly.
* :class:`SimulatedScheme` — an HMAC-SHA512-based stand-in that produces
  64-byte tags verified through the PKI.  It preserves the *interface* and the
  unforgeability assumption of the model (a process that does not hold the
  owner's secret cannot produce a tag that verifies for that owner), while
  being ~1000x faster, which matters for benchmark runs that sign hundreds of
  thousands of batches.  This substitution is recorded in DESIGN.md §2.

Both backends share a positive-verification cache: in a Setchain deployment
the *same* ``(owner, message, signature)`` triple is re-verified by every
server that sees the hash-batch or epoch-proof, so each scheme memoises
successful verifications.  Only positives are cached — a signature that
verified once can never stop verifying, because the PKI rejects re-binding
an owner to a different key — so failures (e.g. an owner registered after a
first failed lookup) are always re-checked.
"""

from __future__ import annotations

import hashlib
import hmac
from abc import ABC, abstractmethod
from itertools import islice
from typing import Sequence

from ..errors import ConfigurationError, CryptoError
from . import ed25519
from .keys import KeyPair, PublicKeyInfrastructure, derive_secret_seed


#: Verified-triple cache bound.  When full, only the *oldest half* (FIFO
#: order) is retired: a wholesale clear would force every server in a large
#: run to re-verify the whole working set at once, exactly on the runs big
#: enough to fill the cache.
_VERIFY_CACHE_MAX = 1 << 16


class SignatureScheme(ABC):
    """Sign/verify interface shared by all backends.

    Messages are strings (hex digests, canonical encodings); the scheme is
    responsible for encoding.  ``verify`` resolves the signer's public key via
    the PKI by the *claimed* owner id, and memoises successful verifications
    (every server in a deployment re-verifies the same signed artifacts).
    Being the one object all servers of a deployment share, it also holds
    the two memos that die with the deployment: the servers handle the same
    batch tuples and derive the same epochs, so each batch is hashed and
    scanned once and each epoch hashed once, instead of once apiece.
    """

    #: Length of a signature produced by this scheme, in bytes.
    signature_size: int = 64

    def __init__(self, pki: PublicKeyInfrastructure) -> None:
        self.pki = pki
        # Insertion-ordered on purpose: eviction is FIFO, and dict order is
        # deterministic where set order would depend on PYTHONHASHSEED.
        self._verified: dict[tuple[str, str, bytes], None] = {}
        # Verify-cache telemetry: plain int bumps, cheap enough to stay on
        # unconditionally (read post-run by the observability report).
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0
        #: ``id(batch tuple) -> core.batch_store.BatchRecord``, seeded at flush.
        self.batch_records: dict[int, object] = {}
        #: ``(number, ids) -> (elements, frozenset, hash_epoch, ids)``, one per
        #: epoch: ids and elements in arrival order, the first server's; a
        #: later server shares it when its elements are equal to them.
        self.epoch_records: dict[tuple[int, tuple], tuple] = {}

    @abstractmethod
    def generate_keypair(self, owner: str, deployment_seed: int = 0) -> KeyPair:
        """Create (and register with the PKI) a key pair for ``owner``."""

    @abstractmethod
    def sign(self, keypair: KeyPair, message: str) -> bytes:
        """Sign ``message`` with the private half of ``keypair``."""

    def verify(self, owner: str, message: str, signature: bytes) -> bool:
        """True iff ``signature`` over ``message`` verifies for ``owner``'s registered key."""
        key = (owner, message, signature)
        if key in self._verified:
            self.cache_hits += 1
            return True
        self.cache_misses += 1
        if not self._verify(owner, message, signature):
            return False
        self._remember((key,))
        return True

    def verify_many(self, triples: Sequence[tuple[str, str, bytes]]) -> list[bool]:
        """Batch :meth:`verify`: one cache-membership pass, backend batch
        verification of the misses only, one bulk insert of the fresh
        positives.  Verdict ``i`` always equals ``verify(*triples[i])``;
        failures never raise and never poison the rest of the batch.
        """
        cache = self._verified
        results = [True] * len(triples)
        misses: list[int] = []
        for index, triple in enumerate(triples):
            if triple not in cache:
                misses.append(index)
        self.cache_hits += len(triples) - len(misses)
        self.cache_misses += len(misses)
        if misses:
            verdicts = self._verify_many([triples[i] for i in misses])
            fresh: list[tuple[str, str, bytes]] = []
            for index, verdict in zip(misses, verdicts):
                if verdict:
                    fresh.append(triples[index])
                else:
                    results[index] = False
            if fresh:
                self._remember(fresh)
        return results

    def _remember(self, keys: Sequence[tuple[str, str, bytes]]) -> None:
        """Memoise fresh positives, retiring the oldest half when full."""
        cache = self._verified
        if len(cache) >= _VERIFY_CACHE_MAX:
            stale_keys = list(islice(cache, len(cache) // 2))
            self.cache_evictions += len(stale_keys)
            for stale in stale_keys:
                del cache[stale]
        for key in keys:
            cache[key] = None

    @abstractmethod
    def _verify(self, owner: str, message: str, signature: bytes) -> bool:
        """Backend verification (uncached)."""

    def _verify_many(self, triples: Sequence[tuple[str, str, bytes]]) -> list[bool]:
        """Backend batch verification (uncached); override to share work."""
        verify = self._verify
        return [verify(owner, message, signature)
                for owner, message, signature in triples]


class Ed25519Scheme(SignatureScheme):
    """RFC 8032 Ed25519 signatures (pure Python, see :mod:`repro.crypto.ed25519`)."""

    def generate_keypair(self, owner: str, deployment_seed: int = 0) -> KeyPair:
        secret = derive_secret_seed(owner, deployment_seed)
        public = ed25519.generate_public_key(secret)
        keypair = KeyPair(owner=owner, secret=secret, public=public)
        self.pki.register(owner, public)
        return keypair

    def sign(self, keypair: KeyPair, message: str) -> bytes:
        return ed25519.sign(keypair.secret, message.encode())

    def _verify(self, owner: str, message: str, signature: bytes) -> bool:
        try:
            public = self.pki.public_key_of(owner)
        except CryptoError:
            return False
        return ed25519.verify(public, message.encode(), signature)

    def _verify_many(self, triples: Sequence[tuple[str, str, bytes]]) -> list[bool]:
        # Resolve each distinct owner through the PKI once, then hand the
        # whole batch to the backend (which shares per-key decode work).
        publics: dict[str, bytes | None] = {}
        public_key_of = self.pki.public_key_of
        items: list[tuple[bytes, bytes, bytes]] = []
        slots: list[int] = []
        results = [False] * len(triples)
        for index, (owner, message, signature) in enumerate(triples):
            if owner in publics:
                public = publics[owner]
            else:
                try:
                    public = public_key_of(owner)
                except CryptoError:
                    public = None
                publics[owner] = public
            if public is not None:
                items.append((public, message.encode(), signature))
                slots.append(index)
        for slot, verdict in zip(slots, ed25519.verify_many(items)):
            results[slot] = verdict
        return results


class SimulatedScheme(SignatureScheme):
    """Fast HMAC-based signatures for large simulation runs.

    The "public key" is a commitment ``SHA512(owner || secret)``; a signature
    is ``HMAC-SHA512(secret, owner || message)``.  Verification recomputes the
    tag from the owner's secret, which the verifier obtains through a trusted
    side table held by the scheme itself.  In a real deployment this would be
    unacceptable; in the simulation every scheme instance is shared
    infrastructure and Byzantine components are modelled at the behaviour
    level (they simply never get handed other owners' KeyPair objects), so the
    unforgeability assumption of the system model is preserved.
    """

    def __init__(self, pki: PublicKeyInfrastructure) -> None:
        super().__init__(pki)
        self._secrets: dict[str, bytes] = {}

    def generate_keypair(self, owner: str, deployment_seed: int = 0) -> KeyPair:
        secret = derive_secret_seed(owner, deployment_seed)
        public = hashlib.sha512(owner.encode() + secret).digest()[:32]
        keypair = KeyPair(owner=owner, secret=secret, public=public)
        self.pki.register(owner, public)
        self._secrets[owner] = secret
        return keypair

    def sign(self, keypair: KeyPair, message: str) -> bytes:
        # One-shot C implementation — no HMAC object per signature.
        return hmac.digest(keypair.secret,
                           keypair.owner.encode() + b"|" + message.encode(),
                           "sha512")[:64]

    def _verify(self, owner: str, message: str, signature: bytes) -> bool:
        if not self.pki.knows(owner):
            return False
        secret = self._secrets.get(owner)
        if secret is None:
            return False
        expected = hmac.digest(secret, owner.encode() + b"|" + message.encode(),
                               "sha512")[:64]
        return hmac.compare_digest(expected, signature)

    def _verify_many(self, triples: Sequence[tuple[str, str, bytes]]) -> list[bool]:
        knows = self.pki.knows
        secret_of = self._secrets.get
        digest = hmac.digest
        compare = hmac.compare_digest
        results: list[bool] = []
        append = results.append
        for owner, message, signature in triples:
            secret = secret_of(owner)
            if secret is None or not knows(owner):
                append(False)
                continue
            expected = digest(secret, owner.encode() + b"|" + message.encode(),
                              "sha512")[:64]
            append(compare(expected, signature))
        return results


_SCHEMES = {
    "ed25519": Ed25519Scheme,
    "simulated": SimulatedScheme,
}


def make_scheme(name: str, pki: PublicKeyInfrastructure | None = None) -> SignatureScheme:
    """Factory: build a signature scheme by configuration name."""
    try:
        cls = _SCHEMES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown signature scheme {name!r}; expected one of {sorted(_SCHEMES)}"
        ) from None
    return cls(pki if pki is not None else PublicKeyInfrastructure())
