"""The signature scheme every deployment signs hash-batches and epoch-proofs with.

An epoch-proof is the hash of an epoch signed by a server, and a client
trusts an epoch once f+1 of them verify.  What the model needs from a
signature is a 64-byte tag that only its owner can produce and that every
server can check through the PKI; :class:`SignatureScheme` gives exactly that
with HMAC-SHA512, in place of the paper's Ed25519.

The scheme keeps a positive-verification cache: in a Setchain deployment the
*same* ``(owner, message, signature)`` triple is re-verified by every server
that sees the hash-batch or epoch-proof, so successful verifications are
memoised.  Only positives are cached — a signature that verified once can
never stop verifying, because the PKI rejects re-binding an owner to a
different key — so failures (e.g. an owner registered after a first failed
lookup) are always re-checked.
"""

from __future__ import annotations

import hashlib
import hmac
from itertools import islice
from typing import Sequence

from .keys import KeyPair, PublicKeyInfrastructure, derive_secret_seed


#: Verified-triple cache bound.  When full, only the *oldest half* (FIFO
#: order) is retired: a wholesale clear would force every server in a large
#: run to re-verify the whole working set at once, exactly on the runs big
#: enough to fill the cache.
_VERIFY_CACHE_MAX = 1 << 16


class SignatureScheme:
    """HMAC-SHA512 signatures, verified through the PKI.

    The "public key" is a commitment ``SHA512(owner || secret)``; a signature
    is the 64-byte tag ``HMAC-SHA512(secret, owner || message)`` — the size
    the paper's 139-byte epoch-proofs (``config.EPOCH_PROOF_SIZE``) assume.
    Verification recomputes the tag from the owner's secret, which the
    scheme keeps in its own side table.

    Unforgeability holds by construction: a secret lives only in that side
    table and in the :class:`KeyPair` handed to its owner (Byzantine
    components are modelled at the behaviour level and are never handed
    another owner's key pair), and the PKI refuses to re-bind an owner to a
    different key, so no other party can make a tag that verifies for it.
    Nothing the model measures depends on which signature made a tag: twin
    runs of ``bench/``, ``byz/`` and ``chaos/smoke`` scenarios under this
    scheme and under real Ed25519 gave identical artifacts, the rejection
    of forged and invalid artifacts included.

    Messages are strings (hex digests, canonical encodings).  ``verify``
    resolves the signer by the *claimed* owner id and memoises successful
    verifications (every server in a deployment re-verifies the same signed
    artifacts).  Being the one object all servers of a deployment share, the
    scheme also holds the memos that die with the deployment: the servers
    handle the same batch tuples and derive the same epochs, so each batch is
    hashed and scanned once and each epoch hashed once, instead of once
    apiece, and the servers of a group share one index of which epoch holds
    each element.
    """

    def __init__(self, pki: PublicKeyInfrastructure) -> None:
        self.pki = pki
        self._secrets: dict[str, bytes] = {}
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
        #: ``algorithm group -> (records, epoch_of)``: the record of each
        #: epoch number as the group's first server to reach it created it,
        #: in number order, and the ``element id -> epoch number`` index
        #: those records imply, which every server whose epochs are those
        #: very records reads as its own.
        self.epoch_lineages: dict[str, tuple[list[tuple], dict[int, int]]] = {}

    def generate_keypair(self, owner: str, deployment_seed: int = 0) -> KeyPair:
        """Create (and register with the PKI) a key pair for ``owner``."""
        secret = derive_secret_seed(owner, deployment_seed)
        public = hashlib.sha512(owner.encode() + secret).digest()[:32]
        keypair = KeyPair(owner=owner, secret=secret, public=public)
        self.pki.register(owner, public)
        self._secrets[owner] = secret
        return keypair

    def sign(self, keypair: KeyPair, message: str) -> bytes:
        """Sign ``message`` with the private half of ``keypair``."""
        # One-shot C implementation — no HMAC object per signature.
        return hmac.digest(keypair.secret,
                           keypair.owner.encode() + b"|" + message.encode(),
                           "sha512")[:64]

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
        """Batch :meth:`verify`: one cache-membership pass, batch
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

    def _verify(self, owner: str, message: str, signature: bytes) -> bool:
        """Uncached verification."""
        if not self.pki.knows(owner):
            return False
        secret = self._secrets.get(owner)
        if secret is None:
            return False
        expected = hmac.digest(secret, owner.encode() + b"|" + message.encode(),
                               "sha512")[:64]
        return hmac.compare_digest(expected, signature)

    def _verify_many(self, triples: Sequence[tuple[str, str, bytes]]) -> list[bool]:
        """Uncached batch verification."""
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
