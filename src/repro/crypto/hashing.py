"""Canonical hashing used throughout the Setchain algorithms.

The paper hashes (i) batches of elements, to form Hashchain hash-batches, and
(ii) ``(epoch_number, epoch_elements)`` pairs, to form epoch-proofs
(``p_v(i) = Sign_v(Hash(i, history[i]))``).  Epochs are *sets*, so the hash
must not depend on the order servers happened to receive elements; we sort the
canonical encodings before hashing, which also matches the paper's observation
(Appendix G) that implementations impose a deterministic internal order.

The canonical encodings themselves are cached on the objects
(``Element``/``EpochProof``/``HashBatch`` compute ``_canonical`` once at
construction), so hashing a batch is a sort of precomputed byte strings
plus one SHA-512 pass; and a deployment hashes each flushed batch and each
epoch once, not once per server (``SignatureScheme`` holds the memos).
"""

from __future__ import annotations

import hashlib
from typing import Iterable


def canonical_bytes_of(item: object) -> bytes:
    """Stable byte encoding of a batch/epoch item.

    Supports the payload types that flow through the algorithms: bytes,
    strings, and the value types that cache theirs in ``_canonical``
    (elements, epoch-proofs and hash-batches).
    """
    canonical = getattr(item, "_canonical", None)
    if canonical is not None:
        return canonical
    if isinstance(item, bytes):
        return item
    if isinstance(item, str):
        return item.encode()
    return repr(item).encode()


def canonical_many(items: Iterable[object]) -> list[bytes]:
    """Canonical encodings of a whole batch in one pass.

    Elements, epoch-proofs, and hash-batches all precompute their encoding in
    a ``_canonical`` attribute; reading it directly skips a bound-method call
    per item, which adds up over million-element flushes.  Anything else goes
    through the generic :func:`canonical_bytes_of` dispatch.
    """
    return [getattr(item, "_canonical", None) or canonical_bytes_of(item)
            for item in items]


def _length_framed(encoded: list[bytes]) -> bytes:
    """Length-prefixed concatenation of already-sorted canonical encodings.

    Joining once and hashing the single buffer produces the same byte stream
    as updating the hasher blob by blob, with one C call instead of 2N.
    """
    parts = [len(encoded).to_bytes(8, "big")]
    extend = parts.extend
    for blob in encoded:
        extend((len(blob).to_bytes(8, "big"), blob))
    return b"".join(parts)


def hash_batch(items: Iterable[object]) -> str:
    """Order-independent SHA-512 hash of a batch of items."""
    hasher = hashlib.sha512()
    hasher.update(_length_framed(sorted(canonical_many(items))))
    return hasher.hexdigest()


def hash_epoch(epoch_number: int, elements: Iterable[object]) -> str:
    """SHA-512 hash of ``(epoch_number, elements)`` — the value epoch-proofs sign."""
    hasher = hashlib.sha512()
    hasher.update(b"epoch:")
    hasher.update(int(epoch_number).to_bytes(8, "big"))
    hasher.update(_length_framed(sorted(canonical_many(elements))))
    return hasher.hexdigest()
