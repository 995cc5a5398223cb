"""Ed25519 (RFC 8032) — pure Python with an optional C accelerator.

The reference implementation here is a straightforward, readable EdDSA over
edwards25519 following RFC 8032 §5.1.  It is *not* constant-time and
therefore not suitable for protecting real secrets; in this reproduction it
exists so the signature code path (key generation, signing, verification,
64-byte signatures) matches the paper's ed25519 usage exactly.  Large
benchmark runs use the faster ``SimulatedScheme`` instead (see
:mod:`repro.crypto.signatures`).

When the ``cryptography`` wheel is importable (no install is ever attempted),
the public entry points delegate to its OpenSSL-backed Ed25519: signing is
deterministic per RFC 8032, so the emitted bytes are identical to the pure
path and the test vectors pin both.  The pure implementation remains the
fallback and the reference the property tests compare against.

Fast path: scalar multiplication uses the dedicated doubling formula
(:func:`_point_double`, RFC 8032 §5.1.4) instead of a generic addition, and
fixed-base multiples of the generator — every ``sign`` computes two of them,
every ``verify`` one — go through a lazily built window table
(:func:`_point_mul_base`), promoted from 4-bit to 8-bit windows once the
process has done enough fixed-base work to amortise the bigger build.
Verification gets the same treatment on the variable-base side: decompressed
public points are cached per compressed key, and keys that verify repeatedly
earn their own window table (:func:`_mul_public`), so a warm verify is ~96
table additions instead of ~380 double-and-add steps.  Square-root recovery
in :func:`_recover_x` uses the single-exponentiation form from RFC 8032
§5.1.3.  ``sign`` additionally caches the expanded secret (scalar, prefix,
compressed public key) per seed; :func:`verify_many` batches the shared
lookups across whole collector flushes.  None of this changes
any emitted byte: the RFC 8032 test vectors in
``tests/test_crypto_ed25519.py`` pin the output.
"""

from __future__ import annotations

import hashlib

try:  # optional C accelerator — same RFC 8032 bytes, ~10x faster primitives.
    from cryptography.exceptions import InvalidSignature as _InvalidSignature
    from cryptography.hazmat.primitives.asymmetric.ed25519 import (
        Ed25519PrivateKey as _AccelPrivateKey,
        Ed25519PublicKey as _AccelPublicKey,
    )
    _ACCEL = True
except Exception:  # pragma: no cover - accelerator genuinely absent
    _ACCEL = False

__all__ = ["generate_public_key", "sign", "verify", "verify_many",
           "SECRET_KEY_SIZE", "PUBLIC_KEY_SIZE", "SIGNATURE_SIZE"]

SECRET_KEY_SIZE = 32
PUBLIC_KEY_SIZE = 32
SIGNATURE_SIZE = 64

# Curve constants for edwards25519 (RFC 8032 §5.1).
_p = 2**255 - 19
_q = 2**252 + 27742317777372353535851937790883648493  # group order
_d = -121665 * pow(121666, _p - 2, _p) % _p


def _sha512(data: bytes) -> bytes:
    return hashlib.sha512(data).digest()


def _inv(x: int) -> int:
    return pow(x, _p - 2, _p)


# Points are represented in extended homogeneous coordinates (X, Y, Z, T)
# with x = X/Z, y = Y/Z, x*y = T/Z.
_Point = tuple[int, int, int, int]


def _point_add(P: _Point, Q: _Point) -> _Point:
    X1, Y1, Z1, T1 = P
    X2, Y2, Z2, T2 = Q
    A = (Y1 - X1) * (Y2 - X2) % _p
    B = (Y1 + X1) * (Y2 + X2) % _p
    C = 2 * T1 * T2 * _d % _p
    D = 2 * Z1 * Z2 % _p
    E = B - A
    F = D - C
    G = D + C
    H = B + A
    return (E * F % _p, G * H % _p, F * G % _p, E * H % _p)


def _point_double(P: _Point) -> _Point:
    # Dedicated doubling (RFC 8032 §5.1.4): 4M + 4S, vs 9M for _point_add.
    X1, Y1, Z1, _T1 = P
    A = X1 * X1 % _p
    B = Y1 * Y1 % _p
    C = 2 * Z1 * Z1 % _p
    H = A + B
    E = H - (X1 + Y1) * (X1 + Y1) % _p
    G = A - B
    F = C + G
    return (E * F % _p, G * H % _p, F * G % _p, E * H % _p)


def _point_mul(s: int, P: _Point) -> _Point:
    Q: _Point = (0, 1, 1, 0)  # identity
    while s > 0:
        if s & 1:
            Q = _point_add(Q, P)
        P = _point_double(P)
        s >>= 1
    return Q


def _point_equal(P: _Point, Q: _Point) -> bool:
    # x1/z1 == x2/z2  and  y1/z1 == y2/z2
    if (P[0] * Q[2] - Q[0] * P[2]) % _p != 0:
        return False
    if (P[1] * Q[2] - Q[1] * P[2]) % _p != 0:
        return False
    return True


# Base point.
_g_y = 4 * _inv(5) % _p


# sqrt(-1) mod p, used to fix up the square root when p = 5 mod 8.
_SQRT_M1 = pow(2, (_p - 1) // 4, _p)


def _recover_x(y: int, sign: int) -> int | None:
    # Candidate x for x^2 = u/v via the single-exponentiation form of
    # RFC 8032 §5.1.3: x = u v^3 (u v^7)^((p-5)/8), avoiding a separate
    # modular inversion (two ~255-bit pows become one).
    if y >= _p:
        return None
    y2 = y * y % _p
    u = (y2 - 1) % _p
    v = (_d * y2 + 1) % _p
    v3 = v * v % _p * v % _p
    uv3 = u * v3 % _p
    x = uv3 * pow(uv3 * v3 % _p * v % _p, (_p - 5) // 8, _p) % _p
    vx2 = v * x % _p * x % _p
    if vx2 != u:
        if vx2 != _p - u:
            return None
        x = x * _SQRT_M1 % _p
    if x == 0:
        if sign:
            return None
        return 0
    if (x & 1) != sign:
        x = _p - x
    return x


_g_x = _recover_x(_g_y, 0)
assert _g_x is not None
_G: _Point = (_g_x, _g_y, 1, _g_x * _g_y % _p)

# Window tables: _build_table(P, bits)[i][j] = (j << bits*i) * P for
# j in 0..2^bits-1, covering all 256-bit scalars.  Built lazily; the
# fixed-base table starts at 4 bits (~1k point additions, paid once) and is
# promoted to 8 bits (32 additions per multiplication instead of 64) once the
# process has done enough fixed-base multiplications to amortise the ~8k-add
# build.  Frequently verified public keys earn tables of their own through
# the same promotion ladder (see _public_entry/_mul_public).
_WINDOW_BITS = 4
_WINDOWS = 64
# 2*d, folded into the T-coordinate product of the inlined addition below.
_d2 = 2 * _d % _p


def _build_table(base: _Point, bits: int) -> list[list[_Point]]:
    windows = -(-256 // bits)
    table: list[list[_Point]] = []
    for _ in range(windows):
        row: list[_Point] = [(0, 1, 1, 0)]
        acc = base
        for _ in range((1 << bits) - 1):
            row.append(acc)
            acc = _point_add(acc, base)
        table.append(row)
        base = acc  # 2^bits * previous window base
    return table


def _point_mul_table(s: int, table: list[list[_Point]], bits: int,
                     mask: int) -> _Point:
    """``s * P`` through ``P``'s window table, addition formulas inlined.

    The accumulator lives in four locals instead of a tuple, and the first
    non-zero window is copied instead of added to the identity; both are
    representation-level shortcuts that leave the projective value (and hence
    every compressed byte) unchanged.
    """
    p = _p
    d2 = _d2
    X1 = 0
    Y1 = 1
    Z1 = 1
    T1 = 0
    started = False
    window = 0
    while s > 0:
        w = s & mask
        if w:
            X2, Y2, Z2, T2 = table[window][w]
            if started:
                A = (Y1 - X1) * (Y2 - X2) % p
                B = (Y1 + X1) * (Y2 + X2) % p
                C = T1 * d2 % p * T2 % p
                D = 2 * Z1 * Z2 % p
                E = B - A
                F = D - C
                G = D + C
                H = B + A
                X1 = E * F % p
                Y1 = G * H % p
                Z1 = F * G % p
                T1 = E * H % p
            else:
                X1, Y1, Z1, T1 = X2, Y2, Z2, T2
                started = True
        s >>= bits
        window += 1
    return (X1, Y1, Z1, T1)


# Fixed-base state: table, its window size, and a call counter driving the
# 4-bit → 8-bit promotion.
_BASE_PROMOTE_CALLS = 64
_base_table: list[list[_Point]] | None = None
_base_bits = 0
_base_mask = 0
_base_calls = 0


def _point_mul_base(s: int) -> _Point:
    """``s * G`` through the fixed-base window table."""
    global _base_table, _base_bits, _base_mask, _base_calls
    _base_calls += 1
    if _base_table is None:
        _base_table = _build_table(_G, _WINDOW_BITS)
        _base_bits, _base_mask = _WINDOW_BITS, (1 << _WINDOW_BITS) - 1
    elif _base_bits == 4 and _base_calls >= _BASE_PROMOTE_CALLS:
        _base_table = _build_table(_G, 8)
        _base_bits, _base_mask = 8, 255
    return _point_mul_table(s, _base_table, _base_bits, _base_mask)


# Decompressed-public-point cache: verification decodes the same few signer
# keys over and over, so the extended point (and, for hot keys, a window
# table) is kept per compressed key.  Entries are [point, uses, table, bits,
# mask]; promotion thresholds keep one-shot keys (unit tests, RFC vectors) on
# the plain double-and-add path.
_PK_CACHE_MAX = 1024
_PK_TABLE_USES = 4     # build a 4-bit table after this many multiplications
_PK_TABLE8_USES = 48   # upgrade the table to 8-bit windows
_pk_cache: dict[bytes, list] = {}


def _public_entry(public: bytes) -> list | None:
    entry = _pk_cache.get(public)
    if entry is None:
        A = _point_decompress(public)
        if A is None:
            return None
        if len(_pk_cache) >= _PK_CACHE_MAX:
            _pk_cache.clear()
        entry = [A, 0, None, 0, 0]
        _pk_cache[public] = entry
    return entry


def _mul_public(s: int, entry: list) -> _Point:
    """``s * A`` for a cached public point, through its table once hot."""
    entry[1] += 1
    table = entry[2]
    if table is None:
        if entry[1] < _PK_TABLE_USES:
            return _point_mul(s, entry[0])
        table = _build_table(entry[0], _WINDOW_BITS)
        entry[2], entry[3], entry[4] = table, _WINDOW_BITS, (1 << _WINDOW_BITS) - 1
    elif entry[3] == 4 and entry[1] >= _PK_TABLE8_USES:
        table = _build_table(entry[0], 8)
        entry[2], entry[3], entry[4] = table, 8, 255
    return _point_mul_table(s, table, entry[3], entry[4])


def _point_compress(P: _Point) -> bytes:
    zinv = _inv(P[2])
    x = P[0] * zinv % _p
    y = P[1] * zinv % _p
    return int.to_bytes(y | ((x & 1) << 255), 32, "little")


def _point_decompress(s: bytes) -> _Point | None:
    if len(s) != 32:
        return None
    y = int.from_bytes(s, "little")
    sign = y >> 255
    y &= (1 << 255) - 1
    x = _recover_x(y, sign)
    if x is None:
        return None
    return (x, y, 1, x * y % _p)


def _secret_expand(secret: bytes) -> tuple[int, bytes]:
    if len(secret) != SECRET_KEY_SIZE:
        raise ValueError("bad secret key size")
    h = _sha512(secret)
    a = int.from_bytes(h[:32], "little")
    a &= (1 << 254) - 8
    a |= 1 << 254
    return a, h[32:]


# Expanded-key cache: the simulation signs many messages under few seeds, so
# the (scalar, prefix, compressed public key) triple is computed once per seed.
_KEY_CACHE_MAX = 1024
_key_cache: dict[bytes, tuple[int, bytes, bytes]] = {}


def _expanded_key(secret: bytes) -> tuple[int, bytes, bytes]:
    cached = _key_cache.get(secret)
    if cached is None:
        a, prefix = _secret_expand(secret)
        cached = (a, prefix, _point_compress(_point_mul_base(a)))
        if len(_key_cache) >= _KEY_CACHE_MAX:
            _key_cache.clear()
        _key_cache[secret] = cached
    return cached


# Accelerator key caches, mirroring _key_cache/_pk_cache for the C objects.
_accel_private_cache: dict[bytes, object] = {}
_accel_public_cache: dict[bytes, object] = {}


def _accel_private(secret: bytes):
    key = _accel_private_cache.get(secret)
    if key is None:
        if len(_accel_private_cache) >= _KEY_CACHE_MAX:
            _accel_private_cache.clear()
        key = _AccelPrivateKey.from_private_bytes(secret)
        _accel_private_cache[secret] = key
    return key


def _accel_public(public: bytes):
    """Loaded public-key object, or ``None`` for undecodable inputs."""
    key = _accel_public_cache.get(public)
    if key is None:
        try:
            key = _AccelPublicKey.from_public_bytes(public)
        except Exception:
            return None
        if len(_accel_public_cache) >= _PK_CACHE_MAX:
            _accel_public_cache.clear()
        _accel_public_cache[public] = key
    return key


def generate_public_key(secret: bytes) -> bytes:
    """Derive the 32-byte public key from a 32-byte secret seed."""
    if _ACCEL:
        if len(secret) != SECRET_KEY_SIZE:
            raise ValueError("bad secret key size")
        return _accel_private(secret).public_key().public_bytes_raw()
    return _expanded_key(secret)[2]


def sign(secret: bytes, message: bytes) -> bytes:
    """Produce a 64-byte Ed25519 signature of ``message`` under ``secret``."""
    if _ACCEL:
        if len(secret) != SECRET_KEY_SIZE:
            raise ValueError("bad secret key size")
        return _accel_private(secret).sign(message)
    a, prefix, A = _expanded_key(secret)
    r = int.from_bytes(_sha512(prefix + message), "little") % _q
    R = _point_compress(_point_mul_base(r))
    h = int.from_bytes(_sha512(R + A + message), "little") % _q
    s = (r + h * a) % _q
    return R + int.to_bytes(s, 32, "little")


def verify(public: bytes, message: bytes, signature: bytes) -> bool:
    """Check a 64-byte signature against a 32-byte public key.  Never raises."""
    if len(public) != PUBLIC_KEY_SIZE or len(signature) != SIGNATURE_SIZE:
        return False
    if _ACCEL:
        key = _accel_public(public)
        if key is None:
            return False
        try:
            key.verify(signature, message)
        except _InvalidSignature:
            return False
        return True
    entry = _public_entry(public)
    if entry is None:
        return False
    Rs = signature[:32]
    R = _point_decompress(Rs)
    if R is None:
        return False
    s = int.from_bytes(signature[32:], "little")
    if s >= _q:
        return False
    h = int.from_bytes(_sha512(Rs + public + message), "little") % _q
    sB = _point_mul_base(s)
    hA = _mul_public(h, entry)
    return _point_equal(sB, _point_add(R, hA))


def verify_many(items: list[tuple[bytes, bytes, bytes]]) -> list[bool]:
    """Verify ``(public, message, signature)`` batches in order.

    Semantically ``[verify(*item) for item in items]``; batching only shares
    the per-key cached state eagerly, it never changes an individual verdict.
    """
    if not _ACCEL:
        return [verify(public, message, signature)
                for public, message, signature in items]
    out: list[bool] = []
    append = out.append
    load = _accel_public
    invalid = _InvalidSignature
    keys: dict[bytes, object] = {}
    for public, message, signature in items:
        key = keys.get(public)
        if key is None:
            if len(public) != PUBLIC_KEY_SIZE:
                append(False)
                continue
            key = load(public)
            if key is None:
                append(False)
                continue
            keys[public] = key
        if len(signature) != SIGNATURE_SIZE:
            append(False)
            continue
        try:
            key.verify(signature, message)
        except invalid:
            append(False)
        else:
            append(True)
    return out
