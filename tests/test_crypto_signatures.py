"""Tests for signature schemes and the PKI."""

import pytest

from repro.crypto.keys import KeyPair, PublicKeyInfrastructure, derive_secret_seed
from repro.crypto.signatures import SignatureScheme
from repro.errors import CryptoError


@pytest.fixture(params=["simulated"])
def any_scheme(request):
    """The scheme ``signature_scheme="simulated"``, its one legal value, names."""
    return SignatureScheme(PublicKeyInfrastructure())


def test_sign_verify_roundtrip(any_scheme):
    keypair = any_scheme.generate_keypair("server-0")
    signature = any_scheme.sign(keypair, "epoch|1|abc")
    assert any_scheme.verify("server-0", "epoch|1|abc", signature)


def test_verify_rejects_wrong_message(any_scheme):
    keypair = any_scheme.generate_keypair("server-0")
    signature = any_scheme.sign(keypair, "hello")
    assert not any_scheme.verify("server-0", "goodbye", signature)


def test_verify_rejects_wrong_claimed_owner(any_scheme):
    kp0 = any_scheme.generate_keypair("server-0")
    any_scheme.generate_keypair("server-1")
    signature = any_scheme.sign(kp0, "msg")
    assert not any_scheme.verify("server-1", "msg", signature)


def test_verify_unknown_owner_is_false(any_scheme):
    keypair = any_scheme.generate_keypair("server-0")
    signature = any_scheme.sign(keypair, "msg")
    assert not any_scheme.verify("stranger", "msg", signature)


def test_keypairs_are_deterministic_per_deployment_seed(any_scheme):
    a = any_scheme.generate_keypair("server-7", deployment_seed=3)
    fresh = type(any_scheme)(PublicKeyInfrastructure())
    b = fresh.generate_keypair("server-7", deployment_seed=3)
    c = fresh.generate_keypair("server-8", deployment_seed=3)
    assert a.public == b.public
    assert b.public != c.public


def test_signature_is_64_bytes(any_scheme):
    keypair = any_scheme.generate_keypair("server-0")
    assert len(any_scheme.sign(keypair, "x")) == 64


# -- PKI ---------------------------------------------------------------------------

def test_pki_register_and_lookup():
    pki = PublicKeyInfrastructure()
    pki.register("a", b"key-a")
    assert pki.knows("a") and not pki.knows("b")


def test_pki_conflicting_reregistration_rejected():
    pki = PublicKeyInfrastructure()
    pki.register("a", b"key-1")
    pki.register("a", b"key-1")  # same key is fine
    with pytest.raises(CryptoError):
        pki.register("a", b"key-2")


def test_pki_empty_owner_rejected():
    with pytest.raises(CryptoError):
        PublicKeyInfrastructure().register("", b"key")


# -- KeyPair / seed derivation ----------------------------------------------------------

def test_keypair_validation():
    with pytest.raises(CryptoError):
        KeyPair(owner="", secret=b"0" * 32, public=b"p")
    with pytest.raises(CryptoError):
        KeyPair(owner="a", secret=b"short", public=b"p")
    with pytest.raises(CryptoError):
        KeyPair(owner="a", secret=b"0" * 32, public=b"")


def test_derive_secret_seed_is_stable_and_distinct():
    assert derive_secret_seed("s0", 1) == derive_secret_seed("s0", 1)
    assert derive_secret_seed("s0", 1) != derive_secret_seed("s1", 1)
    assert derive_secret_seed("s0", 1) != derive_secret_seed("s0", 2)
    assert len(derive_secret_seed("s0")) == 32
