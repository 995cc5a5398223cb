"""Tests for epoch-proof creation and the f+1 commit rule
(``SetchainClient.check_commit``, the one implementation of the rule)."""

import pytest

from repro.core.client import SetchainClient
from repro.core.proofs import create_epoch_proof, verify_epoch_proof
from repro.core.types import SetchainView
from repro.crypto.keys import PublicKeyInfrastructure
from repro.crypto.signatures import SignatureScheme
from repro.workload.elements import make_element


@pytest.fixture
def scheme():
    return SignatureScheme(PublicKeyInfrastructure())


@pytest.fixture
def elements():
    return [make_element("c", 100) for _ in range(5)]


def make_proofs(scheme, elements, epoch, signers):
    proofs = []
    for name in signers:
        keypair = scheme.generate_keypair(name)
        proofs.append(create_epoch_proof(scheme, keypair, epoch, elements))
    return proofs


def view_of(history, proofs):
    """The single-server view a light client reads: ``history`` plus ``proofs``."""
    the_set = {e.element_id: e for epoch in history.values() for e in epoch}
    return SetchainView.snapshot(the_set, history, max(history), set(proofs))


def committed(scheme, elements, proofs, quorum):
    """Does a client with this quorum trust epoch 1 = ``elements``?"""
    view = view_of({1: elements}, proofs)
    return SetchainClient("c", scheme, quorum).check_commit(view, elements[0]).committed


def test_create_and_verify_epoch_proof(scheme, elements):
    keypair = scheme.generate_keypair("server-0")
    proof = create_epoch_proof(scheme, keypair, 3, elements)
    assert proof.epoch_number == 3 and proof.signer == "server-0"
    assert verify_epoch_proof(scheme, proof, elements)
    assert not verify_epoch_proof(scheme, proof, elements[:-1])


def test_verify_rejects_resigned_by_other_server(scheme, elements):
    kp0 = scheme.generate_keypair("server-0")
    scheme.generate_keypair("server-1")
    proof = create_epoch_proof(scheme, kp0, 1, elements)
    impostor = type(proof)(epoch_number=1, epoch_hash=proof.epoch_hash,
                           signature=proof.signature, signer="server-1")
    assert not verify_epoch_proof(scheme, impostor, elements)


def test_distinct_signers_counts_unique_and_filters_epoch(scheme, elements):
    proofs = make_proofs(scheme, elements, 1, ["s0", "s1", "s2"])
    proofs.append(proofs[0])  # duplicate
    other_epoch = create_epoch_proof(scheme, scheme.generate_keypair("s3"), 2, elements)
    client = SetchainClient("c", scheme, quorum=3)
    view = view_of({1: elements, 2: elements}, proofs + [other_epoch])
    assert client.count_valid_proofs(view, 1) == 3
    bogus = [type(p)(epoch_number=1, epoch_hash="bogus", signature=p.signature,
                     signer=p.signer) for p in proofs]
    assert client.count_valid_proofs(view_of({1: elements}, bogus), 1) == 0


def test_epoch_is_committed_requires_quorum(scheme, elements):
    proofs = make_proofs(scheme, elements, 1, ["s0", "s1"])
    assert not committed(scheme, elements, proofs, quorum=3)
    proofs += make_proofs(scheme, elements, 1, ["s2"])
    assert committed(scheme, elements, proofs, quorum=3)


def test_epoch_is_committed_ignores_mismatching_proofs(scheme, elements):
    good = make_proofs(scheme, elements, 1, ["s0", "s1"])
    wrong_content = make_proofs(scheme, elements[:-1], 1, ["s2", "s3"])
    assert not committed(scheme, elements, good + wrong_content, quorum=3)


def test_epoch_is_committed_with_signature_verification(scheme, elements):
    proofs = make_proofs(scheme, elements, 1, ["s0", "s1"])
    forged = type(proofs[0])(epoch_number=1, epoch_hash=proofs[0].epoch_hash,
                             signature=b"f" * 64, signer="s9")
    scheme.generate_keypair("s9")
    assert not committed(scheme, elements, proofs + [forged], quorum=3)


def test_committed_epochs_over_history(scheme, elements):
    history = {1: frozenset(elements[:2]), 2: frozenset(elements[2:])}
    proofs = []
    proofs += make_proofs(scheme, history[1], 1, ["a0", "a1", "a2"])
    proofs += make_proofs(scheme, history[2], 2, ["a0"])
    client = SetchainClient("c", scheme, quorum=3)
    view = view_of(history, proofs)
    assert {number for number, epoch in history.items()
            if client.check_commit(view, next(iter(epoch))).committed} == {1}
