"""Tests for the light client and for the Property 1-8 checkers themselves."""

import pytest

from repro.core.client import SetchainClient
from repro.core.proofs import create_epoch_proof
from repro.core.properties import (
    check_add_before_get,
    check_add_get_local,
    check_all,
    check_consistent_gets,
    check_consistent_sets,
    check_eventual_get,
    check_get_global,
    check_unique_epoch,
    check_valid_epoch_proofs,
)
from repro.core.types import SetchainView
from repro.errors import SetchainError
from repro.workload.elements import make_element

from conftest import build_servers


def make_view(the_set=(), history=None, epoch=0, proofs=()):
    return SetchainView.snapshot({e.element_id: e for e in the_set},
                                 {k: set(v) for k, v in (history or {}).items()},
                                 epoch, set(proofs))


# -- property checkers on synthetic views -------------------------------------------------

def test_consistent_sets_detects_missing_elements():
    e = make_element("c", 10)
    good = make_view(the_set=[e], history={1: [e]}, epoch=1)
    bad = make_view(the_set=[], history={1: [e]}, epoch=1)
    assert not check_consistent_sets(good)
    assert check_consistent_sets(bad)


def test_unique_epoch_detects_overlap():
    e = make_element("c", 10)
    bad = make_view(the_set=[e], history={1: [e], 2: [e]}, epoch=2)
    violations = check_unique_epoch(bad)
    assert violations and "Unique-Epoch" in str(violations[0])


def test_consistent_gets_detects_divergence():
    e1, e2 = make_element("c", 10), make_element("c", 10)
    views = {"a": make_view(the_set=[e1], history={1: [e1]}, epoch=1),
             "b": make_view(the_set=[e2], history={1: [e2]}, epoch=1)}
    assert check_consistent_gets(views)
    same = {"a": views["a"], "b": views["a"]}
    assert not check_consistent_gets(same)


def test_get_global_and_eventual_get():
    e = make_element("c", 10)
    holder = make_view(the_set=[e], history={1: [e]}, epoch=1)
    empty = make_view()
    assert check_get_global({"a": holder, "b": empty})
    assert not check_get_global({"a": holder, "b": holder})
    assert check_eventual_get(make_view(the_set=[e]))
    assert not check_eventual_get(holder)


def test_add_before_get_and_add_get_local():
    e, foreign = make_element("c", 10), make_element("c", 10)
    view = make_view(the_set=[e, foreign], history={1: [e, foreign]}, epoch=1)
    assert check_add_before_get(view, all_added=[e])
    assert not check_add_before_get(view, all_added=[e, foreign])
    assert check_add_get_local(make_view(), added_elements=[e])
    assert not check_add_get_local(view, added_elements=[e])


def test_valid_epoch_proofs_checker(scheme):
    elements = [make_element("c", 10)]
    proofs = [create_epoch_proof(scheme, scheme.generate_keypair(f"s{i}"), 1, elements)
              for i in range(3)]
    view = make_view(the_set=elements, history={1: elements}, epoch=1, proofs=proofs)
    assert not check_valid_epoch_proofs(view, quorum=3)
    assert check_valid_epoch_proofs(view, quorum=4)


def test_check_all_aggregates(scheme):
    e = make_element("c", 10)
    views = {"a": make_view(the_set=[e], history={1: [e]}, epoch=1)}
    violations = check_all(views, quorum=1, all_added=[e], include_liveness=True)
    # Only missing proofs should be reported.
    assert all(v.property_name == "Valid-Epoch" for v in violations)
    assert not check_all(views, quorum=1, all_added=[e], include_liveness=False)


# -- light client -------------------------------------------------------------------------

def test_client_quorum_validation(scheme):
    with pytest.raises(SetchainError):
        SetchainClient("c", scheme, quorum=0)


def test_client_add_get_and_commit_check_on_live_cluster(sim, network, scheme,
                                                         small_setchain_config,
                                                         ideal_ledger):
    cluster = build_servers("hashchain", sim, network, scheme, small_setchain_config,
                            ideal_ledger)
    client = SetchainClient("client-0", scheme, quorum=small_setchain_config.quorum)
    element = make_element("client-0", 120)
    assert cluster[0].add(element)
    # Before anything reaches the ledger the element is uncommitted.
    early = client.check_commit(client.get(cluster[1]), element)
    assert not early.committed and early.epoch is None
    # Drive the simulation until commit through a *different* server.
    outcome = client.wait_for_commit(sim, cluster[1], element, max_time=60.0)
    assert outcome.committed
    assert outcome.valid_proofs >= small_setchain_config.quorum
    assert outcome.epoch is not None


def test_client_counts_only_valid_distinct_proofs(scheme):
    elements = [make_element("c", 10)]
    good = [create_epoch_proof(scheme, scheme.generate_keypair(f"s{i}"), 1, elements)
            for i in range(2)]
    # A forged proof from an unknown signer and a duplicate signer must not count.
    forged = type(good[0])(epoch_number=1, epoch_hash=good[0].epoch_hash,
                           signature=b"0" * 64, signer="s0")
    view = make_view(the_set=elements, history={1: elements}, epoch=1,
                     proofs=good + [forged])
    client = SetchainClient("c", scheme, quorum=3)
    assert client.count_valid_proofs(view, 1) == 2
    check = client.check_commit(view, elements[0])
    assert check.epoch == 1 and not check.committed


def test_client_commit_check_for_unknown_epoch(scheme):
    client = SetchainClient("c", scheme, quorum=2)
    view = make_view()
    assert client.count_valid_proofs(view, 1) == 0
    assert not client.check_commit(view, make_element("c", 10)).committed
