"""Algorithm-level tests for Vanilla over the ideal ledger."""

import pytest

from repro.core.properties import check_all
from repro.core.types import EpochProof
from repro.workload.elements import make_element

from conftest import build_servers


@pytest.fixture
def cluster(sim, network, scheme, small_setchain_config, ideal_ledger):
    return build_servers("vanilla", sim, network, scheme, small_setchain_config,
                         ideal_ledger)


def test_add_rejects_invalid_and_duplicate(cluster):
    server = cluster[0]
    element = make_element("c", 100)
    assert server.add(element)
    assert not server.add(element)
    assert not server.add(make_element("c", 100, valid=False))
    assert server.duplicate_adds == 1
    assert server.rejected_elements == 1
    view = server.get()
    assert element in view.the_set and len(view.the_set) == 1


def test_added_element_reaches_every_server_and_an_epoch(sim, cluster):
    element = make_element("c", 100)
    cluster[0].add(element)
    sim.run_until(5.0)
    for server in cluster:
        view = server.get()
        assert element in view.the_set
        assert view.epoch_of(element) is not None


def test_epoch_per_block_and_unique_assignment(sim, cluster):
    elements = [make_element("c", 100) for _ in range(20)]
    for i, element in enumerate(elements):
        cluster[i % 4].add(element)
    sim.run_until(10.0)
    views = {s.name: s.get() for s in cluster}
    assert not check_all(views, quorum=3, all_added=elements)
    # All 20 elements are epoched exactly once on every server.
    for view in views.values():
        assert sum(len(e) for e in view.history.values()) == 20


def test_epoch_proofs_reach_quorum(sim, cluster, small_setchain_config):
    element = make_element("c", 100)
    cluster[0].add(element)
    sim.run_until(10.0)
    view = cluster[1].get()
    epoch = view.epoch_of(element)
    signers = {p.signer for p in view.proofs_for(epoch)}
    assert len(signers) >= small_setchain_config.quorum
    assert epoch in cluster[1].committed_epoch_numbers()


def test_invalid_elements_in_ledger_are_not_epoched(sim, cluster, ideal_ledger):
    from repro.ledger.types import new_transaction
    bad = make_element("byz", 100, valid=False)
    good = make_element("c", 100)
    ideal_ledger.submit([new_transaction(bad, bad.size_bytes, "byzantine")])
    cluster[0].add(good)
    sim.run_until(5.0)
    for server in cluster:
        view = server.get()
        assert bad not in view.the_set
        assert bad not in view.elements_in_epochs()
        assert good in view.elements_in_epochs()


def test_duplicate_ledger_entries_epoched_once(sim, cluster, ideal_ledger):
    from repro.ledger.types import new_transaction
    element = make_element("c", 100)
    # A Byzantine server replays the same element as two ledger transactions.
    ideal_ledger.submit([new_transaction(element, element.size_bytes, "byz-1"),
                         new_transaction(element, element.size_bytes, "byz-2")])
    sim.run_until(5.0)
    for server in cluster:
        view = server.get()
        epochs_containing = [i for i, e in view.history.items() if element in e]
        assert len(epochs_containing) == 1


def test_consistent_epochs_across_servers(sim, cluster):
    for i in range(12):
        cluster[i % 4].add(make_element(f"c{i % 4}", 80 + i))
    sim.run_until(10.0)
    reference = cluster[0].get()
    for server in cluster[1:]:
        view = server.get()
        common = min(reference.epoch, view.epoch)
        for epoch in range(1, common + 1):
            assert reference.history[epoch] == view.history[epoch]


def test_proof_transactions_do_not_create_epochs(sim, cluster):
    # One element -> one epoch; the later proof-only blocks must not create more.
    cluster[0].add(make_element("c", 100))
    sim.run_until(20.0)
    epochs = {server.get().epoch for server in cluster}
    assert epochs == {1}


def test_get_returns_proofs_as_epoch_proof_objects(sim, cluster):
    cluster[0].add(make_element("c", 100))
    sim.run_until(10.0)
    view = cluster[0].get()
    assert view.proofs
    assert all(isinstance(p, EpochProof) for p in view.proofs)
