"""Algorithm-level tests for Hashchain over the ideal ledger."""

import pytest

from repro.config import HASH_BATCH_SIZE
from repro.core.properties import check_all
from repro.core.types import HashBatch
from repro.workload.elements import make_element

from conftest import build_servers


@pytest.fixture
def cluster(sim, network, scheme, small_setchain_config, ideal_ledger):
    return build_servers("hashchain", sim, network, scheme, small_setchain_config,
                         ideal_ledger)


def fill_collector(server, count, size=100):
    elements = [make_element("c", size) for _ in range(count)]
    for element in elements:
        server.add(element)
    return elements


def test_flush_appends_fixed_size_hash_batch(cluster, ideal_ledger, small_setchain_config):
    server = cluster[0]
    fill_collector(server, small_setchain_config.collector_limit)
    assert ideal_ledger.pending_count() == 1
    tx = ideal_ledger._pending[0]
    assert isinstance(tx.payload, HashBatch)
    assert tx.size_bytes == HASH_BATCH_SIZE
    assert server.store.is_local(tx.payload.batch_hash)


def test_hash_reversal_recovers_foreign_batches(sim, cluster, small_setchain_config):
    elements = fill_collector(cluster[0], small_setchain_config.collector_limit)
    sim.run_until(10.0)
    # Every other server requested the batch from server-0 and now holds it.
    assert cluster[0].store.served_requests >= len(cluster) - 1
    for server in cluster[1:]:
        assert server.batch_requests_sent >= 1
        view = server.get()
        for element in elements:
            assert element in view.the_set


def test_consolidation_requires_quorum_signers(sim, cluster, small_setchain_config):
    elements = fill_collector(cluster[0], small_setchain_config.collector_limit)
    sim.run_until(15.0)
    views = {s.name: s.get() for s in cluster}
    assert not check_all(views, quorum=small_setchain_config.quorum, all_added=elements)
    # hash_to_signers reached at least f+1 distinct signers on every server.
    for server in cluster:
        assert any(len(signers) >= small_setchain_config.quorum
                   for signers in server.hash_to_signers.values())


def test_every_server_cosigns_each_hash(sim, cluster, small_setchain_config):
    fill_collector(cluster[0], small_setchain_config.collector_limit)
    sim.run_until(15.0)
    # The analytical model assumes n hash-batches per consolidated batch.
    total_hash_batches = sum(s.hash_batches_appended for s in cluster)
    assert total_hash_batches >= len(cluster)


def test_elements_commit_end_to_end(sim, cluster, small_setchain_config):
    elements = []
    for i in range(30):
        element = make_element(f"c{i % 4}", 100)
        cluster[i % 4].add(element)
        elements.append(element)
    sim.run_until(40.0)
    views = {s.name: s.get() for s in cluster}
    violations = check_all(views, quorum=small_setchain_config.quorum, all_added=elements)
    assert violations == []


def test_unresolvable_hash_batch_is_skipped(sim, cluster, ideal_ledger, scheme):
    """A hash-batch whose signer cannot provide the batch never consolidates."""
    from repro.core.types import hash_batch_payload
    from repro.ledger.types import new_transaction
    keypair = scheme.generate_keypair("outsider")
    bogus_hash = "ab" * 64
    hb = HashBatch(batch_hash=bogus_hash,
                   signature=scheme.sign(keypair, hash_batch_payload(bogus_hash)),
                   signer="server-1")  # claims server-1 signed it -> signature invalid
    ideal_ledger.submit([new_transaction(hb, HASH_BATCH_SIZE, "outsider")])
    elements = fill_collector(cluster[0], 10)
    sim.run_until(15.0)
    for server in cluster:
        view = server.get()
        assert view.epoch >= 1  # the real batch consolidated
        assert all(element in view.elements_in_epochs() for element in elements)
        assert bogus_hash not in server._consolidated


def test_request_timeout_when_signer_unreachable(sim, network, cluster,
                                                 small_setchain_config):
    """If the origin never answers, the requester times out and skips the hash."""
    network.add_drop_rule(lambda m: m.msg_type == "request_batch"
                          and m.recipient == "server-0")
    fill_collector(cluster[0], small_setchain_config.collector_limit)
    sim.run_until(15.0)
    for server in cluster[1:]:
        assert server.batch_requests_failed >= 1
    # With only one signer able to serve contents, the batch cannot gather
    # f+1 *content-verified* signers at the other servers, so they must not
    # have consolidated an epoch for it.
    assert all(server.get().epoch == 0 for server in cluster[1:])


def test_light_mode_skips_hash_reversal(sim, network, scheme, small_setchain_config,
                                        ideal_ledger):
    cluster = build_servers("hashchain", sim, network, scheme, small_setchain_config,
                            ideal_ledger, light=True)
    elements = []
    for i in range(20):
        element = make_element("c", 100)
        cluster[i % 4].add(element)
        elements.append(element)
    sim.run_until(20.0)
    assert all(s.batch_requests_sent == 0 for s in cluster)
    views = {s.name: s.get() for s in cluster}
    assert not check_all(views, quorum=small_setchain_config.quorum, all_added=elements)


def test_epoch_content_identical_across_servers(sim, cluster, small_setchain_config):
    for i in range(25):
        cluster[i % 4].add(make_element(f"c{i % 4}", 80 + i))
    sim.run_until(30.0)
    reference = cluster[0].get()
    for server in cluster[1:]:
        view = server.get()
        for epoch in range(1, min(reference.epoch, view.epoch) + 1):
            assert reference.history[epoch] == view.history[epoch]


def test_backlog_counter_exposes_processing_queue(cluster):
    assert all(server.backlog == 0 for server in cluster)
