"""Algorithm-level tests for Compresschain over the ideal ledger."""

import pytest

from repro.compressor.base import CompressedBatch
from repro.core.properties import check_all
from repro.workload.elements import make_element

from conftest import build_servers


@pytest.fixture
def cluster(sim, network, scheme, small_setchain_config, ideal_ledger):
    return build_servers("compresschain", sim, network, scheme,
                         small_setchain_config, ideal_ledger)


def test_add_goes_to_collector_not_ledger(cluster, ideal_ledger):
    server = cluster[0]
    server.add(make_element("c", 100))
    assert len(server.collector) == 1
    assert ideal_ledger.pending_count() == 0


def test_collector_limit_triggers_compressed_append(sim, cluster, ideal_ledger,
                                                    small_setchain_config):
    server = cluster[0]
    for _ in range(small_setchain_config.collector_limit):
        server.add(make_element("c", 100))
    assert server.batches_appended == 1
    assert len(server.collector) == 0
    assert ideal_ledger.pending_count() == 1


def test_collector_timeout_flushes_partial_batch(sim, cluster):
    server = cluster[0]
    server.add(make_element("c", 100))
    sim.run_until(1.0)  # timeout is 0.5s in the fixture config
    assert server.batches_appended == 1


def test_each_batch_becomes_one_epoch(sim, cluster, small_setchain_config):
    limit = small_setchain_config.collector_limit
    # Two full batches from server 0.
    for _ in range(2 * limit):
        cluster[0].add(make_element("c", 100))
    sim.run_until(10.0)
    view = cluster[1].get()
    assert view.epoch >= 2
    sizes = sorted(len(e) for e in view.history.values() if e)
    assert limit in sizes


def test_elements_commit_with_quorum_proofs(sim, cluster, small_setchain_config):
    elements = [make_element("c", 100) for _ in range(25)]
    for i, element in enumerate(elements):
        cluster[i % 4].add(element)
    sim.run_until(30.0)
    views = {s.name: s.get() for s in cluster}
    assert not check_all(views, quorum=small_setchain_config.quorum, all_added=elements)


def test_compression_reduces_appended_bytes(sim, cluster, ideal_ledger,
                                            small_setchain_config):
    server = cluster[0]
    for _ in range(small_setchain_config.collector_limit):
        server.add(make_element("c", 438))
    tx = ideal_ledger._pending[0]
    assert isinstance(tx.payload, CompressedBatch)
    assert tx.size_bytes < small_setchain_config.collector_limit * 438
    assert tx.payload.ratio > 2.0


def test_foreign_garbage_transactions_are_skipped(sim, cluster, ideal_ledger):
    from repro.ledger.types import new_transaction
    ideal_ledger.submit([new_transaction("not-a-batch", 50, "byzantine")])
    cluster[0].add(make_element("c", 100))
    sim.run_until(5.0)
    views = {s.name: s.get() for s in cluster}
    assert all(view.epoch >= 1 for view in views.values())
    assert not check_all(views, quorum=3)


def test_invalid_elements_inside_batches_are_filtered(sim, cluster, ideal_ledger):
    from repro.compressor.model import ModelCompressor
    from repro.ledger.types import new_transaction
    bad = make_element("byz", 100, valid=False)
    good_foreign = make_element("byz", 100)
    batch = ModelCompressor().compress([bad, good_foreign], 200)
    ideal_ledger.submit([new_transaction(batch, batch.compressed_size, "byzantine")])
    sim.run_until(5.0)
    for server in cluster:
        view = server.get()
        assert bad not in view.the_set
        assert good_foreign in view.the_set
        assert good_foreign in view.elements_in_epochs()


def test_light_mode_produces_same_epochs(sim, network, scheme, small_setchain_config,
                                         ideal_ledger):
    cluster = build_servers("compresschain", sim, network, scheme,
                            small_setchain_config, ideal_ledger, light=True)
    elements = [make_element("c", 100) for _ in range(15)]
    for i, element in enumerate(elements):
        cluster[i % 4].add(element)
    sim.run_until(20.0)
    views = {s.name: s.get() for s in cluster}
    assert not check_all(views, quorum=small_setchain_config.quorum, all_added=elements)
    assert all(s.light for s in cluster)
