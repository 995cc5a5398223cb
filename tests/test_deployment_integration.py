"""Integration tests: full deployments on both ledger backends, end to end."""

import pytest

from repro.api import Scenario, Session
from repro.core.deployment import build_deployment
from repro.ledger.cometbft.engine import CometBFTNetwork
from repro.ledger.ideal import IdealLedger


def small(algorithm):
    return (Scenario(algorithm).rate(120).inject_for(5).drain(40).servers(4)
            .collector(20).seed(3))


def test_build_deployment_wires_everything():
    deployment = build_deployment(small("hashchain").build())
    assert len(deployment.servers) == 4
    assert isinstance(deployment.ledger_backend, CometBFTNetwork)
    assert len(deployment.clients.clients) == 4
    assert {s.algorithm for s in deployment.servers} == {"hashchain"}
    # PKI knows every server.
    assert all(deployment.scheme.pki.knows(f"server-{i}") for i in range(4))


def test_build_deployment_ideal_backend():
    deployment = build_deployment(small("vanilla").backend("ideal").build())
    assert isinstance(deployment.ledger_backend, IdealLedger)


@pytest.mark.parametrize("algorithm", ["vanilla", "compresschain", "hashchain",
                                       "hashchain-light", "compresschain-light"])
def test_end_to_end_all_algorithms_commit_and_satisfy_properties(algorithm):
    deployment = Session(small(algorithm)).start().run().deployment
    injected = len(deployment.injected_elements)
    assert injected > 0
    assert deployment.metrics.committed_count == injected
    assert deployment.committed_fraction == pytest.approx(1.0)
    assert deployment.check_properties() == []


def test_end_to_end_on_ideal_backend_matches_properties():
    deployment = Session(small("hashchain").backend("ideal")).start().run().deployment
    assert deployment.metrics.committed_count == len(deployment.injected_elements)
    assert deployment.check_properties() == []


def test_deterministic_reruns_produce_identical_commit_counts():
    a = Session(small("compresschain")).start().run().deployment
    b = Session(small("compresschain")).start().run().deployment
    assert len(a.injected_elements) == len(b.injected_elements)
    assert a.metrics.committed_count == b.metrics.committed_count
    assert a.metrics.commit_times() == b.metrics.commit_times()


def test_run_to_completion_waits_for_all_commits():
    config = small("hashchain").drain(1).build()  # too short on its own
    deployment = build_deployment(config)
    deployment.start()
    deployment.run_to_completion(extra_time=200.0)
    assert deployment.metrics.committed_count == len(deployment.injected_elements)


def test_mempool_latency_stages_available_on_cometbft_backend():
    cdfs = Session(small("compresschain")).start().run().latency_cdfs()
    assert {"first_mempool", "quorum_mempools", "all_mempools",
            "ledger", "committed"} <= set(cdfs)
    committed = cdfs["committed"]
    assert committed.count > 0
    # Stage ordering: first mempool <= ledger <= commit for the median element.
    assert cdfs["first_mempool"].quantile(0.5) <= cdfs["ledger"].quantile(0.5)
    assert cdfs["ledger"].quantile(0.5) <= committed.quantile(0.5)


def test_unstressed_runs_have_second_scale_commit_latency():
    """Paper: Compresschain/Hashchain commit latency below ~4 s when unstressed."""
    deployment = Session(small("hashchain").rate(80)).start().run().deployment
    latencies = deployment.metrics.commit_latencies()
    assert latencies
    median = latencies[len(latencies) // 2]
    assert median < 10.0
