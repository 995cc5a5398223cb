"""Deployment start/stop lifecycle (service mode's SIGTERM/restart path)."""

import pytest

from repro.api.builder import Scenario
from repro.core.deployment import build_deployment
from repro.errors import NetworkError


def small_config():
    return (Scenario.hashchain().servers(4).rate(100).collector(10)
            .inject_for(5).drain(30).backend("ideal").build())


def test_stop_is_idempotent_and_halts_block_production():
    deployment = build_deployment(small_config(), seed=1)
    deployment.start()
    deployment.run(until=6.0)
    height = deployment.ledger_backend.height
    assert height > 0
    deployment.stop()
    deployment.stop()  # regression: second stop must be a no-op, not an error
    assert deployment.stopped
    # With injection and block production stopped, advancing the clock
    # produces no further blocks.
    deployment.run(until=20.0)
    assert deployment.ledger_backend.height == height


def test_double_start_and_start_after_stop_are_errors():
    deployment = build_deployment(small_config(), seed=1)
    deployment.start()
    with pytest.raises(NetworkError, match="already started"):
        deployment.start()
    deployment.stop()
    with pytest.raises(NetworkError, match="already stopped"):
        deployment.start()


def test_start_without_injection_runs_no_clients():
    deployment = build_deployment(small_config(), seed=1)
    deployment.start(inject=False)
    deployment.run(until=10.0)
    assert deployment.clients.total_sent == 0
    assert deployment.injected_elements == []
    # The rest of the system is live: a hand-added element still commits.
    from repro.workload.elements import make_element
    element = make_element("probe", 438, created_at=deployment.sim.now)
    assert deployment.servers[0].add(element)
    deployment.metrics.record_injected_many([element], deployment.sim.now)
    deployment.run(until=20.0)
    assert deployment.metrics.committed_count == 1
    deployment.stop()
