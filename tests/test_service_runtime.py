"""ServiceRuntime: streamed ingest, backpressure, ticking, live metrics.

Covers the service façade over a deployment: bounded-queue backpressure with
exact accept/defer/reject accounting, trace-driven ingest, rolling restarts
under traffic, the live metrics/health snapshots (including the stdlib HTTP
endpoint), and the idempotent stop lifecycle.
"""

import json
import urllib.error
import urllib.request
from unittest import mock

import pytest

from repro.api.builder import Scenario
from repro.core.types import SetchainView
from repro.errors import ConfigurationError, SimulationError
from repro.faults import Crash, Leave, Recover, Targets
from repro.service.http import MetricsEndpoint
from repro.service.runtime import DEFER_WATERMARK, ServiceRuntime
from repro.workload.traces import record_trace


#: Every server of the deployment (a crash of them all, not a random one).
SERVERS = Targets(role="servers")


def small_runtime(**kwargs):
    scenario = (Scenario.hashchain().servers(4).rate(100).collector(10)
                .inject_for(5).drain(30).backend("ideal"))
    return ServiceRuntime(scenario, seed=5, **kwargs)


# -- ingest and backpressure ----------------------------------------------------


def test_streamed_elements_commit_and_satisfy_properties():
    runtime = small_runtime()
    verdicts = runtime.submit_many(200)
    assert verdicts == {"accepted": 200, "deferred": 0, "rejected": 0}
    runtime.run_for(8.0)
    snapshot = runtime.metrics_snapshot()
    assert snapshot["injected"] == 200
    assert snapshot["committed"] == 200
    assert snapshot["committed_fraction"] == 1.0
    assert runtime.session.check_properties() == []
    runtime.stop()


def test_backpressure_accounts_for_every_submission():
    runtime = small_runtime(queue_limit=100)
    verdicts = runtime.submit_many(250)
    # Exactly one verdict per submission; the queue bound is respected.
    assert sum(verdicts.values()) == 250
    assert verdicts["rejected"] == 150
    assert verdicts["deferred"] > 0
    assert runtime.queue_depth == 100
    counters = runtime.ingress_counters
    assert counters["accepted"] + counters["deferred"] == 100
    runtime.run_for(1.0)
    assert runtime.queue_depth == 0  # drained into the servers
    assert runtime.drained == 100
    runtime.stop()


def test_defer_watermark_flags_pressure_before_rejection():
    runtime = small_runtime(queue_limit=10)
    verdicts = [runtime.submit() for _ in range(10)]
    watermark = int(10 * DEFER_WATERMARK)
    assert verdicts[:watermark] == ["accepted"] * watermark
    assert set(verdicts[watermark:]) == {"deferred"}
    assert runtime.submit() == "rejected"
    runtime.stop()


def test_submissions_rejected_after_stop():
    runtime = small_runtime()
    runtime.stop()
    assert runtime.submit() == "rejected"
    with pytest.raises(SimulationError, match="stopped"):
        runtime.tick()


def test_queue_held_while_every_server_is_down():
    runtime = small_runtime()
    runtime.apply(Crash(targets=SERVERS))
    runtime.submit_many(50)
    runtime.run_for(1.0)
    assert runtime.queue_depth == 50  # nothing lost, nothing drained
    runtime.apply(Recover(targets=SERVERS))
    runtime.run_for(8.0)
    assert runtime.queue_depth == 0
    assert runtime.metrics_snapshot()["committed"] == 50
    runtime.stop()


def test_invalid_parameters_rejected():
    with pytest.raises(ConfigurationError):
        small_runtime(tick=0.0)
    with pytest.raises(ConfigurationError):
        small_runtime(queue_limit=0)
    with pytest.raises(ConfigurationError):
        small_runtime(drain_per_tick=0)
    # checkpoint_every=0 used to divide by zero on the first durable tick,
    # and a negative value checkpointed on a nonsense cadence.
    for cadence in (0, -3):
        with pytest.raises(ConfigurationError, match="checkpoint_every"):
            small_runtime(checkpoint_every=cadence)
    runtime = small_runtime()
    with pytest.raises(ConfigurationError):
        runtime.submit(size_bytes=0)
    with pytest.raises(ConfigurationError):
        runtime.submit_many(-1)  # would drive the ingress counters backwards
    assert runtime.submit_many(0) == {"accepted": 0, "deferred": 0, "rejected": 0}
    with pytest.raises(ConfigurationError):
        runtime.run_for(-1.0)
    runtime.stop()


# -- trace-driven ingest --------------------------------------------------------


def test_trace_replay_drives_ingest_through_backpressure(tmp_path):
    trace = record_trace(rate=100.0, duration=3.0,
                         clients=["client-0", "client-1"], seed=9)
    path = tmp_path / "trace.json"
    trace.to_json(path)

    runtime = small_runtime()
    assert runtime.load_trace(path) == len(trace)
    assert not runtime.trace_done
    runtime.run_for(4.0)
    assert runtime.trace_done
    counters = runtime.ingress_counters
    assert counters["accepted"] == len(trace)
    assert counters["drained"] == len(trace)
    runtime.run_for(6.0)
    snapshot = runtime.metrics_snapshot()
    assert snapshot["injected"] == len(trace)
    assert snapshot["committed"] == len(trace)
    # The replayed clients, not the submit() default, appear as origins.
    clients = {e.client for e in runtime.deployment.injected_elements}
    assert clients == {"client-0", "client-1"}
    runtime.stop()


# -- rolling restarts -----------------------------------------------------------


def test_rolling_restart_keeps_committing():
    runtime = small_runtime()
    runtime.submit_many(100)
    runtime.run_for(2.0)
    runtime.rolling_restart(names=["server-0", "server-1"],
                            down_for=1.0, between=1.0)
    runtime.submit_many(100)
    runtime.run_for(10.0)
    snapshot = runtime.metrics_snapshot()
    assert snapshot["committed"] == 200
    assert all(not state["crashed"]
               for state in snapshot["servers"].values())
    # The restarts are faults like any other: on the timeline, each crash
    # window closed by its recovery.
    events = runtime.result().faults["events"]
    assert [(e["kind"], e["targets"]) for e in events] == [
        ("crash", ["server-0"]), ("recover", ["server-0"]),
        ("crash", ["server-1"]), ("recover", ["server-1"])]
    for crash, recover in zip(events[::2], events[1::2]):
        assert crash["until"] == recover["at"] == pytest.approx(crash["at"] + 1)
    runtime.stop()


def test_rolling_restart_on_a_stopped_runtime_crashes_nothing():
    runtime = small_runtime()
    runtime.stop()
    with pytest.raises(SimulationError, match="stopped"):
        runtime.rolling_restart(names=["server-0"])
    assert not runtime.deployment.servers[0].crashed
    assert runtime.deployment.fault_injector is None


# -- live metrics ---------------------------------------------------------------


def test_metrics_snapshot_uses_run_result_vocabulary():
    runtime = small_runtime()
    runtime.submit_many(100)
    runtime.run_for(5.0)
    snapshot = runtime.metrics_snapshot()
    # RunResult vocabulary, so batch-artifact dashboards read scrapes as-is.
    for key in ("label", "algorithm", "injected", "committed",
                "committed_fraction", "first_commit"):
        assert key in snapshot
    assert snapshot["algorithm"] == "hashchain"
    assert snapshot["rolling_throughput"] > 0
    assert snapshot["ledger"]["height"] > 0
    assert set(snapshot["servers"]) == {f"server-{i}" for i in range(4)}
    json.dumps(snapshot)  # must be JSON-serialisable as scraped
    runtime.stop()


def test_a_scrape_reads_epochs_without_snapshotting_a_server():
    """A scrape needs each server's epoch number, not a frozen copy of its
    the_set, history and proofs."""
    runtime = small_runtime()
    runtime.submit_many(100)
    runtime.run_for(5.0)
    refuse = AssertionError("a scrape must not build a SetchainView")
    with mock.patch.object(SetchainView, "snapshot", side_effect=refuse):
        snapshot = runtime.metrics_snapshot()
    epochs = {server.name: server.epoch for server in runtime.deployment.servers}
    assert {name: state["epoch"] for name, state in snapshot["servers"].items()} == epochs
    assert min(epochs.values()) > 0
    runtime.stop()


def test_healthz_degrades_below_quorum():
    runtime = small_runtime()
    assert runtime.healthz()["status"] == "ok"
    quorum = runtime.config.setchain.quorum
    live = len(runtime.deployment.servers)
    for server in runtime.deployment.servers:
        if live < quorum:
            break
        runtime.apply(Crash(targets=Targets(nodes=(server.name,))))
        live -= 1
    health = runtime.healthz()
    assert health["status"] == "degraded"
    assert health["live_servers"] < health["quorum"]
    runtime.stop()


def test_http_endpoint_serves_metrics_and_health():
    runtime = small_runtime()
    endpoint = MetricsEndpoint(runtime)
    try:
        runtime.submit_many(50)
        runtime.run_for(3.0)
        with urllib.request.urlopen(endpoint.url + "/metrics") as response:
            assert response.status == 200
            scraped = json.load(response)
        assert scraped["injected"] == 50
        assert scraped == runtime.metrics_snapshot()
        with urllib.request.urlopen(endpoint.url + "/healthz") as response:
            assert json.load(response)["status"] == "ok"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(endpoint.url + "/nowhere")
        assert excinfo.value.code == 404
    finally:
        endpoint.stop()
        endpoint.stop()  # idempotent
        runtime.stop()


def test_http_healthz_reports_degraded_as_503():
    runtime = small_runtime()
    endpoint = MetricsEndpoint(runtime)
    try:
        runtime.apply(Crash(targets=SERVERS))
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(endpoint.url + "/healthz")
        assert excinfo.value.code == 503
        assert json.load(excinfo.value)["status"] == "degraded"
    finally:
        endpoint.stop()
        runtime.stop()


# -- lifecycle ------------------------------------------------------------------


def test_stop_is_idempotent_and_context_manager_stops():
    with small_runtime() as runtime:
        runtime.submit_many(10)
        runtime.run_for(1.0)
    assert runtime.stopped
    runtime.stop()  # second stop is a no-op
    assert runtime.deployment.stopped


def test_result_packages_batch_analyses():
    runtime = small_runtime()
    runtime.submit_many(100)
    runtime.run_for(8.0)
    result = runtime.result()
    assert result.injected == 100
    assert result.committed == 100
    runtime.stop()


def test_healthz_excludes_draining_leaver_from_live_count():
    # Regression: a departing-but-not-yet-retired server used to count as
    # live, so /healthz could claim a quorum the write path no longer had.
    runtime = small_runtime()
    runtime.submit_many(50)
    runtime.run_for(1.0)
    assert runtime.healthz()["live_servers"] == 4
    runtime.apply(Leave(targets=Targets(nodes=("server-3",))))
    draining = next(s for s in runtime.deployment.servers
                    if s.name == "server-3")
    assert draining.draining and not draining.departed
    health = runtime.healthz()
    assert health["live_servers"] == 3
    assert health["status"] == "ok"  # 3 of quorum 2: still serving
    runtime.run_for(15.0)
    assert [s.name for s in runtime.deployment.departed_servers] == ["server-3"]
    final = runtime.healthz()
    assert final["live_servers"] == 3
    assert final["epoch"] == 2  # retirement sealed the membership change
    runtime.stop()


def test_rolling_restart_after_leave_keeps_health_consistent():
    # The departed_servers seam: a retired leaver must stay out of both the
    # restart rotation and the live count while survivors cycle.
    runtime = small_runtime()
    runtime.submit_many(100)
    runtime.run_for(2.0)
    runtime.apply(Leave(targets=Targets(nodes=("server-3",))))
    runtime.run_for(15.0)
    assert [s.name for s in runtime.deployment.departed_servers] == ["server-3"]
    runtime.rolling_restart(names=["server-0", "server-1"],
                            down_for=1.0, between=1.0)
    runtime.submit_many(100)
    runtime.run_for(10.0)
    snapshot = runtime.metrics_snapshot()
    assert snapshot["committed"] == 200
    health = runtime.healthz()
    assert health["status"] == "ok"
    assert health["live_servers"] == 3
    runtime.stop()


# -- sharded service ------------------------------------------------------------


def sharded_runtime(**kwargs):
    scenario = (Scenario.hashchain().servers(2).shards(2).rate(200)
                .collector(10).inject_for(5).drain(30).backend("ideal"))
    return ServiceRuntime(scenario, seed=5, **kwargs)


def test_sharded_ingress_routes_across_shards_and_commits():
    runtime = sharded_runtime()
    verdicts = runtime.submit_many(200)
    assert verdicts == {"accepted": 200, "deferred": 0, "rejected": 0}
    runtime.run_for(8.0)
    router = runtime.deployment.shard_router
    assert router.routed == 200
    assert all(count > 0 for count in router.per_shard_routed)
    snapshot = runtime.metrics_snapshot()
    assert snapshot["committed"] == 200
    assert runtime.session.check_properties() == []
    assert runtime.session.check_logical_properties() == []
    runtime.stop()


def test_sharded_healthz_reports_per_shard_liveness():
    runtime = sharded_runtime()
    health = runtime.healthz()
    assert health["status"] == "ok"
    assert set(health["shards"]) == {"0", "1"}
    assert all(entry["live"] == 2 for entry in health["shards"].values())
    # One whole shard down: the service is degraded even though the global
    # live count still clears the (per-shard) quorum.
    runtime.apply(Crash(targets=Targets(nodes=("server-2", "server-3"))))
    health = runtime.healthz()
    assert health["status"] == "degraded"
    assert health["shards"]["1"]["live"] == 0
    assert health["shards"]["0"]["live"] == 2
    runtime.stop()
