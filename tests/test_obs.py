"""The observability stack: telemetry registry, tracer, exporters, Prometheus.

Covers the ``repro.obs`` package end to end: the dependency-free metric
primitives, the deterministic lifecycle tracer (sampling policy, zero-cost
disabled path, phase stamping), the Chrome/JSONL exporters and their
validators, the Prometheus exposition renderer + parser pair, the HTTP
surfacing (``/metrics?format=prometheus``, health caching headers), the
byte-identity guarantees: untraced artifacts match the pre-observability
schema, and trace files are a pure function of ``(scenario, seed, sample)``
regardless of worker-process count; and the ``repro.obs profile`` tool.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.api import Scenario, Session, run
from repro.api.parallel import RunSpec, execute_spec, reset_run_counters, run_specs
from repro.api.results import RunResult
from repro.errors import ConfigurationError
from repro.obs.__main__ import _write_collapsed, main as obs_main
from repro.obs.export import (
    export_chrome,
    export_jsonl,
    validate_chrome_trace,
    validate_jsonl_trace,
    validate_trace_file,
    write_trace,
)
from repro.obs.prom import parse_exposition, render_snapshot
from repro.obs.registry import (
    Histogram,
    Registry,
    flush_size_summary,
    phase_percentiles,
)
from repro.obs.trace import PHASES, TRACK_COLLECTOR, TRACK_LEDGER, Tracer

GOLDEN_DIR = Path(__file__).parent / "golden"


def traced_scenario():
    return (Scenario.hashchain().servers(4).rate(200).collector(10)
            .inject_for(3).drain(30).backend("ideal").trace(1.0))


# -- registry primitives -------------------------------------------------------


def test_counter_gauge_histogram_snapshots_are_json_stable():
    registry = Registry()
    registry.counter("hits", help="cache hits").inc()
    registry.counter("hits").inc(4)
    registry.gauge("depth").set(12.5)
    histogram = registry.histogram("latency")
    histogram.observe(0.0125)
    histogram.observe(0.0125)
    snap = registry.snapshot()
    assert snap["hits"] == 5
    assert snap["depth"] == 12.5
    assert snap["latency"]["count"] == 2
    assert sum(snap["latency"]["buckets"].values()) == 2
    # Snapshots are plain JSON types with sorted keys.
    assert list(snap) == sorted(snap)
    json.dumps(snap)


def test_registry_rejects_kind_conflicts():
    registry = Registry()
    registry.counter("x")
    with pytest.raises(ConfigurationError, match="already registered"):
        registry.gauge("x")


def test_histogram_quantile_and_overflow_bucket():
    histogram = Histogram("h", bounds=(1.0, 2.0, 4.0))
    for value in (0.5, 1.5, 3.0, 100.0):
        histogram.observe(value)
    assert histogram.count == 4
    assert histogram.counts[-1] == 1  # 100.0 overflows to +Inf
    assert histogram.quantile(0.5) in (1.0, 2.0)
    with pytest.raises(ConfigurationError):
        histogram.quantile(1.5)
    with pytest.raises(ConfigurationError, match="sorted"):
        Histogram("bad", bounds=(2.0, 1.0))


def test_registry_prometheus_rendering_passes_the_validator():
    registry = Registry()
    registry.counter("flushes_total", help="Batch flushes.").inc(3)
    registry.histogram("flush_seconds").observe(0.25)
    metrics = parse_exposition(registry.render_prometheus())
    assert metrics["repro_flushes_total"]["type"] == "counter"
    assert metrics["repro_flush_seconds"]["type"] == "histogram"


def test_phase_percentiles_shape():
    stats = phase_percentiles(sorted([0.1, 0.2, 0.3, 0.4]))
    assert stats["count"] == 4
    assert stats["max"] == 0.4
    assert stats["p50"] <= stats["p95"] <= stats["p99"] <= stats["max"]


def test_phase_percentiles_empty_is_a_zeroed_row():
    # Regression: a zero-commit run (every server crashed before the first
    # epoch) produces empty latency lists; this used to index past the end.
    assert phase_percentiles([]) == {
        "count": 0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}


def test_flush_size_summary_empty_and_populated():
    assert flush_size_summary([]) is None

    class Flush:
        def __init__(self, n):
            self.n_items = n

    summary = flush_size_summary([Flush(10), Flush(30)])
    assert summary["count"] == 2
    assert summary["sum"] == 40
    assert summary["max"] == 30


# -- tracer --------------------------------------------------------------------


def test_tracer_stamps_each_phase_once_and_measures_from_injection():
    tracer = Tracer(sample=1.0, seed=1)
    tracer.injected_many([1, 2], t=0.0)
    tracer.phase_many([1, 2], "flushed", 0.5, "server-0")
    tracer.phase_many([1, 2], "flushed", 0.9, "server-1")  # re-observation
    tracer.phase_many([1], "committed", 1.5, "server-0")
    spans = tracer.spans()
    assert spans[1]["flushed"] == 0.5  # first observation wins
    assert tracer.phase_latencies["flushed"] == [0.5, 0.5]
    assert tracer.phase_latencies["committed"] == [1.5]
    summary = tracer.phase_summary()
    assert summary["flushed"]["count"] == 2
    assert "committed" in summary and "in_ledger" not in summary


def test_tracer_sampling_is_deterministic_and_bounded():
    first = Tracer(sample=0.5, seed=42)
    second = Tracer(sample=0.5, seed=42)
    ids = list(range(200))
    first.injected_many(ids, t=0.0)
    second.injected_many(ids, t=0.0)
    assert first.spans().keys() == second.spans().keys()
    assert 0 < first.sampled_elements < 200
    assert first.sampled_elements + first.skipped_elements == 200
    # Unsampled elements never accumulate phase state.
    first.phase_many(ids, "committed", 1.0, "server-0")
    assert len(first.phase_latencies["committed"]) == first.sampled_elements
    with pytest.raises(ConfigurationError):
        Tracer(sample=0.0)
    with pytest.raises(ConfigurationError):
        Tracer(sample=1.5)


def test_tracer_annotations_and_tracks():
    tracer = Tracer()
    tracer.injected_many([7], 0.0)
    tracer.phase_many([7], "in_ledger", 0.2, TRACK_LEDGER)
    tracer.annotate(0.3, "server-1", "fault:crash")
    assert tracer.tracks() == [TRACK_COLLECTOR, TRACK_LEDGER, "server-1"]
    assert (0.3, "server-1", "fault:crash", 0) in tracer.timeline()


# -- exporters and validators --------------------------------------------------


def driven_tracer() -> Tracer:
    tracer = Tracer(sample=1.0, seed=3)
    tracer.injected_many([1, 2, 3], t=0.0)
    tracer.phase_many([1, 2, 3], "flushed", 0.25, "server-0")
    tracer.phase_many([1, 2], "in_ledger", 0.5, TRACK_LEDGER)
    tracer.phase_many([1], "committed", 0.75, "server-0")
    tracer.annotate(0.8, "server-1", "membership:join")
    return tracer


def test_chrome_export_validates_and_names_every_track():
    text = export_chrome(driven_tracer(), label="unit")
    stats = validate_chrome_trace(text)
    assert stats["tracks"] == ["collector", "ledger", "server-0", "server-1"]
    assert stats["events"] == 5
    document = json.loads(text)
    assert document["displayTimeUnit"] == "ms"
    # All timestamps are integer microseconds (byte-stable in JSON).
    assert all(isinstance(e["ts"], int)
               for e in document["traceEvents"] if e["ph"] == "i")


def test_jsonl_export_validates_and_round_trips_spans():
    text = export_jsonl(driven_tracer(), label="unit")
    stats = validate_jsonl_trace(text)
    assert stats == {"events": 5, "spans": 3,
                     "tracks": ["collector", "ledger", "server-0", "server-1"]}
    span_lines = [json.loads(line) for line in text.splitlines()
                  if '"type":"span"' in line]
    by_id = {record["element_id"]: record["phases"] for record in span_lines}
    assert by_id[1] == {"injected": 0, "flushed": 250_000,
                        "in_ledger": 500_000, "committed": 750_000}


def test_exports_are_byte_deterministic():
    assert export_chrome(driven_tracer()) == export_chrome(driven_tracer())
    assert export_jsonl(driven_tracer()) == export_jsonl(driven_tracer())


def test_write_trace_sniffs_format_and_rejects_unknown(tmp_path):
    chrome = write_trace(driven_tracer(), tmp_path / "t.trace.json")
    jsonl = write_trace(driven_tracer(), tmp_path / "t.trace.jsonl",
                        fmt="jsonl")
    assert validate_trace_file(chrome)["format"] == "chrome"
    assert validate_trace_file(jsonl)["format"] == "jsonl"
    with pytest.raises(ConfigurationError, match="unknown trace format"):
        write_trace(driven_tracer(), tmp_path / "t.bin", fmt="protobuf")


def test_validators_reject_structural_violations():
    with pytest.raises(ConfigurationError, match="unnamed track"):
        validate_chrome_trace(json.dumps(
            {"traceEvents": [{"name": "x", "ph": "i", "pid": 0,
                              "tid": 9, "ts": 1}]}))
    with pytest.raises(ConfigurationError, match="ts must be"):
        validate_chrome_trace(json.dumps(
            {"traceEvents": [{"args": {"name": "t"}, "name": "thread_name",
                              "ph": "M", "pid": 0, "tid": 0},
                             {"name": "x", "ph": "i", "pid": 0, "tid": 0,
                              "ts": 0.5}]}))
    with pytest.raises(ConfigurationError, match="header"):
        validate_jsonl_trace('{"type":"event"}\n')


# -- traced runs ---------------------------------------------------------------


def test_traced_run_carries_telemetry_and_matches_untraced_outputs():
    reset_run_counters()
    plain = Session(traced_scenario().build().with_overrides(trace_sample=None),
                    seed=11).start().run()
    untraced = plain.result()
    reset_run_counters()
    traced = run(traced_scenario(), seed=11)
    # Tracing never touches sim.rng: the simulation outputs are identical,
    # and so is the schedule, event for event.
    assert traced.committed == untraced.committed
    assert traced.commit_fractions == untraced.commit_fractions
    telemetry = traced.telemetry
    assert telemetry is not None
    assert telemetry["sample"] == 1.0
    assert telemetry["sampled_elements"] == traced.injected
    phases = telemetry["phases"]
    assert set(phases) <= set(PHASES[1:])
    assert phases["committed"]["count"] == traced.committed
    counters = telemetry["counters"]
    assert counters["verify_cache_hits"] + counters["verify_cache_misses"] > 0
    assert counters["events_executed"] == plain.deployment.sim.events_executed > 0
    # The untraced artifact stays on the pre-observability schema.
    assert untraced.telemetry is None
    assert "telemetry" not in untraced.to_dict()
    assert "trace_sample" not in untraced.to_dict()["config"]


def test_traced_result_round_trips_through_json():
    reset_run_counters()
    result = run(traced_scenario(), seed=11)
    data = result.to_dict()
    assert data["config"]["trace_sample"] == 1.0
    restored = RunResult.from_dict(json.loads(result.to_json()))
    assert restored.telemetry == result.telemetry
    assert restored.experiment_config().trace_sample == 1.0


def test_builder_trace_round_trips_and_validates():
    config = traced_scenario().build()
    assert config.trace_sample == 1.0
    from repro.api.builder import ScenarioBuilder
    assert ScenarioBuilder.from_config(config).build().trace_sample == 1.0
    with pytest.raises(ConfigurationError):
        Scenario.hashchain().trace(0.0)
    with pytest.raises(ConfigurationError):
        Scenario.hashchain().trace(2.0)


def test_goldens_stay_byte_identical_after_a_traced_run_in_process():
    """Counter-reset hygiene: a traced run must not poison later goldens."""
    reset_run_counters()
    run(traced_scenario(), seed=11)
    reset_run_counters()
    result = run("smoke", seed=7)
    golden = (GOLDEN_DIR / "smoke.json").read_text()
    assert result.to_json() + "\n" == golden


@pytest.mark.parametrize("fmt,suffix", [("chrome", ".trace.json"),
                                        ("jsonl", ".trace.jsonl")])
def test_trace_files_are_byte_identical_across_worker_counts(
        tmp_path, fmt, suffix):
    def spec(tag: str, name: str) -> RunSpec:
        return RunSpec(name=name, seed=7, trace_sample=1.0, trace_format=fmt,
                       trace_out=str(tmp_path / f"{tag}-{name.replace('/', '_')}{suffix}"))

    scenarios = ["smoke", "bench/vanilla"]
    run_specs([spec("serial", name) for name in scenarios], jobs=1)
    run_specs([spec("pool", name) for name in scenarios], jobs=4)
    for name in scenarios:
        safe = name.replace("/", "_")
        serial = (tmp_path / f"serial-{safe}{suffix}").read_bytes()
        pooled = (tmp_path / f"pool-{safe}{suffix}").read_bytes()
        assert serial == pooled
        assert validate_trace_file(tmp_path / f"pool-{safe}{suffix}")[
            "format"] == fmt


def test_execute_spec_traced_result_matches_untraced_simulation():
    traced = execute_spec(RunSpec(name="smoke", seed=7, trace_sample=1.0))
    untraced = execute_spec(RunSpec(name="smoke", seed=7))
    assert traced.committed == untraced.committed
    assert traced.telemetry is not None and untraced.telemetry is None


# -- commit latency memoisation (PR 8 seam) ------------------------------------


def test_commit_latencies_memoised_until_next_commit():
    from repro.analysis.metrics import MetricsCollector
    from repro.workload.elements import make_element

    metrics = MetricsCollector()
    elements = [make_element(f"client-{i}", 100) for i in range(3)]
    for element in elements:
        metrics.record_injected_many([element], time=0.0)
    metrics.record_epoch_committed(1, elements[:2], time=1.0,
                                   observer="server-0")
    first = metrics.commit_latencies()
    assert first == [1.0, 1.0]
    assert metrics.commit_latencies() is first  # cache hit: same object
    metrics.record_epoch_committed(2, elements[2:], time=2.0,
                                   observer="server-0")
    second = metrics.commit_latencies()
    assert second is not first
    assert second == [1.0, 1.0, 2.0]


# -- prometheus exposition -----------------------------------------------------


def test_render_snapshot_passes_exposition_validation():
    runtime_snapshot = {
        "label": "unit", "algorithm": "hashchain", "now": 3.25, "ticks": 5,
        "injected": 100, "committed": 90, "committed_this_run": 90,
        "recovered_commits": 0, "committed_fraction": 0.9,
        "first_commit": 0.5, "rolling_throughput": 42.0,
        "ingress": {"accepted": 100, "deferred": 0, "rejected": 0,
                    "drained": 100, "server_rejected": 0,
                    "queue_depth": 0, "queue_limit": 10_000},
        "servers": {"server-0": {"crashed": False, "byzantine": False,
                                 "backlog": 2, "epoch": 7}},
        "ledger": {"height": 12, "pending": 1},
        "recovered_blocks": 0,
        "membership": {"epoch": 1, "size": 4, "quorum": 3},
    }
    tracer = driven_tracer()
    text = render_snapshot(runtime_snapshot,
                           healthz={"status": "ok", "live_servers": 4,
                                    "quorum": 3},
                           tracer=tracer)
    metrics = parse_exposition(text)
    assert metrics["repro_injected_total"]["samples"] == [({}, 100.0)]
    verdicts = {labels["verdict"]: value for labels, value
                in metrics["repro_ingress_total"]["samples"]}
    assert verdicts["accepted"] == 100.0
    assert metrics["repro_server_backlog"]["samples"] == [
        ({"server": "server-0"}, 2.0)]
    assert metrics["repro_healthy"]["samples"] == [({}, 1.0)]
    summary = metrics["repro_phase_latency_seconds"]
    assert summary["type"] == "summary"
    assert any(labels.get("quantile") == "0.99"
               for labels, _ in summary["samples"])


def test_parse_exposition_rejects_malformed_text():
    with pytest.raises(ConfigurationError, match="without a # TYPE"):
        parse_exposition("repro_x 1\n")
    with pytest.raises(ConfigurationError, match="invalid metric type"):
        parse_exposition("# TYPE repro_x widget\nrepro_x 1\n")
    with pytest.raises(ConfigurationError, match="non-numeric"):
        parse_exposition("# TYPE repro_x gauge\nrepro_x banana\n")
    with pytest.raises(ConfigurationError, match="newline"):
        parse_exposition("# TYPE repro_x gauge\nrepro_x 1")
    with pytest.raises(ConfigurationError, match=r"\+Inf"):
        parse_exposition("# TYPE repro_h histogram\n"
                         'repro_h_bucket{le="1.0"} 1\n'
                         "repro_h_sum 0.5\nrepro_h_count 1\n")


# -- http surfacing ------------------------------------------------------------


def test_http_prometheus_format_and_health_caching_headers():
    from repro.service.http import MetricsEndpoint
    from repro.service.runtime import ServiceRuntime

    scenario = (Scenario.hashchain().servers(4).rate(100).collector(10)
                .inject_for(5).drain(30).backend("ideal").trace(1.0))
    runtime = ServiceRuntime(scenario, seed=5)
    runtime.submit_many(50)
    runtime.run_for(4.0)
    endpoint = MetricsEndpoint(runtime)
    try:
        with urllib.request.urlopen(
                endpoint.url + "/metrics?format=prometheus") as response:
            assert response.headers["Content-Type"].startswith(
                "text/plain; version=0.0.4")
            text = response.read().decode()
        metrics = parse_exposition(text)
        assert metrics["repro_injected_total"]["samples"] == [({}, 50.0)]
        assert "repro_phase_latency_seconds" in metrics
        # JSON stays the default scrape format.
        with urllib.request.urlopen(endpoint.url + "/metrics") as response:
            assert response.headers["Content-Type"] == "application/json"
            assert json.loads(response.read())["injected"] == 50
        with urllib.request.urlopen(endpoint.url + "/healthz") as response:
            assert response.headers["Cache-Control"] == "no-store"
            assert response.headers["Retry-After"] is None
        for server in list(runtime.deployment.servers):
            runtime.deployment.crash_node(server.name)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(endpoint.url + "/healthz")
        assert excinfo.value.code == 503
        assert excinfo.value.headers["Cache-Control"] == "no-store"
        assert excinfo.value.headers["Retry-After"] == "1"
    finally:
        endpoint.stop()
        runtime.stop()


# -- python -m repro.obs profile -----------------------------------------------


def test_write_collapsed_emits_flamegraph_lines(tmp_path):
    def leaf():
        return sum(range(2000))

    def root():
        return [leaf() for _ in range(50)]

    profiler = cProfile.Profile()
    profiler.enable()
    root()
    profiler.disable()
    target = _write_collapsed(pstats.Stats(profiler),
                              str(tmp_path / "stacks.txt"))
    lines = target.read_text().splitlines()
    assert lines == sorted(lines)
    for line in lines:
        stack, _, value = line.rpartition(" ")
        assert int(value) > 0
        assert 1 <= len(stack.split(";")) <= 2
        assert " " not in stack
    assert any("leaf" in line for line in lines)


def test_profile_smoke(tmp_path, capsys):
    out = tmp_path / "profile.pstats"
    code = obs_main(["profile", "bench/hashchain-base", "--seed", "2",
                     "--sort", "cumulative", "--limit", "3",
                     "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "committed=" in captured
    assert "Ordered by: cumulative time" in captured
    assert out.exists() and out.stat().st_size > 0


def test_profile_rejects_unknown_sort_key():
    code = obs_main(["profile", "bench/hashchain-ed25519", "--sort", "bogus"])
    assert code == 1
