"""The observability stack: tracer, exporters, Prometheus.

Covers the ``repro.obs`` package end to end: the telemetry summaries, the
deterministic lifecycle tracer (sampling policy, zero-cost disabled path,
spans read off the metrics' element records), the Chrome/JSONL exporters and their
validators, the Prometheus exposition renderer + parser pair, the HTTP
surfacing (``/metrics?format=prometheus``, health caching headers), the
byte-identity guarantees: untraced artifacts match the pre-observability
schema, and trace files are a pure function of ``(scenario, seed, sample)``
regardless of worker-process count; and the ``repro profile`` tool.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.analysis.metrics import MetricsCollector
from repro.api import Scenario, Session, run
from repro.api.cli import _write_collapsed, main as cli_main
from repro.api.parallel import RunSpec, execute_spec, iter_spec_results, reset_run_counters
from repro.api.results import RunResult
from repro.errors import ConfigurationError
from repro.faults import Crash, Targets
from repro.obs.export import (
    export_chrome,
    export_jsonl,
    validate_chrome_trace,
    validate_jsonl_trace,
    validate_trace_file,
    write_trace,
)
from repro.obs.prom import parse_exposition, render_snapshot
from repro.obs.trace import (
    PHASES,
    TRACK_COLLECTOR,
    TRACK_LEDGER,
    Tracer,
    flush_size_summary,
    phase_percentiles,
    span_of,
)
from repro.workload.elements import make_element

GOLDEN_DIR = Path(__file__).parent / "golden"


def traced_scenario():
    return (Scenario.hashchain().servers(4).rate(200).collector(10)
            .inject_for(3).drain(30).backend("ideal").trace(1.0))


def traced_metrics(sample: float = 1.0, seed: int = 1):
    """A bare collector with a tracer over its records, as a traced
    deployment wires them."""
    metrics = MetricsCollector()
    metrics.tracer = Tracer(metrics, sample=sample, seed=seed)
    return metrics, metrics.tracer


def fresh_elements(count: int) -> list:
    return [make_element("c", 100) for _ in range(count)]


# -- telemetry summaries -------------------------------------------------------


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
    assert summary == {"buckets": {"16.0": 1, "32.0": 1}, "sum": 40,
                       "count": 2, "max": 30}


# -- tracer --------------------------------------------------------------------


def test_tracer_stamps_each_phase_once_and_measures_from_injection():
    metrics, tracer = traced_metrics()
    first, second = fresh_elements(2)
    ids = [first.element_id, second.element_id]
    metrics.record_injected_many([first, second], 0.0)
    metrics.record_batch_flush("server-0", 2, 10, 0.5, ids)
    metrics.record_batch_flush("server-1", 2, 10, 0.9, ids)  # re-observation
    metrics.record_epoch_committed(1, [first], 1.5, observer="server-0")
    # A row for an element this run never injected (a replayed prefix) is
    # in the table, not in the sample.
    metrics.record_in_ledger_many([10 ** 9], 0.7)
    assert tracer.sampled_elements == 2
    spans = tracer.spans()
    assert sorted(spans) == sorted(ids)
    assert spans[first.element_id]["flushed"] == 0.5  # first observation wins
    assert tracer.phase_latencies["flushed"] == [0.5, 0.5]
    assert tracer.phase_latencies["committed"] == [1.5]
    summary = tracer.phase_summary()
    assert summary["flushed"]["count"] == 2
    assert "committed" in summary and "in_ledger" not in summary


def test_tracer_sampling_is_deterministic_and_bounded():
    first_metrics, first = traced_metrics(sample=0.5, seed=42)
    second_metrics, second = traced_metrics(sample=0.5, seed=42)
    elements = fresh_elements(200)
    first_metrics.record_injected_many(elements, 0.0)
    second_metrics.record_injected_many(elements, 0.0)
    assert first.spans().keys() == second.spans().keys()
    assert 0 < first.sampled_elements < 200
    assert first.sampled_elements + first.skipped_elements == 200
    # Re-injecting draws again for the skipped elements only.
    drawn = set(first.spans())
    skipped = first.skipped_elements
    first_metrics.record_injected_many(elements, 0.5)
    assert drawn <= set(first.spans())
    assert first.sampled_elements + first.skipped_elements == 200 + skipped
    # Every element is stamped in the table; only the sampled are spans.
    first_metrics.record_epoch_committed(1, elements, 1.0, observer="server-0")
    assert first_metrics.committed_count == 200
    assert len(first.phase_latencies["committed"]) == first.sampled_elements
    with pytest.raises(ConfigurationError):
        Tracer(MetricsCollector(), sample=0.0)
    with pytest.raises(ConfigurationError):
        Tracer(MetricsCollector(), sample=1.5)


def test_tracer_annotations_and_tracks():
    metrics, tracer = traced_metrics()
    element = make_element("c", 100)
    metrics.record_injected_many([element], 0.0)
    metrics.record_in_ledger_many([element.element_id], 0.2)
    tracer.annotate(0.3, "server-1", "fault:crash")
    assert tracer.tracks() == [TRACK_COLLECTOR, TRACK_LEDGER, "server-1"]
    assert (0.3, "server-1", "fault:crash", 0) in tracer.timeline()


def test_flushed_and_signed_are_stamped_on_traced_runs_only():
    untraced = MetricsCollector()
    metrics, _ = traced_metrics()
    elements = fresh_elements(2)
    ids = [element.element_id for element in elements]
    for collector in (untraced, metrics):
        collector.record_injected_many(elements, 0.0)
        collector.record_batch_flush("server-0", 3, 10, 0.5, ids + [10 ** 9],
                                     signed=True)
    assert all(record.flushed_at is record.signed_at is None
               for record in untraced.elements.values())
    assert all(record.flushed_at == record.signed_at == 0.5
               for record in metrics.elements.values())
    # An id with no record (a Byzantine server's own garbage) gets none.
    assert 10 ** 9 not in metrics.elements


# -- exporters and validators --------------------------------------------------


def driven_tracer() -> Tracer:
    reset_run_counters()  # element ids appear in the JSONL spans
    metrics, tracer = traced_metrics(seed=3)
    elements = fresh_elements(3)
    ids = [element.element_id for element in elements]
    metrics.record_injected_many(elements, 0.0)
    metrics.record_batch_flush("server-0", 3, 30, 0.25, ids)
    metrics.record_in_ledger_many(ids[:2], 0.5)
    metrics.record_epoch_committed(1, elements[:1], 0.75, observer="server-0")
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
    assert by_id[min(by_id)] == {"injected": 0, "flushed": 250_000,
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


@pytest.mark.parametrize("sample", [1.0, 0.25])
def test_spans_are_rows_of_the_metrics_lifecycle_table(sample):
    session = Session(traced_scenario().trace(sample), seed=11).start().run()
    tracer, metrics = session.deployment.tracer, session.deployment.metrics
    spans = tracer.spans()
    assert len(spans) == tracer.sampled_elements > 0
    assert all(span == span_of(metrics.elements[element_id])
               for element_id, span in spans.items())
    # A committed Hashchain element has passed through every phase.
    assert all(len(span) == len(PHASES)
               for span in spans.values() if "committed" in span)


def _phase_counts(tracer: Tracer) -> dict[str, int]:
    return {phase: stats["count"]
            for phase, stats in tracer.phase_summary().items()}


def test_traced_service_runs_keep_every_phase():
    """The ingress drain adds a burst before it records the injection, and a
    collector of 10 flushes (and signs) inside that add: those phases are
    observed before the injection, and still belong to the element."""
    from repro.service.runtime import ServiceRuntime

    with ServiceRuntime(traced_scenario().inject_for(1), seed=5) as runtime:
        runtime.submit_many(200)
        runtime.run_for(6.0)
        tracer = runtime.deployment.tracer
        assert runtime.deployment.metrics.committed_count == 200
        assert _phase_counts(tracer) == dict.fromkeys(PHASES[1:], 200)


def test_a_hand_injected_element_keeps_its_collector_phase():
    session = Session(Scenario.vanilla().servers(4).rate(10).inject_for(1)
                      .backend("ideal").trace(1.0), seed=3).start()
    element = session.inject(server=1)
    session.run()
    span = session.deployment.tracer.spans()[element.element_id]
    assert span["collector_queued"] == span["injected"]
    assert span["committed"] > span["in_ledger"] >= span["injected"]


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
    for tag, jobs in (("serial", 1), ("pool", 4)):
        list(iter_spec_results([spec(tag, name) for name in scenarios], jobs))
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
                           latencies=tracer.phase_latencies)
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
    assert {labels["phase"] for labels, _ in summary["samples"]} == {
        "flushed", "in_ledger", "committed"}


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
        runtime.apply(Crash(targets=Targets(role="servers")))
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(endpoint.url + "/healthz")
        assert excinfo.value.code == 503
        assert excinfo.value.headers["Cache-Control"] == "no-store"
        assert excinfo.value.headers["Retry-After"] == "1"
    finally:
        endpoint.stop()
        runtime.stop()


def test_prometheus_scrapes_while_the_service_ticks():
    """The phase latencies are read off the element records the tick thread
    stamps; a scrape copies them under the runtime lock, so scraping in a
    loop beside the ticks never sees a table mid-update."""
    from repro.service.http import MetricsEndpoint
    from repro.service.runtime import ServiceRuntime

    runtime = ServiceRuntime(traced_scenario(), seed=5)
    endpoint = MetricsEndpoint(runtime)
    url = endpoint.url + "/metrics?format=prometheus"
    failures: list[Exception] = []
    scrapes = [0]
    done = threading.Event()

    def scrape() -> None:
        while not done.is_set():
            try:
                with urllib.request.urlopen(url, timeout=10) as response:
                    parse_exposition(response.read().decode())
            except (OSError, ConfigurationError) as error:
                failures.append(error)
                return
            scrapes[0] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    scraper = threading.Thread(target=scrape)
    scraper.start()
    try:
        for _ in range(100):
            runtime.submit_many(25)
            runtime.tick()
    finally:
        done.set()
        scraper.join(timeout=30)
        sys.setswitchinterval(interval)
        endpoint.stop()
        runtime.stop()
    assert not scraper.is_alive()
    assert failures == [] and scrapes[0] > 0


# -- repro profile -------------------------------------------------------------


def test_write_collapsed_emits_flamegraph_lines(tmp_path):
    def leaf():
        return sum(range(2000))

    def root():
        return [leaf() for _ in range(50)]

    # cProfile, and pstats.Stats (which disables it again), drop an outer
    # profiler's hook: restore it once both are done.
    outer = sys.getprofile()
    profiler = cProfile.Profile()
    profiler.enable()
    root()
    profiler.disable()
    stats = pstats.Stats(profiler)
    sys.setprofile(outer)
    target = _write_collapsed(stats, str(tmp_path / "stacks.txt"))
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
    code = cli_main(["profile", "bench/hashchain-base", "--seed", "2",
                     "--sort", "cumulative", "--limit", "3", "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "committed=" in captured
    assert "Ordered by: cumulative time" in captured
    assert out.exists() and out.stat().st_size > 0


def test_profile_rejects_unknown_sort_key():
    code = cli_main(["profile", "bench/vanilla", "--sort", "bogus"])
    assert code == 1


def test_profile_restores_the_callers_profile_hook(capsys):
    # An outer profiler (coverage, the reach audit) must keep its hook.
    def hook(frame, event, arg):
        pass

    outer = sys.getprofile()
    sys.setprofile(hook)
    try:
        assert cli_main(["profile", "smoke", "--limit", "1"]) == 0
        assert sys.getprofile() is hook
    finally:
        sys.setprofile(outer)
