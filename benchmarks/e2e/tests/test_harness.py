"""Unit tests of the benchmark harness (not part of the tier-1 suite).

Run with ``python3 benchmarks/e2e/run.py --test`` or
``pytest benchmarks/e2e/tests``.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
sys.path[:0] = [str(E2E), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
from stats import censored_latencies, percentile, valid_name  # noqa: E402

DECLARATION = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- span arithmetic --------------------------------------------------------------


def ticking_recorder() -> spans.SpanRecorder:
    """A recorder whose clock advances one second per reading."""
    return spans.SpanRecorder(clock=itertools.count().__next__)


def test_self_time_with_nested_and_sibling_spans():
    recorder = ticking_recorder()
    leaf = recorder.wrap(lambda: None, "crypto", "leaf")

    def middle():
        leaf()
        leaf()

    core = recorder.wrap(middle, "core", "middle")
    net = recorder.wrap(lambda: None, "net", "sibling")

    def root():
        core()
        net()

    recorder.run(root)
    # Clock readings, in order: root 0, middle 1, leaf 2-3, leaf 4-5,
    # middle ends 6, sibling 7-8, root ends 9.
    names = [span[spans.NAME] for span in recorder.spans]
    assert names == ["pass", "middle", "leaf", "leaf", "sibling"]
    assert [span[spans.PARENT] for span in recorder.spans] == [-1, 0, 1, 1, 0]
    assert spans.self_times(recorder.spans) == [3, 3, 1, 1, 1]
    totals = spans.layer_totals(recorder.spans)
    assert totals == {spans.OTHER: (3, 1), "core": (3, 1), "crypto": (2, 2),
                      "net": (1, 1)}
    # Self times of all layers sum to the root span: nothing counted twice.
    assert sum(seconds for seconds, _ in totals.values()) == 9
    assert spans.durations(recorder.spans, "leaf") == [1, 1]


def test_same_layer_call_is_not_a_crossing_unless_always():
    recorder = ticking_recorder()
    inner = recorder.wrap(lambda: "x", "core", "inner")
    pinned = recorder.wrap(lambda: "y", "core", "pinned", always=True)
    outer = recorder.wrap(lambda: (inner(), pinned()), "core", "outer")
    assert recorder.run(outer) == ("x", "y")
    assert [s[spans.NAME] for s in recorder.spans] == ["pass", "outer", "pinned"]
    # The nested same-layer span moves time inside the layer, not out of it.
    assert spans.layer_totals(recorder.spans)["core"][0] == 3


def test_span_survives_an_exception_and_counts_operations():
    recorder = ticking_recorder()

    def boom(items):
        raise ValueError("no")

    wrapped = recorder.wrap(boom, "crypto", "sign_many", ops=len)
    with pytest.raises(ValueError):
        recorder.run(lambda: wrapped([1, 2, 3]))
    assert recorder.ops == {"sign_many": 3}
    assert all(span[spans.END] > span[spans.START] for span in recorder.spans)
    # The stack unwound: a new root span has no parent.
    recorder.run(lambda: None)
    assert recorder.spans[-1][spans.PARENT] == -1


def test_callbacks_are_charged_to_the_layer_that_defines_them():
    from repro.core.collector import Collector
    from repro.sim.scheduler import Simulator
    sim = Simulator(seed=1)
    collector = Collector(sim, limit=10, timeout=1.0, on_flush=lambda batch: None)
    # The collector's timer hands the simulator ``Timer._fire`` (sim layer);
    # the work is the collector's.
    assert spans.callback_layer(collector._timer._fire)[0] == "core"
    assert spans.callback_layer(sim.run_until)[0] == "sim"
    assert spans.callback_layer(lambda: None)[0] == spans.OTHER


def test_install_wraps_the_seams_and_uninstall_restores_them():
    from repro.crypto import hashing
    from repro.core import hashchain
    from repro.sim.scheduler import Simulator
    before = (Simulator.call_in, hashing.hash_batch, hashchain.hash_batch)
    recorder = spans.SpanRecorder()
    uninstall = spans.install(recorder)
    try:
        assert hashchain.hash_batch is hashing.hash_batch is not before[1]
        sim = Simulator(seed=1)
        fired = []
        sim.call_in(1.0, lambda: fired.append(hashchain.hash_batch([b"a"])))
        recorder.run(lambda: sim.run_until(2.0))
    finally:
        uninstall()
    assert fired and (Simulator.call_in, hashing.hash_batch,
                      hashchain.hash_batch) == before
    layers = [span[spans.LAYER] for span in recorder.spans]
    assert layers == [spans.OTHER, "sim", spans.OTHER, "crypto"]


def test_chrome_trace_file(tmp_path):
    recorder = ticking_recorder()
    recorder.run(recorder.wrap(lambda: None, "core", "work"))
    target = tmp_path / "t.json"
    spans.write_chrome_trace(recorder.spans, target, "label")
    events = json.loads(target.read_text())["traceEvents"]
    assert [e["ph"] for e in events] == ["M", "X", "X"]
    assert events[2]["cat"] == "core" and events[2]["args"]["parent"] == 0
    assert events[2]["ts"] == 1e6 and events[2]["dur"] == 1e6


# -- statistics ---------------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.99) == 99
    assert percentile(values, 1.0) == 100
    assert percentile([7.0], 0.99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_censored_latency_definition():
    # Three admitted (one never committed), one refused at ingress.
    sample = censored_latencies(injected_at=[1.0, 2.0, 3.0],
                                committed_at=[4.0, None, 5.0],
                                end_of_run=10.0, offered=4)
    # committed: 3 s and 2 s; uncommitted: censored at 10 - 2 = 8 s;
    # never admitted: the whole run, 10 s.
    assert sample == [2.0, 3.0, 8.0, 10.0]
    assert percentile(sample, 0.5) == 3.0
    assert percentile(sample, 0.99) == 10.0
    with pytest.raises(ValueError):
        censored_latencies([1.0], [None], 10.0, offered=0)


def test_metric_name_pattern():
    for good in ("setup_s", "host.pass_wall_min_s", "bulk-hashchain", "9lives",
                 "a" * 64):
        assert valid_name(good), good
    for bad in ("", "_leading", ".dot", "with space", "slash/name", "a" * 65,
                "ünï"):
        assert not valid_name(bad), bad


def test_pass_count_depends_on_seconds_only():
    assert run.passes_for(12, 12) == run.NOMINAL_PASSES
    assert run.passes_for(1, 12) == run.MIN_PASSES
    assert run.passes_for(24, 12) == 2 * run.NOMINAL_PASSES


# -- the declaration ------------------------------------------------------------------


def test_declaration_is_within_the_contract():
    assert set(DECLARATION) == {"command", "paths", "run_seconds", "workloads",
                                "end_to_end", "per_layer"}
    assert DECLARATION["paths"] == ["benchmarks/e2e"]
    names = ([w["name"] for w in DECLARATION["workloads"]]
             + [m["name"] for m in DECLARATION["end_to_end"]]
             + [m["name"] for m in DECLARATION["per_layer"]])
    assert len(names) == len(set(names))
    assert all(valid_name(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in DECLARATION["workloads"])
    bounds = {m["name"]: m["bound"] for m in DECLARATION["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= len(DECLARATION["per_layer"]) <= 128


def test_workloads_are_the_declared_ones():
    import workloads
    assert list(workloads.WORKLOADS) == [w["name"]
                                         for w in DECLARATION["workloads"]]


def test_printed_names_are_exactly_the_declared_names(capsys):
    """Two-way: nothing declared goes unprinted, nothing printed is undeclared
    (a short traced run of the cheapest workload yields every name)."""
    report = run.run_workload("bulk-hashchain", 7, 2, True, DECLARATION)
    assert report["result"]["correct"], report["failed_checks"]
    assert set(report["per_layer"]) == {m["name"]
                                        for m in DECLARATION["per_layer"]}
    assert set(report["end_to_end"]) == {m["name"]
                                         for m in DECLARATION["end_to_end"]}
    assert set(report["result"]["metrics"]) == set(report["per_layer"])
    run.print_report("bulk-hashchain", report, DECLARATION)
    printed = capsys.readouterr().out
    last = json.loads(printed.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    for name in report["per_layer"]:
        assert f"  {name} " in printed


def test_a_broken_check_makes_the_command_exit_non_zero(capsys):
    status = run.main(["--workload", "bulk-hashchain", "--seconds", "1",
                       "--expect-committed", "1"])
    assert status == 1
    assert "expected_committed" in capsys.readouterr().out
