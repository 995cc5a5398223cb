"""The measuring child: one fresh interpreter per set-up sample or workload.

``child.py setup <workload> <seed>`` times one cold set-up and prints it.
``child.py measure <workload> <seed> <passes> <trace> [expect]`` runs the
warm-up and the timed passes, the untimed output checks, and (``trace`` 1)
the traced pass and the call-count pass; it prints one JSON object.

The parent (``run.py``) starts this file with ``PYTHONHASHSEED=0`` so that
set iteration orders, and with them every count, repeat exactly.
"""

import sys
import time

T0 = time.perf_counter()  # the first harness line: set-up is timed from here

import cProfile
import gc
import json
import os
import platform
import resource
import shutil
import statistics
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

clock = time.perf_counter

#: Layers whose span count is reported as ``<layer>.calls``.
LAYERS_WITH_CALLS = ("workload", "crypto", "core", "ledger", "net", "shard",
                     "analysis")


def rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibrate() -> float:
    """Best of five runs of a fixed pure-Python loop: how fast this host is
    right now.  Recorded beside the results, never used to scale them."""
    best = float("inf")
    for _ in range(5):
        start = clock()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        best = min(best, clock() - start)
    return best


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.lower().startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def quiet_pass(run: Callable[[], Any]) -> tuple[float, Any]:
    """One pass under the noise protocol of ``repro.bench.run_case``: fresh id
    counters, a full collection before, no cyclic collection during."""
    from repro.api.parallel import reset_run_counters
    reset_run_counters()
    gc.collect()
    gc.disable()
    try:
        start = clock()
        outcome = run()
        return clock() - start, outcome
    finally:
        gc.enable()


def setup(workload: Any, seed: int, scratch: Path, imported_at: float) -> dict:
    system = workload.ready(workload.build(seed), scratch)
    ready_at = clock()
    system.stop()
    return {"setup_s": ready_at - T0, "import_s": imported_at - T0,
            "build_s": ready_at - imported_at}


def measure(workload: Any, seed: int, passes: int, trace: bool,
            expect_committed: int | None, scratch: Path) -> dict:
    import spans
    import workloads as w
    from stats import percentile

    config = workload.build(seed)

    def run() -> Any:
        return workload.run_pass(config, scratch)

    walls: list[float] = []
    digests = set()
    outcome = None
    rss_first = 0.0
    for index in range(passes + 1):  # pass 0 is the untimed warm-up
        outcome = None  # release the previous pass before collecting
        wall, outcome = quiet_pass(run)
        committed, digest = w.committed_digest(outcome.deployment)
        digests.add((committed, digest))
        if index == 0:
            rss_first = rss_mb()
        else:
            walls.append(wall)
    peak_rss = rss_mb()  # before the checks, which snapshot every view

    simulated = w.simulated_metrics(outcome)
    quartiles = statistics.quantiles(walls, n=4)
    calib_s = calibrate()
    report: dict[str, Any] = {
        "conditions": {
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
            "seed": seed, "timed_passes": passes,
            "network_delay_s": config.ledger.network_delay,
            "calib_s": calib_s,
        },
        "offered": outcome.offered, "committed": committed,
        "refused": w.refused(outcome), "digest": digest,
        "latency_samples": simulated.pop("latency_samples"),
        "pass_walls_s": walls,
        "end_to_end": {
            "wall_el_per_s": committed / min(walls),
            "peak_rss_mb": peak_rss,
            **simulated,
        },
        "host": {
            "host.pass_wall_min_s": min(walls),
            "host.pass_wall_median_s": statistics.median(walls),
            "host.pass_wall_iqr_s": quartiles[2] - quartiles[0],
            "host.rss_after_first_pass_mb": rss_first,
            "host.rss_growth_mb_per_pass": (peak_rss - rss_first) / passes,
            "host.calib_s": calib_s,
        },
    }

    checks = {"passes_identical": len(digests) == 1,
              "properties": w.check_properties(workload, outcome)}
    if outcome.db_path is not None:
        checks["durable"] = w.check_durable(config, outcome)
    if expect_committed is not None:
        checks["expected_committed"] = committed == expect_committed
    report["checks"] = checks

    if trace:
        fastest = outcome  # tick/scrape times come from an untraced pass
        outcome = None
        recorder = spans.SpanRecorder()
        uninstall = spans.install(recorder)
        try:
            _, outcome = quiet_pass(lambda: recorder.run(run))
        finally:
            uninstall()
        root = recorder.spans[0]
        traced_wall = root[spans.END] - root[spans.START]
        totals = spans.layer_totals(recorder.spans)
        layers: dict[str, float] = {}
        for layer in spans.METHOD_SEAMS:
            seconds, count = totals.get(layer, (0.0, 0))
            layers[f"{layer}.self_s"] = seconds
            if layer in LAYERS_WITH_CALLS:
                layers[f"{layer}.calls"] = count
        layers.update(w.layer_counters(outcome))
        layers["crypto.sign_ops"] = sum(recorder.ops.values())
        layers.update(w.database_facts(outcome.db_path))
        ticks = sorted(fastest.tick_s) or [0.0]
        scrapes = sorted(fastest.scrape_s) or [0.0]
        checkpoints = spans.durations(
            recorder.spans, "ServiceRuntime.checkpoint") or [0.0]
        layers.update({
            "service.tick_ms_p50": percentile(ticks, 0.5) * 1e3,
            "service.tick_ms_p99": percentile(ticks, 0.99) * 1e3,
            "service.scrape_ms_p50": percentile(scrapes, 0.5) * 1e3,
            "service.checkpoint_ms_first": checkpoints[0] * 1e3,
            "service.checkpoint_ms_last": checkpoints[-1] * 1e3,
        })
        report["layers"] = layers
        attributed = sum(seconds for seconds, _ in totals.values())
        checks["self_times_sum_to_pass"] = (
            abs(attributed - traced_wall) <= 1e-6 * traced_wall)
        checks["traced_pass_identical"] = (
            w.committed_digest(outcome.deployment) == (committed, digest))
        report["host"]["host.other_self_s"] = totals.get(spans.OTHER, (0.0, 0))[0]
        report["host"]["host.trace_overhead_ratio"] = (
            traced_wall / statistics.median(walls))
        report["spans"] = len(recorder.spans)
        spans.write_chrome_trace(
            recorder.spans, HERE / "out" / f"{workload.name}.trace.json",
            f"{workload.name} seed {seed}")

        # The exact interpreter-call count of one more pass (C profiler: it
        # counts, the pass's own time is not used).
        outcome = None
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            _, outcome = quiet_pass(run)
        finally:
            profiler.disable()
        calls = sum(entry.callcount for entry in profiler.getstats())
        report["host"]["host.calls_per_el"] = calls / outcome.offered
    return report


def main(argv: list[str]) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    import workloads  # imports repro: the bulk of a cold start
    imported_at = clock()
    workload = workloads.WORKLOADS[name]
    scratch = HERE / "out" / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if mode == "setup":
            report = setup(workload, seed, scratch, imported_at)
        else:
            expect = int(argv[5]) if len(argv) > 5 else None
            report = measure(workload, seed, int(argv[3]), argv[4] == "1",
                             expect, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
