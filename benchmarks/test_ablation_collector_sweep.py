"""Ablation — collector size sweep for Hashchain (design choice in DESIGN.md §5).

The collector size c sets the batch the ledger never sees in full: analytical
throughput scales with (c - n), and the measured saturation point moves with
it.  This bench sweeps c at a fixed offered rate and checks the monotone
improvement the paper exploits when moving from c=100 to c=500.
"""

import pytest

from conftest import BENCH_SCALE, run_once
from repro import Scenario

COLLECTORS = (50, 100, 250, 500)


def sweep():
    results = {}
    for collector in COLLECTORS:
        scenario = (Scenario.hashchain().rate(10_000).collector(collector)
                    .servers(10).drain(70)
                    .label(f"ablation collector={collector}"))
        results[collector] = scenario.run(scale=BENCH_SCALE)
    return results


def test_collector_size_sweep(benchmark):
    results = run_once(benchmark, sweep)
    print(f"\nAblation — Hashchain collector sweep at 10,000 el/s (scale 1/{BENCH_SCALE:g})")
    for collector, result in results.items():
        print(f"  c={collector:<4d} analytical={result.analytical_throughput:9.1f} el/s  "
              f"avg(50s)={result.avg_throughput_50s:8.1f}  eff100={result.efficiency['100s']:.2f}")
    analytical = [results[c].analytical_throughput for c in COLLECTORS]
    assert all(a < b for a, b in zip(analytical, analytical[1:]))
    # Efficiency at the stressed rate improves (weakly) with the collector size.
    eff = [results[c].efficiency["100s"] for c in COLLECTORS]
    assert eff[-1] >= eff[0] - 0.05
    assert results[500].efficiency["100s"] > 0.5
