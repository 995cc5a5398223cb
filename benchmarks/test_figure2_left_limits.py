"""Fig. 2 (left) — pushing the Hashchain limits; hash reversal as the bottleneck.

Paper shape to reproduce: full Hashchain hits a throughput ceiling well below
its analytical bound because of the hash-reversal service; "Hashchain light"
(no hash reversal / validation) sustains a far higher rate; Compresschain and
Vanilla sit well below both.
"""

import pytest

from conftest import BENCH_SCALE_HEAVY, run_once
from repro.experiments import figures


@pytest.fixture(scope="module")
def figure2_data():
    return figures.figure2_left(scale=BENCH_SCALE_HEAVY)


def test_figure2_left_saturation(benchmark, figure2_data):
    results = run_once(benchmark, lambda: figure2_data)
    print(f"\nFig. 2 left — highest achieved throughput (scale 1/{BENCH_SCALE_HEAVY:g})")
    by_algo = {}
    for result in results:
        peak = result.throughput.peak()
        by_algo[result.algorithm] = result
        print(f"  {result.algorithm:22s} "
              f"offered {result.config['workload']['sending_rate']:9.1f} el/s  "
              f"avg(50s) {result.avg_throughput_50s:9.1f}  peak {peak:9.1f}  "
              f"analytical {result.analytical_throughput:9.1f}")
    full = by_algo["hashchain"]
    light = by_algo["hashchain-light"]
    peak = {name: result.throughput.peak() for name, result in by_algo.items()}
    # Hash reversal is the bottleneck: the light variant sustains a higher rate
    # and a higher sustained average than the full algorithm, despite being
    # offered 6x the load (paper: ~134k el/s vs ~20k el/s).
    assert peak["hashchain-light"] > peak["hashchain"]
    assert light.avg_throughput_50s > full.avg_throughput_50s
    assert light.committed > 2 * full.committed
    # The full algorithm cannot keep up with its offered rate (the per-element
    # hash-reversal ceiling sits below it), while the light variant clears a
    # large fraction of a 6x heavier load.
    assert full.efficiency["100s"] < 0.95
    assert light.efficiency["100s"] > full.efficiency["100s"] - 0.05
    # Vanilla stays far below Hashchain at its own (much lower) offered rate.
    assert peak["vanilla"] < peak["hashchain"]
