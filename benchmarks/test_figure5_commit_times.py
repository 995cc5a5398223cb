"""Fig. 5 (Appendix F) — commit times of the first element and of 10-50 % of elements.

Shapes to reproduce on the sending-rate dimension (the other two dimensions
share the same machinery and are exercised by the Fig. 3 benches):

* at low rates, commit times grow slowly and regularly with the fraction;
* at 10,000 el/s, the stressed algorithms (Vanilla, Compresschain) either
  never reach 50 % or reach it far later than Hashchain.
"""

import pytest

from conftest import BENCH_SCALE, run_once
from repro.experiments import figures


@pytest.fixture(scope="module")
def figure5_rate_rows():
    return figures.figure5(scale=BENCH_SCALE, dimensions=("rate",))["rate"]


def test_figure5_commit_time_quantiles(benchmark, figure5_rate_rows):
    rows = run_once(benchmark, lambda: figure5_rate_rows)
    print(f"\nFig. 5a — commit times (s) vs sending rate (scale 1/{BENCH_SCALE:g})")
    for row in rows:
        half = row["commit_fractions"][0.5]
        print(f"  {row['algorithm']:15s} c={row['collector']:<4d} "
              f"rate={row['sending_rate']:8.1f}  first={row['first_commit']}  "
              f"50%={'never' if half is None else f'{half:.1f}'}")
    assert rows


def test_figure5_low_rate_commits_promptly(figure5_rate_rows):
    # Rows carry the paper's (unscaled) sending-rate labels.
    low = [r for r in figure5_rate_rows if r["sending_rate"] <= 1_000]
    assert low
    for row in low:
        fractions = row["commit_fractions"]
        # Every low-rate run starts committing, and the first commits land well
        # inside the run (the 10% mark stays far from the horizon even with the
        # scale-inflated collector timeout; see EXPERIMENTS.md).
        assert row["first_commit"] is not None
        assert fractions[0.1] is not None
        assert fractions[0.1] < 120.0
    # The unstressed Hashchain runs reach the 50% mark promptly.
    for row in low:
        if row["algorithm"] == "hashchain":
            assert row["commit_fractions"][0.5] is not None


def test_figure5_stress_separates_algorithms(figure5_rate_rows):
    high = [r for r in figure5_rate_rows if r["sending_rate"] == 10_000]
    by_algo = {}
    for row in high:
        key = (row["algorithm"], row["collector"])
        by_algo[key] = row["commit_fractions"]
    hash_half = by_algo[("hashchain", 500)][0.5]
    comp_half = by_algo[("compresschain", 500)][0.5]
    assert hash_half is not None
    # Compresschain either never reaches 50 % or does so later than Hashchain.
    assert comp_half is None or comp_half >= hash_half
    vanilla_half = by_algo[("vanilla", 100)][0.5]
    assert vanilla_half is None or vanilla_half >= hash_half
