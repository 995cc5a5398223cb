"""Ablation — the f+1 signer consolidation rule in Hashchain (DESIGN.md §5).

The paper consolidates a hash into an epoch only after f+1 distinct servers
signed it, so at least one correct server can serve the batch contents.  This
bench compares f (hence the consolidation quorum) at the same cluster size and
checks the safety/latency trade-off: a larger quorum needs more ledger traffic
per epoch and slightly more time before consolidation, but under a withholding
attacker only the quorum rule keeps unrecoverable content out of epochs (the
attack itself is exercised in tests/test_byzantine.py).
"""

import pytest

from conftest import run_once
from repro import Scenario

SCALE = 25.0


def run_with_quorum(f_value):
    scenario = (Scenario.hashchain().rate(2_000).collector(100).servers(10)
                .byzantine(f=f_value).drain(70)
                .label(f"ablation quorum f={f_value}"))
    return scenario.session(scale=SCALE).start().run()


def test_consolidation_quorum_tradeoff(benchmark):
    sessions = run_once(benchmark, lambda: {f: run_with_quorum(f) for f in (0, 2, 4)})
    print(f"\nAblation — Hashchain consolidation quorum (n=10, scale 1/{SCALE:g})")
    medians = {}
    for f_value, session in sessions.items():
        result = session.result()
        latencies = session.deployment.metrics.commit_latencies()
        median = latencies[len(latencies) // 2] if latencies else float("nan")
        medians[f_value] = median
        print(f"  f={f_value} (quorum {f_value + 1}): committed "
              f"{result.committed}/{result.injected}  "
              f"median commit latency {median:.2f}s  eff100 {result.efficiency['100s']:.2f}")
        # Every quorum choice is live when all servers are correct.
        assert result.efficiency["100s"] > 0.9
    # A larger quorum cannot make commits faster.
    assert medians[4] >= medians[0] - 0.5
