#!/usr/bin/env python3
"""Sharded scale-out: one logical set over N independent Setchain instances.

A single Setchain instance has a committed-throughput ceiling: with 2 ms
element validation and two blocks per second, one 3-server cluster sustains
roughly 1300 el/s before proof-bearing blocks queue behind the validation
backlog and commits starve.  This script drives the same oversubscribed
workload (2500 el/s for 4 s) against 1, 2, and 4 shards and shows:

1. the scale-out curve — each shard is an independent Setchain instance
   (a multi-tenant algorithm group over the shared ledger) taking a
   hash-partitioned slice of the element space, so committed throughput
   grows near-linearly until the offered load is cleared,
2. the cross-shard report (``RunResult.shards``): per-shard added/committed
   counts, the router's accepted/deferred/rejected admission counters, and
   the partition skew ratio (max/mean per-shard load; 1.0 is perfectly
   even),
3. the merged **logical view**: the union of the per-shard sets with epochs
   renumbered across shards, on which Properties 1 and 3-8 hold as they do
   per shard.

Everything is seed-deterministic — rerunning reproduces the same partition,
the same skew, and the same commit counts.

Run with::

    python examples/shard_scaleout.py
"""

from __future__ import annotations

from repro import Scenario


def scale_config(shards: int):
    return (Scenario.hashchain().servers(3).byzantine(f=1).shards(shards)
            .rate(2_500).collector(50).setchain(element_validation_time=2e-3)
            .block_rate(2.0).inject_for(4).drain(8).backend("ideal")
            .label(f"scaleout-s{shards}").seed(7))


def main() -> None:
    print("committed throughput vs shard count (same 2500 el/s workload):")
    results = {}
    for shards in (1, 2, 4):
        result = scale_config(shards).run()
        results[shards] = result
        print(f"  {shards} shard(s): committed {result.committed:>6} "
              f"of {result.injected} injected "
              f"({result.committed_fraction:.1%})")

    baseline = max(results[1].committed, 1)
    print(f"  4-shard speedup over 1 shard: "
          f"{results[4].committed / baseline:.1f}x committed elements")

    print("\ncross-shard report for the 4-shard run:")
    shards = results[4].shards
    print(f"  router: {shards['router']}  skew={shards['skew_ratio']}")
    for index, entry in sorted(shards["per_shard"].items(), key=lambda kv: int(kv[0])):
        print(f"  shard {index}: servers={len(entry['servers'])} "
              f"added={entry['added']:>5} committed={entry['committed']:>5} "
              f"avg thpt 50s={entry['avg_throughput_50s']}")

    print("\nmerged logical view (4 shards as one Setchain):")
    with scale_config(4).session() as session:
        session.run_to_completion()
        view = session.logical_view()
        print(f"  |Set|={len(view.the_set)} over {view.epoch} logical epochs")
        print(f"  per-shard Properties 1, 3-8 violations: "
              f"{session.check_properties()}")
        print(f"  merged-view Properties 1, 3-8 violations: "
              f"{session.check_logical_properties()}")


if __name__ == "__main__":
    main()
