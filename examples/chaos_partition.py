#!/usr/bin/env python3
"""Chaos engineering on a Setchain cluster: partition, crash, recover, measure.

A Jepsen-style nemesis timeline declared with the :mod:`repro.faults` DSL:

1. at t=3 s a random minority of servers is partitioned away (heals at t=6 s),
2. at t=8 s one named server crash-faults, losing its in-memory collector,
3. at t=12 s it recovers: the co-located ledger node replays the missed
   blocks and the server pulls unknown batch contents from its peers through
   the Hashchain ``Request_batch`` hash-reversal path,
4. the resilience report quantifies the damage: per-window availability,
   commit latency during vs outside the fault windows, and the recovery time
   to the first post-heal commit.

Everything is seed-deterministic — rerunning this script reproduces the same
chaos, the same drops, and the same report.

Run with::

    python examples/chaos_partition.py
"""

from __future__ import annotations

from repro import Scenario


def main() -> None:
    scenario = (Scenario.hashchain()
                .servers(4)
                .rate(300)
                .collector(25)
                .inject_for(15)
                .drain(60)
                .backend("ideal")
                .partition(3.0, until=6.0, count=1, role="servers")
                .crash(8.0, "server-3", until=12.0)
                .label("chaos-partition"))

    with scenario.session() as session:
        session.run_to_completion()
        result = session.result()
        deployment = session.deployment
    report = result.faults
    assert report is not None

    print(f"Scenario: {result.label}")
    print("  chaos timeline:")
    for event in report["events"]:
        until = f" until t={event['until']:g}s" if "until" in event else ""
        targets = ", ".join(event["targets"]) or "-"
        print(f"    t={event['at']:>5.1f}s  {event['kind']:<10} {targets}{until}")

    print(f"  injected / committed : {result.injected} / {result.committed} "
          f"({result.committed_fraction:.1%})")
    print(f"  messages dropped     : {report['messages_dropped']}")
    print(f"  adds refused (down)  : {report['rejected_while_crashed']}")

    print("  availability by window:")
    for window in report["availability"]["windows"]:
        start = window["start"]
        width = report["availability"]["window_s"]
        bar = "#" * round(40 * window["availability"])
        print(f"    [{start:>4.0f}s-{start + width:>3.0f}s) "
              f"{window['availability']:>6.1%}  {bar}")

    latency = report["commit_latency_s"]
    if latency["during_faults"] is not None and latency["fault_free"] is not None:
        print(f"  commit latency       : {latency['during_faults']:.2f} s during "
              f"faults vs {latency['fault_free']:.2f} s fault-free")
    for entry in report["recovery"]:
        if entry["recovery_s"] is not None:
            print(f"  recovery ({entry['kind']:<9}) : first commit "
                  f"{entry['recovery_s']:.2f} s after heal")

    # The guarantees story: the never-crashed servers keep Properties 1 and 3-8
    # (the crashed server is a faulty process in the paper's model — it may
    # hold elements it lost in its wiped collector forever).
    from repro.core.properties import check_all

    views = {server.name: server.get() for server in deployment.servers
             if server.name != "server-3"}
    violations = check_all(views, quorum=deployment.config.setchain.quorum,
                           all_added=deployment.injected_elements)
    print(f"  correct-server check : {'OK' if not violations else violations[:3]}")


if __name__ == "__main__":
    main()
