#!/usr/bin/env python3
"""Byzantine nemeses as schedule events: servers turn Byzantine and back.

The mirror of ``chaos_partition.py`` for adversarial faults.  A deterministic
timeline declared with the :mod:`repro.faults` DSL:

1. at t=3 s one named server adopts the ``withhold`` behaviour: it keeps
   appending signed hash-batches but refuses to serve their contents — the
   attack the f+1 consolidation rule is designed to neutralise,
2. at t=10 s it becomes correct again, answering its buffered
   ``Request_batch`` messages so consolidation of the withheld hashes
   resumes,
3. at t=12 s a *different* server crash-faults and recovers at t=15 s —
   crash and Byzantine nemeses composing in one schedule,
4. the resilience report attributes the damage: which servers turned, how
   many requests they withheld, and the usual availability/recovery metrics.

The f-budget is enforced where faults are applied: a schedule whose
Byzantine plus crashed servers could break the quorum at any instant is
rejected at build time, before a single event runs, and a fault passed to
``Session.apply`` that would break it is refused before it touches a server.

Everything is seed-deterministic — rerunning this script reproduces the same
chaos, the same withheld requests, and the same report.

Run with::

    python examples/chaos_byzantine.py
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
                .become_byzantine(3.0, "server-3", behaviour="withhold",
                                  until=10.0)
                .crash(12.0, "server-2", until=15.0)
                .label("chaos-byzantine"))

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
        note = f"  [{event['note']}]" if "note" in event else ""
        print(f"    t={event['at']:>5.1f}s  {event['kind']:<16} "
              f"{targets}{until}{note}")

    byzantine = report["byzantine"]
    print(f"  servers turned       : {', '.join(byzantine['servers'])}")
    for counter, value in byzantine["counters"].items():
        print(f"  {counter.replace('_', ' '):<21}: {value}")
    print(f"  injected / committed : {result.injected} / {result.committed} "
          f"({result.committed_fraction:.1%})")
    print(f"  adds refused (down)  : {report['rejected_while_crashed']}")

    # The guarantees story: Properties 1-8 hold at every never-crashed,
    # never-Byzantine server (the withholder and the crashed server are
    # faulty processes in the paper's model).  Because the withholder served
    # its buffered replies on reversion, even its own hashes consolidated —
    # every server converged on the same epoch sequence.
    from repro.core.properties import check_all

    views = {server.name: server.get() for server in deployment.servers
             if server.name not in ("server-2", "server-3")}
    violations = check_all(views, quorum=deployment.config.setchain.quorum,
                           all_added=deployment.injected_elements)
    print(f"  correct-server check : {'OK' if not violations else violations[:3]}")
    epochs = {server.get().epoch for server in deployment.servers}
    print(f"  epoch convergence    : "
          f"{'OK' if len(epochs) == 1 else sorted(epochs)} "
          f"(all servers at epoch {epochs.pop()})")


if __name__ == "__main__":
    main()
