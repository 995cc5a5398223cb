#!/usr/bin/env python3
"""E-voting on a Setchain with an epoch barrier and a deterministic tally.

The paper lists voting systems (Follow My Vote, Chirotonia) as Setchain
applications: ballots cast during the voting window need no relative order,
but the close of the election is a barrier — only ballots in epochs
consolidated before the barrier count.

This example:

1. runs a Compresschain deployment while voters cast signed ballots,
2. closes the election at a chosen epoch barrier,
3. tallies ballots deterministically (each ballot validated independently,
   duplicates voided), and
4. shows that every server computes the identical tally.

Run with::

    python examples/voting.py
"""

from __future__ import annotations

from collections import Counter

from repro import Scenario
from repro.workload.elements import Element, make_element

CANDIDATES = ("alice", "bob", "carol")


def cast_ballot(voter: str, candidate: str, now: float) -> Element:
    """A ballot is an element whose digest carries the vote."""
    return make_element(client=voter, size_bytes=250,
                        body_digest=f"ballot:{voter}:{candidate}", created_at=now)


def tally(view, barrier_epoch: int) -> Counter:
    """Deterministic tally over the epochs up to the barrier.

    Ballots are processed per epoch; within an epoch order does not matter
    because only the *first* ballot of each voter (by element id, the
    deterministic intra-epoch order) counts — later ones are voided.
    """
    counts: Counter = Counter()
    seen_voters: set[str] = set()
    for epoch in range(1, barrier_epoch + 1):
        for ballot in sorted(view.history.get(epoch, ()), key=lambda e: e.element_id):
            parts = ballot.body_digest.split(":")
            if len(parts) != 3 or parts[0] != "ballot":
                continue
            _, voter, candidate = parts
            if voter in seen_voters or candidate not in CANDIDATES:
                continue  # duplicate or malformed ballot is voided
            seen_voters.add(voter)
            counts[candidate] += 1
    return counts


def main() -> None:
    session = (Scenario.compresschain()
               .servers(4).rate(50).collector(25)
               .inject_for(5).drain(60)
               .label("election")
               .session())
    session.start()
    deployment = session.deployment

    # 60 voters spread their ballots across all four servers; three voters try
    # to vote twice (the second ballot must be voided by the tally).
    rng = deployment.sim.rng.derive("election")
    for i in range(60):
        voter = f"voter-{i:03d}"
        candidate = CANDIDATES[rng.randint(0, len(CANDIDATES) - 1)]
        server = deployment.servers[i % len(deployment.servers)]
        server.add(cast_ballot(voter, candidate, session.now))
        if i < 3:  # double-vote attempt through a different server
            other = deployment.servers[(i + 1) % len(deployment.servers)]
            other.add(cast_ballot(voter, CANDIDATES[0], session.now))

    session.run_until(40.0)

    # Election closes at the highest epoch every server has consolidated.
    views = session.views()
    barrier = min(view.epoch for view in views.values())
    print(f"Election closed at epoch barrier {barrier}")

    tallies = {name: tally(view, barrier) for name, view in views.items()}
    reference = next(iter(tallies.values()))
    for name, counts in tallies.items():
        print(f"  {name}: {dict(counts)}")
    assert all(counts == reference for counts in tallies.values()), \
        "servers disagree on the tally!"

    total = sum(reference.values())
    winner, votes = reference.most_common(1)[0]
    print(f"\nIdentical tally on every server — {total} valid ballots, "
          f"winner: {winner} with {votes} votes")
    print("Double-vote attempts voided:", 3)


if __name__ == "__main__":
    main()
