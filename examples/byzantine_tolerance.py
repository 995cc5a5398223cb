#!/usr/bin/env python3
"""Byzantine tolerance demo: a withholding Hashchain server cannot break safety.

The most interesting attack against Hashchain is *batch withholding*: a
Byzantine server appends a signed hash-batch to the ledger but refuses to
serve the batch contents, hoping either to stall the system or to get an
unverifiable epoch accepted.  The f+1-signer consolidation rule neutralises
it: a hash only becomes an epoch after f+1 distinct servers signed it, so at
least one signer is correct and can serve the contents.

This example builds a 4-server cluster where one server withholds, and shows

* elements injected through correct servers still commit,
* the withholder's own (unrecoverable) batches never consolidate,
* the correct servers' views satisfy all safety properties.

Run with::

    python examples/byzantine_tolerance.py
"""

from __future__ import annotations

from repro.compressor.model import ModelCompressor  # noqa: F401  (kept for symmetry with docs)
from repro.config import SetchainConfig, LedgerConfig
from repro.core.byzantine import WithholdBehaviour
from repro.core.hashchain import HashchainServer
from repro.core.properties import check_consistent_gets, check_unique_epoch
from repro.crypto.keys import PublicKeyInfrastructure
from repro.crypto.signatures import SignatureScheme
from repro.ledger.ideal import IdealLedger
from repro.net.latency import lan_profile
from repro.net.network import Network
from repro.sim.scheduler import Simulator
from repro.workload.elements import make_element


def main() -> None:
    sim = Simulator(seed=7)
    network = Network(sim, latency=lan_profile())
    scheme = SignatureScheme(PublicKeyInfrastructure())
    config = SetchainConfig(n_servers=4, collector_limit=10, collector_timeout=0.5,
                            batch_request_timeout=0.5)
    ledger = IdealLedger(sim, LedgerConfig(block_size_bytes=200_000, block_rate=2.0))
    ledger.start()

    servers = []
    for index in range(config.n_servers):
        name = f"server-{index}"
        keypair = scheme.generate_keypair(name)
        server = HashchainServer(name, sim, config, scheme, keypair)
        if index == 3:
            server.become_byzantine(WithholdBehaviour())
        network.register(server)
        server.connect_ledger(ledger.handle_for(name))
        servers.append(server)
    correct, withholder = servers[:3], servers[3]
    print(f"Cluster: {len(correct)} correct Hashchain servers + 1 withholding server "
          f"(f={config.max_faulty}, quorum={config.quorum})")

    # Honest traffic through the correct servers.
    honest = []
    for i in range(30):
        element = make_element(f"client-{i % 3}", 300, created_at=sim.now)
        correct[i % 3].add(element)
        honest.append(element)
    # Traffic injected only through the withholder: its hash-batches will be
    # unrecoverable, so these elements must never consolidate at correct servers.
    orphaned = []
    for i in range(10):
        element = make_element("client-victim", 300, created_at=sim.now)
        withholder.add(element)
        orphaned.append(element)

    sim.run_until(60.0)

    views = {s.name: s.get() for s in correct}
    committed = sum(1 for e in honest
                    if all(e in v.elements_in_epochs() for v in views.values()))
    leaked = sum(1 for e in orphaned
                 if any(e in v.elements_in_epochs() for v in views.values()))
    failed_reversals = sum(s.batch_requests_failed for s in correct)

    print(f"  honest elements epoched on every correct server : {committed}/{len(honest)}")
    print(f"  withheld elements epoched anywhere              : {leaked}/{len(orphaned)}")
    print(f"  hash-reversal requests that timed out           : {failed_reversals}")

    violations = check_consistent_gets(views)
    for name, view in views.items():
        violations += check_unique_epoch(view, name)
    print(f"  safety properties on correct servers            : "
          f"{'OK' if not violations else violations}")
    print("\nThe withholder delayed nothing it was not part of, and could not get "
          "unverifiable content accepted as an epoch.")


if __name__ == "__main__":
    main()
