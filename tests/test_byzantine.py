"""Fault-injection tests: correct servers keep their guarantees under Byzantine peers."""

import pytest

from repro.core.byzantine import (
    EquivocateBehaviour,
    InvalidElementBehaviour,
    SilentBehaviour,
    WithholdBehaviour,
    WrongHashBehaviour,
    make_invalid_element,
)
from repro.core.hashchain import HashchainServer
from repro.core.properties import check_all, check_consistent_gets, check_unique_epoch
from repro.core.vanilla import VanillaServer
from repro.workload.elements import make_element


def build_mixed_cluster(sim, network, scheme, config, ledger, server_cls,
                        behaviour, byzantine_count=1):
    """n-server cluster where the last ``byzantine_count`` servers adopt a
    fresh ``behaviour()`` before they run."""
    servers = []
    for index in range(config.n_servers):
        name = f"server-{index}"
        keypair = scheme.generate_keypair(name)
        server = server_cls(name, sim, config, scheme, keypair)
        if index >= config.n_servers - byzantine_count:
            server.become_byzantine(behaviour())
        network.register(server)
        server.connect_ledger(ledger.handle_for(name))
        servers.append(server)
    correct = servers[:config.n_servers - byzantine_count]
    byz = servers[config.n_servers - byzantine_count:]
    return correct, byz


def inject(servers, count, size=100):
    elements = []
    for i in range(count):
        element = make_element(f"c{i % len(servers)}", size)
        servers[i % len(servers)].add(element)
        elements.append(element)
    return elements


def test_make_invalid_element_fails_validation(sim, network, scheme,
                                              small_setchain_config, ideal_ledger):
    server = VanillaServer("server-0", sim, small_setchain_config, scheme,
                           scheme.generate_keypair("server-0"))
    network.register(server)
    server.connect_ledger(ideal_ledger.handle_for("server-0"))
    assert not server.add(make_invalid_element())
    assert server.rejected_elements == 1


def test_withholding_server_does_not_block_consolidation(sim, network, scheme,
                                                         small_setchain_config,
                                                         ideal_ledger):
    """f = 1 withholding server: batches from correct servers still consolidate."""
    correct, byz = build_mixed_cluster(sim, network, scheme, small_setchain_config,
                                       ideal_ledger, HashchainServer,
                                       WithholdBehaviour)
    elements = inject(correct, 30)
    sim.run_until(60.0)
    views = {s.name: s.get() for s in correct}
    # Correct servers agree, stay disjoint, and commit the injected elements.
    assert not check_consistent_gets(views)
    for name, view in views.items():
        assert not check_unique_epoch(view, name)
        assert all(element in view.elements_in_epochs() for element in elements)
        signers_per_epoch = [
            {p.signer for p in view.proofs_for(i)} for i in range(1, view.epoch + 1)
        ]
        assert all(len(s) >= small_setchain_config.quorum for s in signers_per_epoch)


def test_withholding_servers_own_batches_never_consolidate(sim, network, scheme,
                                                           small_setchain_config,
                                                           ideal_ledger):
    correct, byz = build_mixed_cluster(sim, network, scheme, small_setchain_config,
                                       ideal_ledger, HashchainServer,
                                       WithholdBehaviour)
    withholder = byz[0]
    # Elements added only through the withholding server: its batch hash goes to
    # the ledger but nobody can recover the contents.
    orphaned = inject([withholder], 10)
    sim.run_until(30.0)
    for server in correct:
        view = server.get()
        assert all(element not in view.elements_in_epochs() for element in orphaned)


def test_wrong_hash_server_is_harmless(sim, network, scheme, small_setchain_config,
                                       ideal_ledger):
    correct, _ = build_mixed_cluster(sim, network, scheme, small_setchain_config,
                                     ideal_ledger, HashchainServer,
                                     WrongHashBehaviour)
    elements = inject(correct, 20)
    sim.run_until(60.0)
    views = {s.name: s.get() for s in correct}
    assert not check_all(views, quorum=small_setchain_config.quorum,
                         all_added=elements, include_liveness=False)
    for view in views.values():
        assert all(element in view.elements_in_epochs() for element in elements)


def test_invalid_element_flooder_does_not_pollute_epochs(sim, network, scheme,
                                                         small_setchain_config,
                                                         ideal_ledger):
    correct, byz = build_mixed_cluster(sim, network, scheme, small_setchain_config,
                                       ideal_ledger, VanillaServer,
                                       lambda: InvalidElementBehaviour(3))
    elements = inject(correct + byz, 20)
    sim.run_until(30.0)
    for server in correct:
        view = server.get()
        for epoch_elements in view.history.values():
            assert all(e.valid for e in epoch_elements)
        assert all(element in view.the_set for element in elements)


def test_equivocating_proofs_are_rejected_by_correct_servers(sim, network, scheme,
                                                             small_setchain_config,
                                                             ideal_ledger):
    correct, byz = build_mixed_cluster(sim, network, scheme, small_setchain_config,
                                       ideal_ledger, VanillaServer,
                                       EquivocateBehaviour)
    inject(correct, 12)
    sim.run_until(30.0)
    equivocator = byz[0].name
    for server in correct:
        view = server.get()
        # No proof signed over the bogus hash was accepted.
        assert all(p.epoch_hash != "0" * 128 for p in view.proofs)
        # Correct servers still gathered a quorum without the equivocator.
        for epoch in range(1, view.epoch + 1):
            signers = {p.signer for p in view.proofs_for(epoch)}
            assert len(signers - {equivocator}) >= small_setchain_config.quorum


def test_silent_server_drops_only_its_own_clients(sim, network, scheme,
                                                  small_setchain_config, ideal_ledger):
    correct, byz = build_mixed_cluster(sim, network, scheme, small_setchain_config,
                                       ideal_ledger, VanillaServer, SilentBehaviour)
    silent = byz[0]
    through_correct = inject(correct, 9)
    swallowed = inject([silent], 3)
    sim.run_until(30.0)
    for server in correct:
        view = server.get()
        assert all(e in view.elements_in_epochs() for e in through_correct)
        assert all(e not in view.the_set for e in swallowed)
    # The swallowed elements are only visible in the silent server's local set —
    # exactly the risk the client mitigates by checking f+1 epoch-proofs.
    silent_view = silent.get()
    assert all(e in silent_view.the_set for e in swallowed)
