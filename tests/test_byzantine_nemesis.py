"""Byzantine nemeses as schedule events: the behaviour-strategy refactor, the
``become-byzantine``/``become-correct`` fault kinds, the f-budget invariant,
attribution counters, builder/session sugar, the ``byz/`` catalog family, and
the golden/byte-identity guarantees."""

import json
from typing import ClassVar
from unittest import mock

import pytest

from repro.api import RunResult, Scenario, Session, get_scenario, run, scenario_names
from repro.api.cli import main
from repro.api.parallel import RunSpec, reset_run_counters, run_specs
from repro.core.byzantine import (
    BEHAVIOURS,
    ByzantineBehaviour,
    WithholdBehaviour,
    resolve_behaviour,
)
from repro.core.deployment import build_deployment
from repro.core.properties import check_all
from repro.errors import ConfigurationError
from repro.faults import BecomeByzantine, BecomeCorrect, Crash, Recover, Targets

from pathlib import Path

GOLDEN_DIR = Path(__file__).parent / "golden"

#: (registered byz scenario, golden artifact) pairs spanning the three
#: algorithms, captured when Byzantine nemeses landed.
BYZ_GOLDEN_RUNS = [
    ("byz/smoke", "byz__smoke.json"),
    ("byz/golden/vanilla-silent", "byz__golden__vanilla-silent.json"),
    ("byz/golden/compresschain-equivocate",
     "byz__golden__compresschain-equivocate.json"),
]


SERVER_3 = Targets(nodes=("server-3",))


def byz_scenario():
    """A small, fast adversarial config over the ideal ledger (4 servers, f=1)."""
    return (Scenario.hashchain().servers(4).rate(200).collector(20)
            .inject_for(5).drain(60).backend("ideal"))


# -- behaviour strategies on live servers ---------------------------------------


def test_builtin_behaviours_registered_with_did_you_mean():
    assert set(BEHAVIOURS) == {"withhold", "wrong-hash", "invalid-element",
                               "equivocate", "silent"}
    with pytest.raises(ConfigurationError, match="withhold"):
        resolve_behaviour("withold")


def test_server_becomes_byzantine_and_back_mid_run():
    deployment = build_deployment(byz_scenario().build())
    deployment.start()
    deployment.sim.run_until(1.0)
    server = deployment.servers[3]
    assert not server.is_byzantine and server.byzantine_behaviour is None
    deployment.apply(BecomeByzantine(targets=SERVER_3, behaviour="withhold"))
    assert server.is_byzantine and server.byzantine_behaviour == "withhold"
    # An already-Byzantine server belongs to the event that turned it.
    (skipped,) = deployment.apply(
        BecomeByzantine(targets=SERVER_3, behaviour="silent"))
    assert "skipped" in skipped["note"]
    assert server.byzantine_behaviour == "withhold"
    # Switching behaviours on the server detaches the previous one first.
    server.become_byzantine("silent")
    assert server.byzantine_behaviour == "silent"
    deployment.apply(BecomeCorrect(targets=SERVER_3))
    assert not server.is_byzantine
    deployment.apply(BecomeCorrect(targets=SERVER_3))  # idempotent


def test_only_servers_can_turn_byzantine():
    deployment = build_deployment(
        Scenario.hashchain().servers(4).rate(200).collector(20)
        .inject_for(5).drain(60).build())
    (skipped,) = deployment.apply(BecomeByzantine(
        targets=Targets(nodes=("cometbft-0",), role="all")))
    assert skipped["note"] == "no eligible targets; skipped"
    assert deployment.fault_injector.context.is_byzantine("cometbft-0") is False
    assert deployment.byzantine_servers() == set()


def test_third_party_behaviour_runs_end_to_end():
    flushed = []

    class FlushProbe(ByzantineBehaviour):
        name: ClassVar[str] = "test-flush-probe"

        def on_flush_batch(self, server, batch):
            flushed.append(len(batch))
            return False  # observe, then fall through to the correct path

    with mock.patch.dict(BEHAVIOURS, {FlushProbe.name: FlushProbe}):
        config = (byz_scenario()
                  .become_byzantine(1.0, "server-0",
                                    behaviour="test-flush-probe", until=4.0)
                  .build())
        result = run(config)
        assert flushed  # the hook fired on the live server
        assert result.faults is not None
        assert result.faults["byzantine"]["servers"] == ["server-0"]


# -- the BecomeByzantine / BecomeCorrect events ---------------------------------


def test_become_byzantine_validates_behaviour_and_role():
    with pytest.raises(ConfigurationError, match="equivocate"):
        BecomeByzantine(at=1.0, behaviour="equivocat")
    with pytest.raises(ConfigurationError, match="servers"):
        BecomeByzantine(at=1.0, targets=Targets(role="validators"))


def test_new_event_kinds_round_trip_through_json():
    events = (
        BecomeByzantine(at=1.0, until=3.0, behaviour="withhold",
                        targets=Targets(nodes=("server-3",))),
        BecomeByzantine(at=4.0, behaviour="equivocate",
                        targets=Targets(role="servers", count=2)),
        BecomeCorrect(at=5.0, targets=Targets(nodes=("server-3",))),
    )
    for event in events:
        wire = json.loads(json.dumps(event.to_dict()))
        assert type(event).from_dict(wire) == event
        assert wire["kind"] in ("become-byzantine", "become-correct")


def test_mid_run_withhold_then_correct_buffered_replies_resume():
    """The flagship regression: a server that withholds Request_batch replies
    buffers them and serves them on BecomeCorrect, so consolidation of its
    hashes resumes and every server converges on the same epochs."""
    config = byz_scenario().build()
    with Scenario.from_config(config).session() as session:
        session.run_for(1.0)
        session.apply(BecomeByzantine(targets=SERVER_3, behaviour="withhold"))
        assert session.byzantine_nodes() == ["server-3"]
        # Elements added only through the Byzantine server: its hash-batches
        # reach the ledger but nobody can pull the contents while it withholds.
        orphaned = [session.inject(server=3) for _ in range(25)]
        session.run_for(4.0)
        withholder = session.deployment.servers[3]
        assert withholder.byzantine_counters.get("withheld_requests", 0) > 0
        correct_views = [session.view(i) for i in range(3)]
        assert all(element not in view.elements_in_epochs()
                   for view in correct_views for element in orphaned)
        # Turning correct replays the buffered replies; consolidation resumes.
        session.apply(BecomeCorrect(targets=SERVER_3))
        assert session.byzantine_nodes() == []
        session.run_to_completion()
        views = session.views()
        epochs = {view.epoch for view in views.values()}
        assert len(epochs) == 1 and epochs != {0}
        for view in views.values():
            assert all(element in view.elements_in_epochs()
                       for element in orphaned)
        violations = session.check_properties()
        assert violations == [], violations[:5]


def test_withhold_buffer_survives_detach_while_crashed():
    """Review regression: reversion firing while the withholder is
    crash-faulted must not lose the buffered Request_batch replies (a
    crashed node's sends are silently dropped) — the buffer parks on the
    server and replays on recovery, so consolidation still converges."""
    with byz_scenario().session() as session:
        session.run_for(1.0)
        session.apply(BecomeByzantine(targets=SERVER_3, behaviour="withhold"))
        orphaned = [session.inject(server=3) for _ in range(25)]
        session.run_for(3.0)  # batches flushed, peer requests withheld
        withholder = session.deployment.servers[3]
        assert withholder.byzantine_counters.get("withheld_requests", 0) > 0
        session.apply(Crash(targets=SERVER_3),
                      BecomeCorrect(targets=SERVER_3))  # detach while down
        assert withholder._deferred_request_replays  # parked, not lost
        session.apply(Recover(targets=SERVER_3))
        assert not withholder._deferred_request_replays  # served on recovery
        session.run_to_completion()
        views = session.views()
        assert len({view.epoch for view in views.values()}) == 1
        for name, view in views.items():
            assert all(element in view.elements_in_epochs()
                       for element in orphaned), name


def test_interactive_byzantine_excluded_from_checks_after_revert():
    """Review regression: a server turned Byzantine through the Session (no
    fault schedule) and later reverted is still a faulty process — its
    silently dropped elements sit in its the_set forever — so property
    checks must keep excluding it."""
    config = (Scenario.vanilla().servers(4).rate(200)
              .inject_for(5).drain(40).backend("ideal").build())
    with Scenario.from_config(config).session() as session:
        session.run_for(1.0)
        session.apply(BecomeByzantine(targets=SERVER_3, behaviour="silent"))
        swallowed = [session.inject(server=3) for _ in range(5)]
        session.run_for(2.0)
        session.apply(BecomeCorrect(targets=SERVER_3))
        session.run()
        assert session.deployment.byzantine_servers() == {"server-3"}
        # The faulty view really is inconsistent (dropped elements never
        # reach an epoch)...
        faulty_view = session.view("server-3")
        assert any(element not in faulty_view.elements_in_epochs()
                   for element in swallowed)
        # ...and check_properties excludes it, so the run is clean.
        assert session.check_properties() == []


def test_scheduled_withhold_window_reverts_and_run_converges():
    config = (byz_scenario()
              .become_byzantine(1.0, "server-3", behaviour="withhold",
                                until=3.0)
              .build())
    deployment = Session(config).start().run().deployment
    assert not deployment.servers[3].is_byzantine  # reverted at until
    report = deployment.fault_injector.report()
    assert report["byzantine"]["servers"] == ["server-3"]
    assert report["byzantine"]["counters"].get("withheld_requests", 0) > 0
    # Everything converges once the window closes (buffered replies + retries).
    views = deployment.views()
    assert len({view.epoch for view in views.values()}) == 1


def test_wrong_hash_window_is_harmless_and_attributed():
    config = (Scenario.hashchain().servers(5).rate(200).collector(20)
              .inject_for(5).drain(60).backend("ideal")
              .become_byzantine(1.0, "server-4", behaviour="wrong-hash",
                                until=4.0)
              .build())
    deployment = Session(config).start().run().deployment
    report = deployment.fault_injector.report()
    assert report["byzantine"]["counters"]["bogus_hash_batches"] > 0
    # A bogus hash gathers one signer at most and never consolidates.
    byz = deployment.servers[4]
    for server in deployment.servers[:4]:
        for digest, signers in server.hash_to_signers.items():
            if signers == {byz.name} and digest in byz._signed_hashes:
                assert digest not in server._consolidated
    views = {s.name: s.get() for s in deployment.servers[:4]}
    violations = check_all(views, quorum=config.setchain.quorum,
                           all_added=deployment.injected_elements)
    assert violations == [], violations[:5]


def test_invalid_element_flood_is_refused_by_correct_servers():
    config = (Scenario.vanilla().servers(5).rate(200)
              .inject_for(5).drain(40).backend("ideal")
              .become_byzantine(1.0, "server-4", behaviour="invalid-element",
                                until=4.0)
              .build())
    deployment = Session(config).start().run().deployment
    counters = deployment.fault_injector.report()["byzantine"]["counters"]
    assert counters["invalid_elements_appended"] > 0
    assert counters["invalid_elements_refused"] > 0
    for server in deployment.servers[:4]:
        for epoch_elements in server.get().history.values():
            assert all(element.valid for element in epoch_elements)


def test_equivocating_window_does_not_poison_correct_quorums():
    config = (Scenario.vanilla().servers(5).rate(200)
              .inject_for(5).drain(40).backend("ideal")
              .become_byzantine(1.0, "server-4", behaviour="equivocate",
                                until=4.0)
              .build())
    deployment = Session(config).start().run().deployment
    counters = deployment.fault_injector.report()["byzantine"]["counters"]
    assert counters["equivocating_proofs"] > 0
    assert sum(s.invalid_proofs for s in deployment.servers[:4]) > 0
    for server in deployment.servers[:4]:
        view = server.get()
        assert all(proof.epoch_hash != "0" * len(proof.epoch_hash)
                   for proof in view.proofs)
        for epoch in range(1, view.epoch + 1):
            signers = {p.signer for p in view.proofs_for(epoch)}
            assert len(signers - {"server-4"}) >= config.setchain.quorum


def test_silent_window_drops_only_the_byzantine_servers_clients():
    config = (Scenario.compresschain().servers(5).rate(200).collector(20)
              .inject_for(5).drain(40).backend("ideal")
              .become_byzantine(0.0, "server-4", behaviour="silent",
                                until=5.0)
              .build())
    deployment = Session(config).start().run().deployment
    counters = deployment.fault_injector.report()["byzantine"]["counters"]
    assert counters["suppressed_elements"] > 0
    # Elements injected through the silent server never reach correct epochs.
    silent_set = deployment.servers[4].get().the_set
    correct_epochs = deployment.servers[0].get().elements_in_epochs()
    swallowed = [e for e in silent_set if e not in correct_epochs]
    assert swallowed  # it did accept (and drop) traffic
    views = {s.name: s.get() for s in deployment.servers[:4]}
    violations = check_all(views, quorum=config.setchain.quorum,
                           all_added=deployment.injected_elements)
    assert violations == [], violations[:5]


# -- composing crash + partition + Byzantine in one schedule --------------------


def test_crash_partition_and_byzantine_compose_in_one_timeline():
    config = (Scenario.hashchain().servers(5).rate(200).collector(20)
              .inject_for(5).drain(60).backend("ideal")
              .become_byzantine(1.0, "server-4", behaviour="withhold",
                                until=3.0)
              .crash(2.0, "server-3", until=3.5)
              .partition(2.5, until=4.0, count=1, role="servers")
              .build())
    deployment = Session(config).start().run().deployment
    report = deployment.fault_injector.report()
    kinds = [entry["kind"] for entry in report["events"]]
    assert {"become-byzantine", "crash", "partition"} <= set(kinds)
    views = {s.name: s.get() for s in deployment.servers
             if s.name not in ("server-3", "server-4")}
    assert len(views) >= config.setchain.quorum
    violations = check_all(views, quorum=config.setchain.quorum,
                           all_added=deployment.injected_elements)
    assert violations == [], violations[:5]


def test_crash_only_reports_carry_no_byzantine_block():
    result = run("chaos/smoke")
    assert result.faults is not None
    assert "byzantine" not in result.faults


def test_auto_revert_skips_servers_reclaimed_by_a_later_event():
    """Mirror of the crash-claim regression: the first window's auto-revert
    must not shed a behaviour a later event re-attached."""
    config = (Scenario.hashchain().rate(200).collector(20)
              .inject_for(5).drain(60).backend("ideal")
              .become_byzantine(1.0, "server-9", behaviour="silent",
                                until=3.0)
              .faults(BecomeCorrect(at=2.0, targets=Targets(nodes=("server-9",))))
              .become_byzantine(2.5, "server-9", behaviour="withhold",
                                until=6.0)
              .build())
    deployment = build_deployment(config)
    deployment.start()
    deployment.sim.run_until(3.5)
    # The first window's t=3 auto-revert must not release the second claim.
    assert deployment.servers[9].byzantine_behaviour == "withhold"
    deployment.sim.run_until(6.5)
    assert not deployment.servers[9].is_byzantine


def test_become_byzantine_on_already_byzantine_target_skips():
    config = (Scenario.hashchain().rate(200).collector(20)
              .inject_for(5).drain(60).backend("ideal")
              .become_byzantine(1.0, "server-9", behaviour="silent", until=6.0)
              .become_byzantine(2.0, "server-9", behaviour="withhold",
                                until=3.0)
              .build())
    deployment = build_deployment(config)
    deployment.start()
    deployment.sim.run_until(4.0)
    # The overlapping event was skipped: the original behaviour survives its
    # window, and the skipped event opened no Byzantine window of its own.
    assert deployment.servers[9].byzantine_behaviour == "silent"
    skipped = [entry for entry in deployment.fault_injector.applied
               if "skipped" in entry.get("note", "")]
    assert len(skipped) == 1 and skipped[0]["at"] == 2.0
    deployment.sim.run_until(6.5)
    assert not deployment.servers[9].is_byzantine


# -- the f-budget invariant -----------------------------------------------------


def test_overlapping_byzantine_and_crash_windows_exceeding_f_rejected():
    with pytest.raises(ConfigurationError, match="Byzantine budget"):
        (byz_scenario()
         .become_byzantine(1.0, count=1, until=3.0)
         .crash(2.0, count=1, until=4.0)
         .build())


def test_sequential_windows_within_budget_accepted():
    config = (byz_scenario()
              .become_byzantine(1.0, count=1, until=2.5)
              .crash(3.0, count=1, until=4.0)
              .build())
    assert config.faults is not None and len(config.faults.events) == 2


def test_declared_f_bounds_scheduled_byzantine_servers():
    """Satellite fix: a static `.byzantine(f=)` and the schedule must agree —
    scheduling more concurrent Byzantine servers than f is a config error."""
    with pytest.raises(ConfigurationError, match=r"f=1"):
        (Scenario.hashchain().servers(10).byzantine(f=1)
         .rate(200).inject_for(5).drain(60).backend("ideal")
         .become_byzantine(1.0, count=2, until=3.0)
         .build())
    # The same schedule under the default tolerance (f=4 for n=10) is fine.
    config = (Scenario.hashchain().servers(10)
              .rate(200).inject_for(5).drain(60).backend("ideal")
              .become_byzantine(1.0, count=2, until=3.0)
              .build())
    assert config.setchain.max_faulty == 4


def test_crash_only_schedules_beyond_f_stay_allowed():
    """Crash-beyond-f voids liveness only until recovery — a legitimate
    experiment (chaos/crash/beyond-f); the budget gate only arms when the
    schedule turns servers Byzantine."""
    config = get_scenario("chaos/crash/beyond-f")
    assert config.faults is not None


def test_open_ended_byzantine_counts_until_matching_become_correct():
    # Open-ended + a later overlapping crash: worst case 2 faulty of 4 (f=1).
    with pytest.raises(ConfigurationError, match="Byzantine budget"):
        (byz_scenario()
         .become_byzantine(1.0, "server-3", behaviour="silent")
         .crash(2.0, count=1, until=3.0)
         .build())
    # An interposed BecomeCorrect closes the window statically.
    config = (byz_scenario()
              .become_byzantine(1.0, "server-3", behaviour="silent")
              .become_correct(1.5, "server-3")
              .crash(2.0, count=1, until=3.0)
              .build())
    assert config.faults is not None


def test_group_budget_rejects_a_group_driven_below_quorum():
    with pytest.raises(ConfigurationError, match="below quorum"):
        (Scenario.hashchain().mixed(vanilla=4, hashchain=4)
         .rate(200).inject_for(5).drain(60).backend("ideal")
         .become_byzantine(1.0, count=3, until=3.0)
         .build())
    # With a lower declared tolerance the quorum shrinks and each group can
    # afford one faulty server, so the same-shaped schedule builds.
    config = (Scenario.hashchain().mixed(vanilla=4, hashchain=4)
              .byzantine(f=1)
              .rate(200).inject_for(5).drain(60).backend("ideal")
              .become_byzantine(1.0, count=1, until=3.0)
              .build())
    assert config.setchain.quorum == 2


def test_budget_counts_named_nodes_even_with_a_region_selector():
    """Review regression: explicit nodes win over region at apply time
    (resolve ignores region when nodes are given), so the static validator
    must count them the same way — filtering named nodes by a region that
    matches nothing waved a Byzantine majority through."""
    with pytest.raises(ConfigurationError, match="Byzantine budget"):
        (Scenario.hashchain().rate(200).collector(20)
         .inject_for(5).drain(60).backend("ideal")
         .become_byzantine(1.0, "server-0", "server-1", "server-2",
                           "server-3", "server-4",
                           region="eu-west", until=3.0)
         .build())


def test_crash_only_instants_keep_the_crash_exemption():
    """Review regression: a deliberate beyond-f crash window (liveness-only
    experiment) must stay legal even when the same timeline turns a server
    Byzantine at some *other*, non-overlapping instant."""
    config = (Scenario.hashchain().rate(200).collector(20)
              .inject_for(5).drain(60).backend("ideal")
              .become_byzantine(1.0, count=1, until=2.0)
              .crash(3.0, count=5, until=4.0)  # beyond f=4, but Byzantine-free
              .build())
    assert config.faults is not None
    # The same crash window overlapping the Byzantine one is rejected.
    with pytest.raises(ConfigurationError, match="Byzantine budget"):
        (Scenario.hashchain().rate(200).collector(20)
         .inject_for(5).drain(60).backend("ideal")
         .become_byzantine(1.0, count=1, until=4.0)
         .crash(3.0, count=5, until=5.0)
         .build())


def test_validator_targets_never_consume_the_server_budget():
    config = (byz_scenario()
              .become_byzantine(1.0, "server-3", behaviour="silent", until=2.0)
              .churn(1.0, until=3.0, period=1.0, count=3, role="validators")
              .build())
    assert config.faults is not None and len(config.faults.events) == 2


# -- builder / session sugar ----------------------------------------------------


def test_builder_sugar_builds_events_and_round_trips():
    config = (byz_scenario()
              .become_byzantine(1.0, "server-3", behaviour="withhold",
                                until=2.0)
              .become_correct(3.0, "server-3")
              .build())
    events = config.faults.events
    assert [type(e) for e in events] == [BecomeByzantine, BecomeCorrect]
    assert events[0].behaviour == "withhold"
    rebuilt = Scenario.from_config(config).build()
    assert rebuilt == config
    # ...and through the RunResult config echo.
    result = run(config)
    assert result.experiment_config().faults == config.faults
    again = RunResult.from_json(result.to_json())
    assert again == result


def test_session_become_byzantine_validates_names():
    with byz_scenario().session() as session:
        session.run_for(0.5)
        with pytest.raises(ConfigurationError, match="unknown node"):
            session.apply(BecomeByzantine(
                targets=Targets(nodes=("no-such-server",))))
        with pytest.raises(ConfigurationError, match="withhold"):
            BecomeByzantine(behaviour="withold")


# -- catalog family, goldens, and byte-identity ---------------------------------


def test_catalog_has_a_byz_family_that_builds():
    names = scenario_names(contains="byz/")
    assert len(names) >= 15
    behaviours_seen = set()
    for name in names:
        config = get_scenario(name)
        assert config.faults is not None and config.faults.events
        for event in config.faults.events:
            if isinstance(event, BecomeByzantine):
                behaviours_seen.add(event.behaviour)
    assert behaviours_seen == set(BEHAVIOURS)


@pytest.mark.parametrize("scenario,artifact", BYZ_GOLDEN_RUNS)
def test_byz_scenarios_are_byte_identical_to_goldens(scenario, artifact):
    reset_run_counters()
    result = run(scenario, seed=7)
    golden = (GOLDEN_DIR / artifact).read_text()
    assert result.to_json() + "\n" == golden


def test_same_byz_seed_same_json_regardless_of_jobs():
    specs = [RunSpec(name="byz/smoke", seed=7),
             RunSpec(name="byz/golden/vanilla-silent", seed=7)]
    serial = [result.to_json() for result in run_specs(specs, jobs=1)]
    parallel = [result.to_json() for result in run_specs(specs, jobs=4)]
    assert serial == parallel


def test_report_cli_renders_byzantine_attribution_table(tmp_path, capsys):
    reset_run_counters()
    result = run("byz/smoke", seed=7)
    artifact = tmp_path / "byz.json"
    result.save(artifact)
    assert main(["report", str(artifact)]) == 0
    out = capsys.readouterr().out
    assert "byzantine attribution (adversarial runs)" in out
    assert "withheld" in out
