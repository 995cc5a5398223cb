"""The fault-injection subsystem: DSL, kind table, injector, crash recovery,
resilience metrics, and determinism guarantees."""

import inspect
import json
from unittest import mock

import pytest

from repro.api import Scenario, Session, run
from repro.api.catalog import select
from repro.api.parallel import RunSpec, iter_spec_results, reset_run_counters
from repro.config import ExperimentConfig, FaultScheduleConfig
from repro.core.deployment import build_deployment
from repro.errors import ConfigurationError
from repro.faults import (
    FAULT_KINDS,
    BecomeByzantine,
    BecomeCorrect,
    Churn,
    Crash,
    DelaySpike,
    Duplicate,
    FaultEvent,
    Heal,
    MessageLoss,
    Partition,
    Recover,
    Targets,
)


SERVER_3 = Targets(nodes=("server-3",))


def chaos_scenario():
    """A small, fast chaos config over the ideal ledger."""
    return (Scenario.hashchain().servers(4).rate(200).collector(20)
            .inject_for(5).drain(60).backend("ideal"))


# -- DSL validation ------------------------------------------------------------


def test_event_time_validation():
    with pytest.raises(ConfigurationError):
        Crash(at=-1.0)
    with pytest.raises(ConfigurationError):
        Crash(at=5.0, until=5.0)
    with pytest.raises(ConfigurationError):
        Crash(at=5.0, until=4.0)


def test_target_role_did_you_mean():
    with pytest.raises(ConfigurationError, match="did you mean 'servers'"):
        Targets(role="server")


def test_rate_and_churn_validation():
    with pytest.raises(ConfigurationError):
        MessageLoss(rate=0.0)
    with pytest.raises(ConfigurationError):
        Duplicate(rate=1.5)
    with pytest.raises(ConfigurationError):
        Churn(at=0.0, period=5.0)  # churn needs an until
    with pytest.raises(ConfigurationError):
        Churn(at=0.0, until=10.0, period=0.0)
    with pytest.raises(ConfigurationError):
        Partition(at=0.0, period=1.0)  # flapping needs an until
    with pytest.raises(ConfigurationError):
        DelaySpike(extra_ms=-5.0)


def test_schedule_rejects_non_events():
    with pytest.raises(ConfigurationError):
        FaultScheduleConfig(events=("partition",))  # type: ignore[arg-type]
    with pytest.raises(ConfigurationError):
        FaultScheduleConfig(availability_window=0.0)


def test_schedule_last_time_and_extended():
    schedule = FaultScheduleConfig(events=(Crash(at=3.0, until=9.0),))
    assert schedule.last_time == 9.0
    extended = FaultScheduleConfig(events=schedule.events + (Heal(at=20.0),))
    assert extended.last_time == 20.0
    assert len(extended.events) == 2 and not schedule.events == extended.events


# -- serialisation -------------------------------------------------------------


def test_schedule_round_trips_through_json_for_every_builtin_kind():
    schedule = FaultScheduleConfig(events=(
        Partition(at=1.0, until=2.0, group=Targets(role="servers", count=2)),
        Partition(at=3.0, until=9.0, period=2.0,
                  group=Targets(region="eu", role="all")),
        Heal(at=2.5),
        Crash(at=4.0, until=5.0, targets=Targets(nodes=("server-1",))),
        Recover(at=5.5, targets=Targets(nodes=("server-1",))),
        MessageLoss(at=0.0, until=6.0, rate=0.05),
        Duplicate(at=0.0, rate=0.01,
                  targets=Targets(role="validators")),
        DelaySpike(at=1.0, until=4.0, extra_ms=250.0, jitter_ms=50.0),
        Churn(at=2.0, until=8.0, period=2.0, count=1),
        BecomeByzantine(at=6.0, until=7.0, behaviour="withhold",
                        targets=Targets(nodes=("server-2",))),
        BecomeCorrect(at=7.5, targets=Targets(nodes=("server-2",))),
    ), availability_window=2.5)
    wire = json.loads(json.dumps(schedule.to_dict()))
    assert FaultScheduleConfig.from_dict(wire) == schedule


def test_schedule_from_dict_rejects_unknown_kind_with_did_you_mean():
    with pytest.raises(ConfigurationError, match="partition"):
        FaultScheduleConfig.from_dict(
            {"events": [{"kind": "partitoin", "at": 1.0}]})
    with pytest.raises(ConfigurationError, match="kind"):
        FaultScheduleConfig.from_dict({"events": [{"at": 1.0}]})


def test_event_from_dict_rejects_unknown_fields():
    with pytest.raises(ConfigurationError, match="unknown 'crash' fault"):
        Crash.from_dict({"at": 1.0, "atx": 2.0})


def test_all_builtin_kinds_registered():
    assert set(FAULT_KINDS) == {"partition", "heal", "crash", "recover",
                                "message-loss", "duplicate", "delay-spike",
                                "churn", "become-byzantine", "become-correct",
                                "join", "leave"}


def test_kind_tables_hold_every_concrete_class():
    """A class left out of ``FAULT_KINDS``/``BEHAVIOURS`` would silently
    fail to deserialize or resolve."""
    from repro.core import byzantine
    from repro.faults import events

    def subclasses(module, base):
        return {cls for _, cls in inspect.getmembers(module, inspect.isclass)
                if issubclass(cls, base) and cls is not base}

    assert set(FAULT_KINDS.values()) == subclasses(events, FaultEvent)
    assert set(byzantine.BEHAVIOURS.values()) == subclasses(
        byzantine, byzantine.ByzantineBehaviour)


def test_unknown_fault_kind_lookup_gets_did_you_mean():
    from repro.errors import check_name
    with pytest.raises(ConfigurationError,
                       match="did you mean 'become-byzantine'"):
        check_name("fault kind", "become-byzantin", FAULT_KINDS)
    assert check_name("fault kind", "crash", FAULT_KINDS) is Crash


# -- fault kinds outside the package -------------------------------------------


def test_third_party_fault_event_runs_end_to_end():
    from dataclasses import dataclass
    from typing import ClassVar

    applied = []

    @dataclass(frozen=True, kw_only=True)
    class Probe(FaultEvent):
        kind: ClassVar[str] = "test-probe"
        note: str = "hello"

        def apply(self, ctx):
            applied.append((ctx.sim.now, self.note, ctx.server_names()))
            ctx.record(self.kind, note=self.note)

    with mock.patch.dict(FAULT_KINDS, {Probe.kind: Probe}):
        config = chaos_scenario().faults(Probe(at=1.5, note="chaos")).build()
        result = run(config)
        assert applied == [(1.5, "chaos",
                            ["server-0", "server-1", "server-2", "server-3"])]
        assert result.faults is not None
        assert result.faults["events"][0]["kind"] == "test-probe"
        # Serialisation round-trips through the kind table.
        echo = result.experiment_config()
        assert echo.faults == config.faults


# -- builder wiring ------------------------------------------------------------


def test_builder_faults_methods_compose_and_fork():
    base = chaos_scenario()
    chaotic = base.crash(1.0, "server-0", until=2.0).loss(0.05, 2.0, until=3.0)
    assert base.build().faults is None  # builders are immutable forks
    config = chaotic.build()
    assert config.faults is not None
    assert [type(e) for e in config.faults.events] == [Crash, MessageLoss]


def test_builder_from_config_round_trips_faults():
    config = (chaos_scenario()
              .partition(1.0, until=2.0, count=1)
              .churn(2.0, until=4.0, period=1.0)
              .faults(window=2.0).build())
    rebuilt = Scenario.from_config(config).build()
    assert rebuilt.faults == config.faults
    assert rebuilt == config


def test_builder_rejects_non_event_faults():
    with pytest.raises(ConfigurationError):
        Scenario.hashchain().faults("partition")  # type: ignore[arg-type]


def test_experiment_config_rejects_wrong_faults_type():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(faults=("nope",))  # type: ignore[arg-type]


# -- injector target resolution ------------------------------------------------


def test_injector_resolves_roles_regions_and_counts():
    config = (Scenario.hashchain().region("us", 2).region("eu", 2)
              .wan(inter_ms=30, jitter_ms=5).rate(200).collector(20)
              .inject_for(5).drain(30)
              .crash(1.0, until=2.0)  # any schedule enables the injector
              .build())
    deployment = build_deployment(config)
    ctx = deployment.fault_injector.context
    assert ctx.resolve(Targets(role="servers")) == [
        "server-0", "server-1", "server-2", "server-3"]
    validators = ctx.resolve(Targets(role="validators"))
    assert len(validators) == 4 and all(v.startswith("cometbft") for v in validators)
    # Region selection includes co-located validators under role "all".
    eu = ctx.resolve(Targets(region="eu", role="all"))
    assert [n for n in eu if n.startswith("server")] == ["server-2", "server-3"]
    assert len(eu) == 4
    # Random subsets are deterministic per seed.
    pick = ctx.resolve(Targets(role="servers", count=2))
    again = build_deployment(config).fault_injector.context.resolve(
        Targets(role="servers", count=2))
    assert pick == again and len(pick) == 2
    with pytest.raises(ConfigurationError, match="unknown node"):
        ctx.resolve(Targets(nodes=("server-9",)))


# -- crash/recovery semantics --------------------------------------------------


def test_crashed_server_rejects_adds_and_replays_missed_blocks():
    config = chaos_scenario().build()
    deployment = build_deployment(config)
    deployment.start()
    deployment.sim.run_until(1.0)
    server = deployment.servers[3]
    deployment.apply(Crash(targets=SERVER_3))
    assert server.crashed
    blocks_before = server.blocks_processed
    deployment.sim.run_until(3.0)
    assert server.crashed_rejects > 0
    assert server.blocks_processed == blocks_before  # buffering, not processing
    assert server._missed_blocks  # the co-located ledger kept finalising
    deployment.apply(Recover(targets=SERVER_3))
    assert not server.crashed
    deployment.run()
    assert server.blocks_processed > blocks_before
    assert not server._missed_blocks


def test_crash_recover_round_trips_hashchain_batch_recovery():
    """A recovered server replays the missed ledger and pulls the batch
    contents it never saw through the peer Request_batch path (the paper's
    hash-reversal recovery, lines 26-34)."""
    config = chaos_scenario().build()
    deployment = build_deployment(config)
    deployment.start()
    deployment.sim.run_until(1.0)
    server = deployment.servers[3]
    requests_before = server.batch_requests_sent
    deployment.apply(Crash(targets=SERVER_3))
    deployment.sim.run_until(3.5)  # peers keep flushing batches meanwhile
    deployment.apply(Recover(targets=SERVER_3))
    deployment.run_to_completion()
    assert server.batch_requests_sent > requests_before
    assert deployment.metrics.hash_reversal_success > 0
    # The recovered server converges on the epoch sequence (it may keep
    # elements it lost in its crashed collector in the_set forever — it is a
    # faulty process; the paper's guarantees are for correct servers).
    views = {s.name: s.get() for s in deployment.servers}
    epochs = {view.epoch for view in views.values()}
    assert len(epochs) == 1 and epochs != {0}
    from repro.core.properties import check_all
    correct = {name: view for name, view in views.items() if name != "server-3"}
    violations = check_all(correct, quorum=config.setchain.quorum,
                           all_added=deployment.injected_elements)
    assert violations == []


def test_crashed_hashchain_server_loses_collector_contents():
    config = chaos_scenario().build()
    deployment = build_deployment(config)
    deployment.start()
    deployment.sim.run_until(1.05)  # mid-collector fill
    server = deployment.servers[0]
    server.collector.add(object())
    assert len(server.collector.pending) > 0
    server.crash()
    assert len(server.collector.pending) == 0


def test_cometbft_validator_crash_and_blocksync_recovery():
    config = (Scenario.hashchain().servers(4).rate(300).collector(20)
              .inject_for(8).drain(60)
              .build())
    deployment = build_deployment(config)
    deployment.start()
    deployment.sim.run_until(2.0)
    backend = deployment.ledger_backend
    victim = backend.nodes["cometbft-3"]
    validator = Targets(nodes=("cometbft-3",))
    deployment.apply(Crash(targets=validator))
    assert victim.crashed
    deployment.sim.run_until(6.0)
    peers_height = max(len(n.committed_blocks) for n in backend.node_list())
    assert peers_height > len(victim.committed_blocks)
    deployment.apply(Recover(targets=validator))
    assert not victim.crashed
    # Block-sync caught the victim up to the best live peer instantly.
    assert len(victim.committed_blocks) >= peers_height
    heights = [b.height for b in victim.committed_blocks]
    assert heights == sorted(heights) == list(range(1, len(heights) + 1))
    deployment.run()
    assert backend.min_committed_height() > peers_height


def test_network_counts_traffic_to_crashed_nodes_as_dropped():
    config = chaos_scenario().build()
    deployment = build_deployment(config)
    deployment.start()
    deployment.sim.run_until(1.0)
    dropped_before = deployment.network.messages_dropped
    deployment.apply(Crash(targets=Targets(nodes=("server-1",))))
    # Force a direct send into the crashed node.
    deployment.servers[0].send("server-1", "request_batch", "h", size_bytes=10)
    deployment.sim.run_until(1.5)
    assert deployment.network.messages_dropped > dropped_before


# -- end-to-end runs and artifacts ---------------------------------------------


def test_chaos_smoke_runs_and_reports_resilience():
    result = run("chaos/smoke")
    assert result.faults is not None
    report = result.faults
    assert report["schedule_events"] == 2
    kinds = [event["kind"] for event in report["events"]]
    assert kinds == ["crash", "partition"]
    assert report["rejected_while_crashed"] > 0
    assert report["availability"]["windows"]
    for window in report["availability"]["windows"]:
        assert 0.0 <= window["availability"] <= 1.0
    # Faults cost something but the cluster still commits most elements.
    assert result.committed_fraction > 0.8
    # The artifact round-trips exactly, faults included.
    from repro.api import RunResult
    assert RunResult.from_json(result.to_json()) == result


def test_fault_free_artifacts_omit_the_faults_key():
    result = run("smoke")
    assert result.faults is None
    data = result.to_dict()
    assert "faults" not in data
    assert "faults" not in data["config"]


def test_catalog_has_at_least_twenty_chaos_scenarios_that_build():
    entries = select(contains="chaos/")
    assert len(entries) >= 20
    for entry in entries:
        config = entry.build()
        assert config.faults is not None and config.faults.events


def test_same_chaos_seed_same_json_regardless_of_jobs():
    specs = [RunSpec(name="chaos/smoke", seed=7)]
    serial = [result.to_json() for result in iter_spec_results(specs, jobs=1)]
    parallel = [result.to_json() for result in iter_spec_results(specs, jobs=4)]
    assert serial == parallel


def test_run_with_schedule_is_deterministic_in_process():
    config = (chaos_scenario()
              .partition(1.0, until=3.0, count=2)
              .loss(0.05, 0.5, until=4.0)
              .build())
    first = run(config).to_json()
    second = run(config).to_json()
    assert first == second


def test_flapping_partition_reroll_heals_between_cycles():
    config = (chaos_scenario()
              .partition(1.0, until=3.0, count=1, role="servers", period=0.5)
              .build())
    deployment = Session(config).start().run().deployment
    report = deployment.fault_injector.report()
    partitions = [e for e in report["events"] if e["kind"] == "partition"]
    assert len(partitions) >= 3  # re-rolled several times
    assert not deployment.network._partitions  # healed at the end


def test_churn_recovers_every_victim_by_the_end():
    config = (chaos_scenario()
              .churn(1.0, until=3.0, period=0.5, count=1)
              .build())
    deployment = Session(config).start().run().deployment
    assert all(not server.crashed for server in deployment.servers)
    report = deployment.fault_injector.report()
    churns = [e for e in report["events"] if e["kind"] == "churn"]
    assert len(churns) >= 3


def test_duplicate_and_delay_events_affect_the_network():
    config = (chaos_scenario()
              .duplicates(0.5, 0.0, until=5.0)
              .delay_spike(100.0, 0.0, until=5.0, jitter_ms=20.0)
              .build())
    deployment = Session(config).start().run().deployment
    assert deployment.network.messages_duplicated > 0
    report = deployment.fault_injector.report()
    assert report["messages_duplicated"] == deployment.network.messages_duplicated


def test_deployment_crash_dispatch_rejects_unknown_names():
    deployment = build_deployment(chaos_scenario().build())
    with pytest.raises(ConfigurationError, match="unknown node"):
        deployment.apply(Crash(targets=Targets(nodes=("no-such-node",))))
    assert deployment.fault_injector.applied == []


def test_apply_refuses_future_and_finished_events_before_applying_any():
    deployment = build_deployment(chaos_scenario().build())
    deployment.start()
    deployment.sim.run_until(2.0)
    crash = Crash(targets=SERVER_3)
    for late in (Crash(at=2.5, targets=SERVER_3),
                 Crash(at=1.0, until=2.0, targets=SERVER_3)):
        with pytest.raises(ConfigurationError, match="cannot be applied"):
            deployment.apply(crash, late)
        assert not deployment.servers[3].crashed


def test_session_interactive_chaos_helpers():
    with chaos_scenario().session() as session:
        session.run_for(1.0)
        server_2 = Targets(nodes=("server-2",))
        (entry,) = session.apply(Crash(targets=server_2))
        assert entry == {"at": 1.0, "kind": "crash", "targets": ["server-2"]}
        assert session.crashed_nodes() == ["server-2"]
        session.apply(Partition(group=Targets(nodes=("server-0",))))
        session.run_for(1.0)
        session.apply(Heal(), Recover(targets=server_2))
        assert session.crashed_nodes() == []
        # Interactive partitions adopt the schedule's semantics: a cut with
        # an empty side is skipped and recorded instead of raising.
        (skipped,) = session.apply(Partition(group=Targets(role="all")))
        assert "skipped" in skipped["note"]
        session.run_to_completion()
        assert session.committed_fraction > 0.5
        events = session.result().faults["events"]
    assert [(e["kind"], e["at"], e.get("until")) for e in events] == [
        ("crash", 1.0, 2.0), ("partition", 1.0, 2.0), ("heal", 2.0, None),
        ("recover", 2.0, None), ("partition", 2.0, None)]


def _one_second_crash(*events):
    config = (Scenario.hashchain().servers(4).rate(200).collector(20)
              .inject_for(5).drain(40).backend("ideal").faults(*events)
              .build())
    reset_run_counters()
    return run(config, seed=7).faults


def test_explicit_recover_closes_the_open_crash_window():
    """An open-ended crash ended by an explicit Recover is the same fault
    window as a crash with an ``until``: same during-faults latency, same
    recovery entry, same availability."""
    server_2 = Targets(nodes=("server-2",))
    spelled_out = _one_second_crash(Crash(at=1.0, targets=server_2),
                                    Recover(at=2.0, targets=server_2))
    windowed = _one_second_crash(Crash(at=1.0, until=2.0, targets=server_2))
    for key in ("commit_latency_s", "recovery", "availability"):
        assert spelled_out[key] == windowed[key], key
    assert [entry["healed_at"] for entry in windowed["recovery"]] == [2.0]


def test_recover_closes_a_crash_window_only_with_its_last_node():
    deployment = build_deployment(chaos_scenario().build())
    deployment.start()
    deployment.sim.run_until(1.0)
    deployment.apply(Crash(targets=Targets(nodes=("server-2", "server-3"))))
    deployment.sim.run_until(2.0)
    deployment.apply(Recover(targets=Targets(nodes=("server-2",))))
    (window,) = deployment.fault_injector._windows
    assert "until" not in window  # server-3 is still down
    deployment.sim.run_until(3.0)
    deployment.apply(Recover(targets=SERVER_3))
    assert window["until"] == 3.0


def test_explicit_reversion_and_heal_close_their_open_windows():
    deployment = build_deployment(chaos_scenario().build())
    deployment.start()
    deployment.sim.run_until(1.0)
    deployment.apply(BecomeByzantine(targets=SERVER_3, behaviour="withhold"),
                     Partition(group=Targets(nodes=("server-0",))))
    deployment.sim.run_until(1.5)
    deployment.apply(BecomeCorrect(targets=SERVER_3), Heal())
    assert [(w["kind"], w["until"])
            for w in deployment.fault_injector._windows] == [
        ("become-byzantine", 1.5), ("partition", 1.5)]


def test_message_fault_rule_matches_exactly_the_recorded_targets():
    """Regression: MessageLoss resolved its selector twice, so the installed
    rule and the recorded timeline could name different random subsets."""
    config = (Scenario.hashchain().servers(6).rate(100).collector(10)
              .inject_for(3).drain(20).backend("ideal")
              .faults(MessageLoss(at=0.0, until=2.0, rate=1.0,
                                  targets=Targets(role="servers", count=2)))
              .build())
    deployment = build_deployment(config)
    deployment.start()
    deployment.sim.run_until(0.0)  # apply the t=0 event
    recorded = deployment.fault_injector.applied[0]["targets"]
    rule = deployment.network._drop_rules[0]
    from repro.net.message import Message
    for name in recorded:
        assert rule(Message(sender=name, recipient="server-x",
                            msg_type="t", payload=None))
    unrecorded = [s.name for s in deployment.servers if s.name not in recorded]
    for name in unrecorded:
        assert not rule(Message(sender=name, recipient=name,
                                msg_type="t", payload=None))


def test_instantaneous_events_do_not_open_fault_windows():
    """Regression: Heal/Recover entries (no until) counted the whole rest of
    the run as 'during faults' in the commit-latency split."""
    config = (chaos_scenario()
              .partition(1.0, until=1.5, count=1, role="servers")
              .faults(Heal(at=2.0))
              .build())
    deployment = Session(config).start().run().deployment
    injector = deployment.fault_injector
    # Two applied entries (partition + heal) but only one fault window.
    assert len(injector.applied) == 2
    assert injector._windows == [injector.applied[0]]
    assert injector.applied[0]["until"] == 1.5
    report = injector.report()
    # Elements injected after t=1.5 land in the fault-free bucket.
    assert report["commit_latency_s"]["fault_free"] is not None


def test_crash_replays_blocks_interrupted_mid_pipeline():
    """Regression: blocks already delivered but still queued in the serial
    pipeline were wiped by a crash instead of joining the replay."""
    config = chaos_scenario().build()
    deployment = build_deployment(config)
    deployment.start()
    server = deployment.servers[0]
    # Advance until the server has in-flight pipeline work, then crash it.
    while server.backlog == 0 and deployment.sim.now < 30.0:
        deployment.sim.step()
    assert server.backlog > 0
    interrupted = {id(block) for block, _txs in server._blocks}
    server.crash()
    assert not server._blocks and server.backlog == 0  # pipeline wiped
    replay_ids = {id(block) for block in server._missed_blocks}
    assert interrupted <= replay_ids  # ...but the blocks will be replayed
    server.recover()
    deployment.run()
    views = {s.name: s.get() for s in deployment.servers}
    assert views["server-0"].epoch == views["server-1"].epoch != 0


def test_builder_loss_honours_bare_role():
    config = chaos_scenario().loss(0.05, role="validators").build()
    event = config.faults.events[0]
    assert event.targets is not None and event.targets.role == "validators"


def test_schedule_past_run_horizon_is_rejected():
    with pytest.raises(ConfigurationError, match="never fire"):
        (Scenario.hashchain().inject_for(5).drain(10)
         .crash(1.0, until=30.0).build())


def test_stale_pipeline_continuation_dies_across_crash_recover():
    """Regression: a queued _process_next continuation survived crash->recover
    and ran a second concurrent chain through the strictly-serial pipeline."""
    config = chaos_scenario().build()
    deployment = build_deployment(config)
    deployment.start()
    server = deployment.servers[0]
    while server.backlog == 0 and deployment.sim.now < 30.0:
        deployment.sim.step()
    run_before = server._pipeline_run
    server.crash()
    assert server._pipeline_run == run_before + 1
    server.recover()
    deployment.run()
    # A doubled pipeline would break the serial-service accounting; the
    # cheapest observable invariant: the pipeline fully drains exactly once.
    assert server.backlog == 0 and server.pipeline_idle
    views = deployment.views()
    assert views["server-0"].epoch == views["server-1"].epoch != 0


def test_churn_does_not_recover_another_faults_victim():
    """Regression: churn could sample an already-crashed node and 'recover'
    it long before the owning Crash event's window ended."""
    config = (chaos_scenario()
              .crash(0.5, "server-0", until=4.0)
              .churn(1.0, until=3.0, period=0.5, count=3)
              .build())
    deployment = build_deployment(config)
    deployment.start()
    deployment.sim.run_until(3.5)
    # Churn is over; the Crash victim must still be down until t=4.
    assert deployment.servers[0].crashed
    for entry in deployment.fault_injector.applied:
        if entry["kind"] == "churn":
            assert "server-0" not in entry["targets"]
    deployment.sim.run_until(4.5)
    assert not deployment.servers[0].crashed
    deployment.run()
    assert all(not s.crashed for s in deployment.servers)


def test_crash_auto_recover_skips_nodes_reclaimed_by_a_later_event():
    """Regression: Crash's scheduled auto-recover recovered its victims
    unconditionally, truncating a later overlapping crash window."""
    config = (chaos_scenario()
              .crash(1.0, "server-3", until=3.0)
              .faults(Recover(at=2.0, targets=Targets(nodes=("server-3",))))
              .crash(2.5, "server-3", until=6.0)
              .build())
    deployment = build_deployment(config)
    deployment.start()
    deployment.sim.run_until(3.5)
    # The first crash's t=3 auto-recover must not release the second claim.
    assert deployment.servers[3].crashed
    deployment.sim.run_until(6.5)
    assert not deployment.servers[3].crashed


def test_blocks_processed_not_double_counted_across_crash_replay():
    config = chaos_scenario().crash(1.0, "server-0", until=3.0).build()
    deployment = Session(config).start().run().deployment
    ledger_blocks = len(deployment.ledger_backend.blocks)
    for server in deployment.servers:
        assert server.blocks_processed == ledger_blocks


def test_overlapping_partitions_on_the_same_cut_refcount():
    """Regression: two Partition events sharing one idempotent cut let the
    first event's heal remove it for both."""
    config = (chaos_scenario()
              .partition(1.0, until=4.0, nodes=("server-0",))
              .partition(2.0, until=3.0, nodes=("server-0",))
              .build())
    deployment = build_deployment(config)
    deployment.start()
    deployment.sim.run_until(3.5)
    # The inner event healed at t=3 but the outer claim holds until t=4.
    assert deployment.network._partitions
    deployment.sim.run_until(4.5)
    assert not deployment.network._partitions


def test_lossy_links_cannot_wedge_block_production():
    """Regression: a proposal (or commit-completing vote) lost to message
    loss left straggler validators waiting forever — no re-request path —
    and their permanently-unheard votes then kept the head round 'not
    provably dead', wedging block production cluster-wide with full
    mempools.  Peer catch-up (gap >= 2) plus stuck-round re-gossip bound
    the stall; every validator must converge to one chain head."""
    config = (Scenario.hashchain().rate(2_000)
              .partition(8.0, until=16.0,
                         nodes=("server-2", "server-4", "server-7"))
              .crash(20.0, "server-8", until=30.0)
              .loss(0.02)
              .build())
    deployment = Session(config, scale=25).start().run().deployment
    heights = [len(node.committed_blocks)
               for node in deployment.ledger_backend.node_list()]
    assert min(heights) == max(heights) > 20
    assert deployment.committed_fraction > 0.9


def test_crash_on_already_downed_target_opens_no_window():
    """Regression: a Crash whose targets were all filtered out still recorded
    an active fault window (and scheduled a bogus recovery)."""
    config = (chaos_scenario()
              .crash(1.0, "server-3", until=4.0)
              .crash(2.0, "server-3", until=2.5)
              .build())
    deployment = build_deployment(config)
    deployment.start()
    deployment.sim.run_until(3.0)
    assert deployment.servers[3].crashed  # the t=2.5 release was a no-op
    injector = deployment.fault_injector
    skipped = [e for e in injector.applied if "skipped" in e.get("note", "")]
    assert len(skipped) == 1 and skipped[0]["at"] == 2.0
    assert [(w["at"], w["until"]) for w in injector._windows] == [(1.0, 4.0)]
    deployment.sim.run_until(4.5)
    assert not deployment.servers[3].crashed


def test_interactive_faults_twin_their_schedule():
    """The same two events, scheduled in the scenario or passed to
    ``Session.apply`` at their instants, give the same run and the same
    ``RunResult`` — faults block included — apart from the config echo and
    the schedule length.  The instants are shared by no client tick or
    block, so both spellings order the simulator's events alike."""
    base = (Scenario.hashchain().servers(4).rate(200)
            .inject_for(5).drain(40).backend("ideal"))
    scheduled = (base.crash(1.037, "server-2", until=3.037)
                 .become_byzantine(3.5371, "server-1", behaviour="withhold",
                                   until=4.5371).build())

    def artifact(session):
        data = json.loads(session.run().result().to_json())
        del data["config"], data["faults"]["schedule_events"]
        return data

    reset_run_counters()
    expected = artifact(Session(scheduled, seed=7).start())
    reset_run_counters()
    session = Session(base.build(), seed=7).start()
    for event in scheduled.faults.events:
        session.run_until(event.at)
        session.apply(event)
    assert artifact(session) == expected
    assert [e["kind"] for e in expected["faults"]["events"]] == [
        "crash", "become-byzantine"]
