"""Dynamic membership: runtime join/leave, state transfer, epoch-aware quorums.

Pinned regressions for PR 7's tentpole: the ``member/`` catalog family, the
elastic service drill (commit ratio and join-to-first-commit), joined-server
convergence under Properties 1-8, the time-varying fault budget (schedules
legal only because a Join lands before a Crash), the membership journal in
durable ledgers, and the epoch-aware ``/healthz`` payload.
"""

import dataclasses
import json
import sqlite3

import pytest

from repro.api import Scenario, Session, run
from repro.api.cli import main as repro_main
from repro.core.properties import check_all
from repro.errors import ConfigurationError, LedgerError
from repro.faults import Join, Leave, Partition, Recover, Targets
from repro.service.persistence import audit_chain
from repro.service.runtime import ServiceRuntime


@pytest.fixture(scope="module")
def elastic_result():
    """One run of the elastic service drill, shared across its assertions."""
    return run("member/service/elastic")


# -- the elastic drill: grow under load, drain one out --------------------------


def test_elastic_scenario_commit_ratio_at_least_90_percent(elastic_result):
    assert elastic_result.committed_fraction >= 0.90


def test_elastic_scenario_records_membership_timeline(elastic_result):
    block = elastic_result.membership
    assert block is not None
    assert [epoch["index"] for epoch in block["epochs"]] == [1, 2, 3, 4]
    assert [epoch["reason"] for epoch in block["epochs"]] == [
        "initial", "join", "join", "leave"]
    # Activation heights step forward (two-block delay from each change).
    heights = [epoch["effective_height"] for epoch in block["epochs"]]
    assert heights == sorted(heights)
    assert len(block["joins"]) == 2
    for entry in block["joins"]:
        assert entry["catch_up_s"] is not None and entry["catch_up_s"] >= 0
        assert entry["join_to_first_commit_s"] is not None
    (leave,) = block["leaves"]
    assert leave["node"] == "server-2"
    assert leave["drained"] is True
    assert block["current"]["size"] == 5
    assert block["current"]["quorum"] == 3


def test_elastic_membership_round_trips_through_json(elastic_result):
    data = elastic_result.to_dict()
    assert "membership" in data
    restored = type(elastic_result).from_dict(json.loads(json.dumps(data)))
    assert restored.membership == elastic_result.membership


def test_report_cli_renders_membership_table(elastic_result, tmp_path, capsys):
    path = elastic_result.save(tmp_path / "elastic.json")
    assert repro_main(["report", str(path)]) == 0
    out = capsys.readouterr().out
    assert "membership (elastic runs)" in out
    assert "5 (q=3)" in out


# -- joined servers converge (state transfer then quorum entry) -----------------


def test_joined_server_converges_to_the_cluster_view():
    config = (Scenario.hashchain().servers(4).rate(300).collector(20)
              .inject_for(5).drain(50).backend("ideal")
              .join(2.0).seed(11).build())
    deployment = Session(config).start().run().deployment
    views = {server.name: server.get() for server in deployment.servers}
    assert "server-4" in views
    joined = views["server-4"]
    original = views["server-0"]
    assert joined.the_set == original.the_set
    assert joined.epoch == original.epoch
    assert all(joined.history[e] == original.history[e]
               for e in original.history)
    log = deployment.membership
    quorum = min(epoch.quorum for epoch in log.epochs)
    violations = check_all(views, quorum=quorum,
                           all_added=deployment.injected_elements,
                           include_liveness=True)
    assert violations == []


def test_drained_leave_is_not_a_crash():
    config = (Scenario.hashchain().servers(5).rate(300).collector(20)
              .inject_for(5).drain(50).backend("ideal")
              .leave(2.5, "server-3").seed(7).build())
    deployment = Session(config).start().run().deployment
    departed = next(s for s in deployment.departed_servers
                    if s.name == "server-3")
    assert departed.departed and not departed.crashed
    assert departed.retired_at is not None
    block = deployment.membership.report()
    (leave,) = block["leaves"]
    assert leave["drained"] is True
    # Everything accepted before the drain still commits at the survivors.
    survivors = {s.name: s.get() for s in deployment.servers
                 if s.name != "server-3"}
    quorum = min(epoch.quorum for epoch in deployment.membership.epochs)
    assert check_all(survivors, quorum=quorum,
                     all_added=deployment.injected_elements,
                     include_liveness=True) == []


def test_cometbft_join_changes_validator_set_at_block_boundary():
    config = (Scenario.hashchain().servers(4).rate(200).collector(20)
              .inject_for(4).drain(40)
              .join(1.5).leave(3.0, "server-2").seed(3).build())
    deployment = Session(config).start().run().deployment
    block = deployment.membership.report()
    epochs = block["validator_epochs"]
    assert len(epochs) >= 3  # initial + join + leave
    names = [set(epoch["members"]) for epoch in epochs]
    assert "cometbft-4" in names[1] - names[0]  # the joiner's validator
    assert any("cometbft-2" in earlier - later
               for earlier, later in zip(names, names[1:]))
    # Consensus kept producing blocks across both set changes.
    assert deployment.membership.height > epochs[-1]["effective_height"]


# -- the time-varying fault budget ----------------------------------------------


def _budget_scenario(with_join: bool) -> Scenario:
    scenario = (Scenario.hashchain().servers(4).rate(300).collector(20)
                .inject_for(6).drain(50).backend("ideal"))
    if with_join:
        scenario = scenario.join(1.0)
    return (scenario
            .become_byzantine(2.0, "server-1", behaviour="withhold", until=4.0)
            .crash(2.5, "server-2", until=3.5))


def test_schedule_legal_only_because_join_lands_before_crash():
    # n=4 tolerates f=1: one Byzantine plus one crashed server busts the
    # budget — unless the t=1 s join has already grown the set to n=5 (f=2).
    _budget_scenario(with_join=True).build()
    with pytest.raises(ConfigurationError) as excinfo:
        _budget_scenario(with_join=False).build()
    message = str(excinfo.value)
    assert "Byzantine budget" in message
    assert "t=2.5" in message
    assert "1 Byzantine" in message and "1 crashed" in message


def test_budget_counts_departures_against_membership_size():
    # n=5 shrinks to n=4 (f=1) after the leave, so the same Byzantine+crash
    # pair that was legal at n=5 now exceeds the budget — and the error
    # names the departure.
    scenario = (Scenario.hashchain().servers(5).rate(300).collector(20)
                .inject_for(6).drain(50).backend("ideal")
                .leave(1.0, "server-4")
                .become_byzantine(2.0, "server-1", behaviour="silent",
                                  until=4.0)
                .crash(2.5, "server-2", until=3.5))
    with pytest.raises(ConfigurationError, match="1 departed"):
        scenario.build()


def test_join_and_leave_events_validate_their_shape():
    with pytest.raises(ConfigurationError, match="no until"):
        Join(at=1.0, until=2.0)
    with pytest.raises(ConfigurationError, match="role"):
        Join(at=1.0, role="clients")
    with pytest.raises(ConfigurationError, match="no until"):
        Leave(at=1.0, until=2.0)
    with pytest.raises(ConfigurationError, match="servers"):
        Leave(at=1.0, targets=Targets(role="validators", count=1))


_SMALL = (Scenario.hashchain().servers(4).rate(200).collector(20)
          .inject_for(4).drain(30).backend("ideal"))


@pytest.mark.parametrize("scenario, join, refusal", [
    (_SMALL, Join(algorithm="hashchian"), "unknown algorithm 'hashchian'"),
    (_SMALL, Join(region="mars"), "region 'mars' needs a topology"),
    (_SMALL.mixed(vanilla=2, hashchain=2), Join(region="mars"),
     "unknown region 'mars'"),
], ids=["algorithm", "region-without-topology", "region"])
def test_a_join_naming_an_unknown_algorithm_or_region_changes_nothing(
        scenario, join, refusal):
    with pytest.raises(ConfigurationError, match=refusal):
        scenario.faults(dataclasses.replace(join, at=2.0)).build()
    with Session(scenario, seed=5) as session:
        session.run_for(1.0)
        deployment = session.deployment
        servers = list(deployment.servers)
        with pytest.raises(ConfigurationError, match=refusal):
            session.apply(join)
        assert deployment.servers == servers
        assert deployment.membership._next_index == len(servers)
        assert not deployment.membership.changed


_SERVER_4 = Targets(nodes=("server-4",))


@pytest.mark.parametrize("late, early", [
    (Recover(at=3.0, targets=_SERVER_4), Recover(at=1.1, targets=_SERVER_4)),
    (Leave(at=3.0, targets=_SERVER_4), Leave(at=1.1, targets=_SERVER_4)),
    (Partition(at=0.5, until=3.0, period=1.0, group=_SERVER_4),
     Partition(at=1.1, group=_SERVER_4)),
], ids=["recover", "second-leave", "flapping-partition"])
def test_a_fault_naming_a_server_its_leave_may_have_retired_is_refused(
        late, early):
    # At the parent the build accepted the Recover and the run aborted at
    # t=3 s on "fault targets unknown node 'server-4'".
    scenario = _SMALL.servers(5).leave(1.0, "server-4")
    with pytest.raises(ConfigurationError, match="may have retired"):
        scenario.faults(late).build()
    # Inside the drain's first poll the leaver is still there to name.
    session = scenario.faults(early).session().start()
    session.run_to_completion()
    assert [server.name for server in session.deployment.departed_servers] \
        == ["server-4"]


@pytest.mark.parametrize("scenario, byzantine, retired_after", [
    (_SMALL.servers(5).leave(2.0, "server-4")
     .crash(2.1, "server-4", until=4.0), set(), 4.0),
    (_SMALL.servers(5).become_byzantine(1.0, "server-4", until=4.0)
     .leave(2.0, "server-4"), {"server-4"}, 2.0),
], ids=["crash-after-leave", "byzantine-before-leave"])
def test_a_fault_released_after_its_server_left_is_a_no_op(
        scenario, byzantine, retired_after):
    # A drain waits out a crash; a retired server's windows end untouched.
    session = scenario.session().start()
    session.run_to_completion()
    assert session.check_properties() == []
    deployment = session.deployment
    (leaver,) = deployment.departed_servers
    assert leaver.name == "server-4" and leaver.retired_at > retired_after
    assert deployment.byzantine_servers() == byzantine


def test_the_last_server_that_is_not_draining_never_leaves():
    session = (_SMALL.servers(2).leave(1.0, "server-0").leave(1.1, "server-1")
               .session().start())
    session.run_to_completion()
    assert [s.name for s in session.deployment.servers] == ["server-1"]
    assert session.membership()["current"]["members"] == ["server-1"]


# -- interactive membership through the Session façade --------------------------


def test_session_add_and_remove_server():
    with Session(Scenario.hashchain().servers(4).rate(200).collector(20)
                 .inject_for(4).drain(30).backend("ideal"), seed=5) as session:
        session.run_for(1.0)
        (joined,) = session.apply(Join())
        assert joined["targets"] == ["server-4"]
        session.run_for(2.0)
        report = session.membership()
        assert report["current"]["size"] == 5
        assert report["joins"][0]["node"] == "server-4"
        session.apply(Leave(targets=Targets(nodes=("server-4",))))
        session.run_for(2.0)
        report = session.membership()
        assert report["current"]["size"] == 4
        assert report["leaves"][0]["node"] == "server-4"
        # Joins and leaves land on the fault timeline like scheduled ones.
        assert [e["kind"] for e in session.result().faults["events"]] == [
            "join", "leave"]


# -- service runtime: epoch-aware health and the durable journal ----------------


def membership_runtime(**kwargs):
    scenario = (Scenario.hashchain().servers(4).rate(100).collector(10)
                .inject_for(5).drain(30).backend("ideal"))
    return ServiceRuntime(scenario, seed=5, **kwargs)


def test_healthz_tracks_the_current_membership_epoch():
    runtime = membership_runtime()
    try:
        assert runtime.healthz()["epoch"] == 1
        runtime.submit_many(100)
        runtime.run_for(1.0)
        runtime.apply(Join())
        runtime.run_for(2.0)
        health = runtime.healthz()
        assert health["epoch"] == 2
        assert health["live_servers"] == 5
        assert health["quorum"] == 3
        assert health["status"] == "ok"
        runtime.apply(Leave(targets=Targets(nodes=("server-1",))))
        runtime.run_for(2.0)
        health = runtime.healthz()
        assert health["epoch"] == 3
        assert health["live_servers"] == 4
        snapshot = runtime.metrics_snapshot()
        assert snapshot["membership"]["epoch"] == 3
        assert snapshot["membership"]["size"] == 4
    finally:
        runtime.stop()


def test_checkpoint_journals_membership_and_audit_verifies_it(tmp_path):
    db = tmp_path / "elastic.db"
    runtime = membership_runtime(db=str(db))
    try:
        runtime.submit_many(150)
        runtime.run_for(1.0)
        runtime.apply(Join())
        runtime.run_for(2.0)
        runtime.apply(Leave(targets=Targets(nodes=("server-2",))))
        runtime.run_for(3.0)
        runtime.checkpoint()
    finally:
        runtime.stop()
    audit = audit_chain(db)
    journal = audit["membership"]
    assert journal["contiguous"] is True
    assert journal["epochs"] == 3
    assert journal["joins"] == 1 and journal["leaves"] == 1
    assert "server-2" not in journal["current_members"]
    assert "server-4" in journal["current_members"]


def test_audit_rejects_a_gapped_membership_journal(tmp_path):
    db = tmp_path / "gapped.db"
    runtime = membership_runtime(db=str(db))
    try:
        runtime.submit_many(50)
        runtime.run_for(1.0)
        runtime.apply(Join())
        runtime.run_for(2.0)
        runtime.checkpoint()
    finally:
        runtime.stop()
    with sqlite3.connect(str(db)) as conn:
        conn.execute("DELETE FROM membership WHERE epoch = 1")
    with pytest.raises(LedgerError, match="non-contiguous epochs"):
        audit_chain(db)


def test_service_inspect_renders_the_membership_journal(tmp_path, capsys):
    db = tmp_path / "inspect.db"
    runtime = membership_runtime(db=str(db))
    try:
        runtime.submit_many(50)
        runtime.run_for(1.0)
        runtime.apply(Join())
        runtime.run_for(2.0)
        runtime.checkpoint()
    finally:
        runtime.stop()
    assert repro_main(["service", "inspect", str(db)]) == 0
    out = capsys.readouterr().out
    assert "membership journal" in out
    assert "epoch contiguity" in out and "yes" in out


# -- static runs stay untouched --------------------------------------------------


def test_static_runs_carry_no_membership_block():
    result = run("smoke")
    assert result.membership is None
    assert "membership" not in result.to_dict()
