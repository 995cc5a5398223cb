"""The f-budget: one predicate over the deployment's own scopes, fed by the
schedule at config time and by every crash, Byzantine turn, join and leave
applied at run time.

The static feed charges selectors their worst case; these tests pin that it
scopes by ``algorithm_group()`` (per shard, joiners included), that
interactive faults are refused by the same predicate, that the two feeds
agree exactly on schedules with distinct named targets, and that the exact
count never exceeds the static bound.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import Scenario
from repro.core.deployment import build_deployment
from repro.errors import ConfigurationError
from repro.faults import (
    BecomeByzantine,
    BecomeCorrect,
    Churn,
    Crash,
    FaultInjector,
    FaultScheduleConfig,
    Join,
    Leave,
    Recover,
    Targets,
    check_budget,
)
from repro.faults.budget import budget_states
from repro.topology import server_name


def _small(scenario):
    return (scenario.rate(100).collector(20).inject_for(8).drain(20)
            .backend("ideal"))


def _sharded(*byzantine: str):
    scenario = _small(Scenario.hashchain().servers(3).shards(2))
    for name in byzantine:
        scenario = scenario.become_byzantine(1.0, name, behaviour="equivocate",
                                             until=4.0)
    return scenario


# -- the two scope defects --------------------------------------------------------


def test_two_byzantine_servers_in_one_shard_are_refused():
    # Shard 0 is server-0..2 with its own f=1: two Byzantine signers leave
    # one correct one, below the shard's quorum of two.
    with pytest.raises(ConfigurationError,
                       match=r"'hashchain#shard0' group below quorum at t=1s"):
        _sharded("server-0", "server-1").build()


def test_one_byzantine_server_per_shard_builds_and_keeps_the_properties():
    session = _sharded("server-0", "server-3").session().start()
    session.run_to_completion()
    assert session.check_properties() == []


def _mixed_with_joiner(target: str):
    # 3 vanilla + 3 hashchain; the t=1 s joiner runs the config's algorithm
    # (hashchain), so server-5 and server-6 share one group.
    return (_small(Scenario.hashchain().mixed(vanilla=3, hashchain=3))
            .join(1.0)
            .become_byzantine(2.0, target, behaviour="silent", until=3.0))


def test_an_original_server_and_a_joiner_of_one_group_get_one_verdict():
    messages = []
    for target in ("server-5", "server-6"):
        with pytest.raises(ConfigurationError, match="below quorum") as caught:
            _mixed_with_joiner(target).build()
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    assert "'hashchain' group" in messages[0] and "of 4 member" in messages[0]


# -- interactive faults -------------------------------------------------------------


def test_interactive_byzantine_majority_is_refused_before_anything_changes():
    session = _small(Scenario.hashchain().servers(4)).session().start()
    session.run_for(1.0)
    session.apply(BecomeByzantine(targets=Targets(nodes=("server-2",))))
    applied = len(session.deployment.fault_injector.applied)
    with pytest.raises(ConfigurationError, match="Byzantine budget at t=1s"):
        session.apply(BecomeByzantine(targets=Targets(nodes=("server-3",))))
    assert session.byzantine_nodes() == ["server-2"]
    assert len(session.deployment.fault_injector.applied) == applied
    # A crash on the Byzantine server counts it once: still within f=1.
    session.apply(Crash(targets=Targets(nodes=("server-2",))))


def test_interactive_leave_that_shrinks_f_below_the_faults_is_refused():
    session = _small(Scenario.hashchain().servers(5)).session().start()
    session.run_for(1.0)
    session.apply(BecomeByzantine(targets=Targets(nodes=("server-1",))),
                  Crash(targets=Targets(nodes=("server-2",))))
    with pytest.raises(ConfigurationError, match="1 departed"):
        session.apply(Leave(targets=Targets(nodes=("server-4",))))
    assert not session.deployment.servers[4].draining


def test_a_leave_on_a_crashed_server_leaves_the_budget_and_drains_on_recovery():
    # The build charges the t=1 s leave, so n=6 (f=2) from then on.  Were
    # the run to skip the leave of the crashed server-0, n would stay 7
    # (f=3) and the t=1.5 s Byzantine turn would leave the 4-server
    # hashchain group below its quorum of 4.
    session = (_small(Scenario.hashchain().mixed(vanilla=3, hashchain=4))
               .crash(0.5, "server-0").leave(1.0, "server-0")
               .become_byzantine(1.5, "server-6", until=3.0)
               .session().start())
    session.run_for(4.0)
    events = session.deployment.fault_injector.applied
    assert [e["targets"] for e in events if e["kind"] == "leave"] == [["server-0"]]
    leaver = session.deployment.servers[0]
    assert leaver.draining and not leaver.departed
    session.apply(Recover(targets=Targets(nodes=("server-0",))))
    session.run_for(2.0)
    assert leaver.departed and leaver.retired_at > 4.0


# -- the twin: config time and run time agree on named schedules --------------------

#: Distinct instants for every ``at`` and ``until`` of a generated schedule.
_GRID = [round(0.5 + 0.25 * step, 2) for step in range(26)]


@st.composite
def _named_schedules(draw):
    """Distinct named targets: each server is hit by at most one event, and
    no instant is shared, so the static bound is exact.  The heterogeneous
    layout derives f from n: at n=8 (f=3) the hashchain group keeps its
    quorum of 4 with one Byzantine member, until a join of either algorithm
    lifts n to 9 (f=4) — or grows the group too."""
    layout = draw(st.sampled_from(["flat", "mixed", "sharded"]))
    sharded = layout == "sharded"
    if layout == "mixed":
        scenario = Scenario.hashchain().mixed(vanilla=3, hashchain=5)
        total = 8
    else:
        per_shard = 3 if sharded else draw(st.sampled_from([4, 5, 6]))
        scenario = Scenario.hashchain().servers(per_shard)
        if sharded:
            scenario = scenario.shards(2)
        elif draw(st.booleans()):
            scenario = scenario.byzantine(f=1)
        total = per_shard * (1 + sharded)
    size = draw(st.integers(2, 6))
    instants = draw(st.lists(st.sampled_from(_GRID), min_size=2 * size,
                             max_size=2 * size, unique=True))
    ats, ends = sorted(instants[:size]), instants[size:]
    originals = [server_name(i) for i in range(total)]
    unused, next_index, events = list(originals), len(originals), []
    for at, end in zip(ats, ends):
        until = end if end > at else None
        kinds = ["crash", "byzantine", "byzantine", "join"]
        kinds += [] if sharded else ["leave"]
        kind = draw(st.sampled_from(kinds))
        if kind == "join":
            algorithm = (draw(st.sampled_from(["vanilla", "hashchain"]))
                         if layout == "mixed" else None)
            events.append(Join(at=at, algorithm=algorithm))
            unused.append(server_name(next_index))
            next_index += 1
            continue
        pool = [name for name in unused
                if kind != "leave" or name in originals]
        if not pool:
            continue
        names = draw(st.lists(st.sampled_from(pool), min_size=1,
                              max_size=1 if kind == "leave" else 2,
                              unique=True))
        for name in names:
            unused.remove(name)
        targets = Targets(nodes=tuple(names))
        if kind == "crash":
            events.append(Crash(at=at, until=until, targets=targets))
        elif kind == "byzantine":
            events.append(BecomeByzantine(at=at, until=until, targets=targets))
        else:
            events.append(Leave(at=at, targets=targets,
                                drain=draw(st.booleans())))
    return _small(scenario), events


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_named_schedules())
@example((_small(Scenario.hashchain().mixed(vanilla=3, hashchain=5)), [
    BecomeByzantine(at=1.0, targets=Targets(nodes=("server-7",))),
    Join(at=2.0, algorithm="vanilla")]))
def test_schedules_refused_at_build_are_refused_at_the_same_event_when_applied(case):
    scenario, events = case
    try:
        scenario.faults(*events).build()
        static = None
    except ConfigurationError as error:
        static = str(error)
    session = scenario.session().start()
    interactive = None
    for event in events:
        session.run_until(event.at)
        try:
            session.apply(event)
        except ConfigurationError as error:
            interactive = str(error)
            break
    assert interactive == static


# -- soundness: the exact count never exceeds the static bound ---------------------


@st.composite
def _random_schedules(draw):
    """Random selectors, overlapping targets, recoveries, churn, joins and
    leaves; every ``at`` distinct, ``until`` anywhere."""
    layout = draw(st.sampled_from(["flat", "mixed", "sharded"]))
    if layout == "flat":
        scenario = Scenario.hashchain().servers(draw(st.sampled_from([4, 5, 6])))
    elif layout == "mixed":
        scenario = Scenario.hashchain().mixed(vanilla=3, hashchain=3)
    else:
        scenario = Scenario.hashchain().servers(3).shards(2)
    total = 6 if layout != "flat" else scenario.build().total_servers
    size = draw(st.integers(2, 7))
    ats = sorted(draw(st.lists(st.sampled_from(_GRID), min_size=size,
                               max_size=size, unique=True)))
    joined = 0
    events = []

    def targets():
        if draw(st.booleans()):
            return Targets(count=draw(st.integers(1, 2)))
        names = draw(st.lists(st.integers(0, total + joined - 1), min_size=1,
                              max_size=2, unique=True))
        return Targets(nodes=tuple(server_name(i) for i in names))

    kinds = ["crash", "byzantine", "byzantine", "recover", "correct",
             "churn", "join"] + ([] if layout == "sharded" else ["leave"])
    for at in ats:
        kind = draw(st.sampled_from(kinds))
        until = draw(st.sampled_from([None] + [t for t in _GRID if t > at]))
        if kind == "crash":
            events.append(Crash(at=at, until=until, targets=targets()))
        elif kind == "byzantine":
            events.append(BecomeByzantine(at=at, until=until,
                                          targets=targets()))
        elif kind == "recover":
            events.append(Recover(at=at, targets=targets()))
        elif kind == "correct":
            events.append(BecomeCorrect(at=at))
        elif kind == "churn":
            events.append(Churn(at=at, until=until or at + 1.0, period=0.4))
        elif kind == "join":
            events.append(Join(at=at))
            joined += 1
        else:
            events.append(Leave(at=at, targets=targets()))
    return _small(scenario), events


@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_random_schedules())
def test_the_exact_count_never_exceeds_the_static_bound(case):
    scenario, events = case
    config = scenario.build()
    static = list(budget_states(events, config))
    exact = []

    def record(at, scopes, departed, explicit_f):
        exact.append((at, dict(scopes), departed))

    deployment = build_deployment(config)
    deployment.fault_injector = FaultInjector(
        deployment, FaultScheduleConfig(events=tuple(events)))
    with mock.patch("repro.faults.injector.check_budget", record):
        deployment.start()
        try:
            deployment.sim.run_until(max(_GRID) + 1.0)
        except ConfigurationError:
            pass  # a fault on a server that has already left
    for at, scopes, _departed in exact:
        _, bound, _ = [state for state in static if state[0] <= at][-1]
        for key, (members, byzantine, crashed) in scopes.items():
            members_bound, byz_bound, crashed_bound = bound.get(key, (0, 0, 0))
            assert byzantine <= byz_bound, (at, key)
            assert byzantine + crashed <= byz_bound + crashed_bound, (at, key)
            assert members_bound <= members, (at, key)

    def refused(states):
        try:
            for at, scopes, departed in states:
                check_budget(at, scopes, departed, config.pinned_f)
        except ConfigurationError:
            return True
        return False

    # A schedule the static sweep accepts never trips the run-time check.
    if not refused(static):
        assert not refused(exact)
