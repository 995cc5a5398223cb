"""The batched ingress drain against a per-element reference.

``ServiceRuntime._drain`` pops a tick's budget once, builds the burst with
``make_elements`` and hands it to ``Deployment.admit``, which books it,
assigns targets and hands every server its bucket through ``add_many``.  The
reference below is the drain it replaced — one ``active_shards()`` look, one
round-robin walk (on its own cursor), one ``make_element``, one injected
stamp and one ``add`` per element — kept here only, as the oracle.  Like the
door, it books the burst in arrival order before any add.

Two orders of applying a burst are compared.  Ids, targets and verdicts never
depend on the order.  The simulated outcome does, in its last digits: all
elements of a burst carry the same timestamp, and the order in which servers
reach their collector limit decides the order of same-instant flushes (ledger
transaction ids, network jitter draws).  The batched drain applies a burst
server by server, like the batch path's one-client-per-server ticks, so the
byte-for-byte oracle is the reference in that order; against the replaced
element-by-element order everything order-free must still agree, and the
artifact too whenever the servers flush in cursor order (bursts of one
collector-full per server, the shape of the ``service-durable`` benchmark).
"""

import pytest

from repro.api.builder import Scenario
from repro.api.parallel import reset_run_counters
from repro.faults import Crash, Leave, Recover, Targets
from repro.service.runtime import ServiceRuntime
from repro.workload.elements import make_element


def reference_drain(self, server_major):
    """The replaced per-element drain; ``server_major`` only reorders the adds."""
    deployment = self.deployment
    servers, router = deployment.servers, deployment.shard_router
    budget = self.drain_per_tick if self.drain_per_tick is not None else len(self._queue)
    routed = []
    while self._queue and budget > 0:
        if router is not None:
            if not router.active_shards():
                break
        else:
            for _ in range(len(servers)):
                target = servers[self._rr % len(servers)]
                self._rr += 1
                if not (target.crashed or target.draining or target.bootstrapping):
                    break
            else:
                break  # every server is down; keep the queue for later
        client, size = self._queue.popleft()
        budget -= 1
        element = make_element(client=client, size_bytes=size,
                               created_at=deployment.sim.now)
        if router is not None:
            target = router.route_many([element], None)[0][0]
        routed.append((target, element))
    for _, element in routed:  # booked in arrival order, before any add
        deployment.injected_elements.append(element)
        deployment.metrics.record_injected_many([element], deployment.sim.now)
    if server_major:
        order = list(dict.fromkeys(target.name for target, _ in routed))
        routed.sort(key=lambda pair: order.index(pair[0].name))
    for target, element in routed:
        if target.add(element):
            self.drained += 1
        else:
            self.server_rejected += 1


def rescan_committed_this_run(runtime):
    """``committed_this_run`` as the scrape used to compute it: a pass over
    every element record against the set of this run's injected ids."""
    injected = {e.element_id for e in runtime.deployment.injected_elements}
    return sum(1 for record in runtime.deployment.metrics.elements.values()
               if record.committed_at is not None
               and record.element_id in injected)


def sharded_scenario():
    # The deployment of test_sharded_ingress_routes_across_shards_and_commits.
    return (Scenario.hashchain().servers(2).shards(2).rate(200)
            .collector(10).inject_for(5).drain(30).backend("ideal"))


def load(runtime, during=lambda: None, after=lambda: None):
    """Three uneven waves from two clients, so that server collectors fill out
    of step and the order of adds inside a burst shows in the artifact."""
    runtime.submit_many(200)
    runtime.run_for(1.0)
    during()
    runtime.submit_many(300, client="other")
    runtime.submit(size_bytes=99)
    runtime.run_for(2.0)
    after()
    runtime.submit_many(100)
    runtime.run_for(20.0)


def one_server_crashed(runtime):
    # The round-robin skips server-1 for the whole second wave.
    server_1 = Targets(nodes=("server-1",))
    load(runtime, during=lambda: runtime.apply(Crash(targets=server_1)),
         after=lambda: runtime.apply(Recover(targets=server_1)))


def every_server_down(runtime):
    servers = Targets(role="servers")

    def recover_all():
        assert runtime.queue_depth == 301  # held, not dropped
        runtime.apply(Recover(targets=servers))

    load(runtime, during=lambda: runtime.apply(Crash(targets=servers)),
         after=recover_all)


def draining_leaver(runtime):
    load(runtime, during=lambda: runtime.apply(
        Leave(targets=Targets(nodes=("server-3",)))))


CASES = {
    "plain": ("service/smoke", {}, load),
    "drain_per_tick": ("service/smoke", {"drain_per_tick": 37}, load),
    "one_server_crashed": ("service/smoke", {}, one_server_crashed),
    "every_server_down": ("service/smoke", {}, every_server_down),
    "draining_leaver": ("service/smoke", {}, draining_leaver),
    "sharded": (sharded_scenario(), {}, load),
}


def drive(case, reference=None):
    """Run one case; ``reference`` swaps in the per-element drain."""
    scenario, options, script = case
    reset_run_counters()
    runtime = ServiceRuntime(scenario, seed=5, **options)
    if reference is not None:
        runtime._rr = 0  # the reference's own round-robin cursor over servers
        runtime._drain = lambda: reference_drain(
            runtime, server_major=reference == "server-major")
    script(runtime)
    snapshot = runtime.metrics_snapshot()
    assert snapshot["committed_this_run"] == rescan_committed_this_run(runtime)
    assert snapshot["recovered_commits"] == 0
    outcome = {
        "json": runtime.result().to_json(),
        "ingress": runtime.ingress_counters,
        "committed_this_run": snapshot["committed_this_run"],
        "injected_ids": sorted(e.element_id
                               for e in runtime.deployment.injected_elements),
        "placement": {server.name: sorted(e.element_id
                                          for e in server.get().the_set)
                      for server in runtime.deployment.servers},
        "violations": runtime.session.check_properties(),
    }
    router = runtime.deployment.shard_router
    if router is not None:
        outcome["router"] = (router.counters(), router.per_shard_routed)
    runtime.stop()
    return outcome


@pytest.mark.parametrize("case", CASES.values(), ids=CASES)
def test_batched_drain_is_byte_identical_to_per_element_reference(case):
    batched = drive(case)
    reference = drive(case, reference="server-major")
    assert batched["json"] == reference["json"]
    assert batched == reference
    assert batched["violations"] == []
    assert batched["ingress"]["drained"] == len(batched["injected_ids"]) > 0
    assert batched["ingress"]["server_rejected"] == 0


@pytest.mark.parametrize("case", CASES.values(), ids=CASES)
def test_batched_drain_keeps_ids_targets_and_counts_of_element_order(case):
    # Against the replaced element-by-element order only same-instant flush
    # interleaving may differ: same ids to the same servers, same verdicts,
    # same commits, same router counters.
    batched = drive(case)
    replaced = drive(case, reference="element-major")
    for key in batched.keys() - {"json"}:
        assert batched[key] == replaced[key], key


def test_collector_sized_bursts_match_element_order_byte_for_byte():
    # One collector-full per server per burst (4 servers x collector 10):
    # every server flushes once, in cursor order, under either order of
    # adds — so the artifact is identical to the replaced drain's.
    def script(runtime):
        for _ in range(12):
            runtime.submit_many(40)
            runtime.tick()
        runtime.run_for(10.0)

    case = ("service/smoke", {}, script)
    assert drive(case) == drive(case, reference="element-major")


def test_same_instant_flushes_inside_a_burst_go_in_server_order():
    """The order-dependent residue, pinned: servers 1-3 enter a burst with
    their collectors half full (server-0 was down for the burst before), so
    element by element they reach the limit — and flush — before server-0
    does.  The batched drain hands server-0 its whole bucket first, so
    server-0 flushes first.  Same instant, same elements, same commits;
    only the order of the flushes (ledger transaction ids, jitter draws)
    is the batched drain's own."""
    def script(runtime):
        server_0 = Targets(nodes=("server-0",))
        runtime.apply(Crash(targets=server_0))
        runtime.submit_many(15)   # five each to servers 1, 2, 3
        runtime.tick()
        runtime.apply(Recover(targets=server_0))
        runtime.submit_many(40)   # ten each: 1-3 overflow at their fifth
        runtime.tick()
        script.flushes = [flush.server for flush
                          in runtime.deployment.metrics.batch_flushes]
        runtime.run_for(10.0)

    case = ("service/smoke", {}, script)
    batched = drive(case)
    assert script.flushes == [f"server-{i}" for i in (0, 1, 2, 3)]
    replaced = drive(case, reference="element-major")
    assert script.flushes == [f"server-{i}" for i in (1, 2, 3, 0)]
    for key in batched.keys() - {"json"}:
        assert batched[key] == replaced[key], key
    assert batched == drive(case, reference="server-major")


def test_submit_many_counts_match_one_submit_per_element():
    # The arithmetic verdicts against the per-submission rule they replace,
    # across the watermark, the full queue and a stopped service.
    def per_submission(runtime, count):
        verdicts = {"accepted": 0, "deferred": 0, "rejected": 0}
        for _ in range(count):
            verdicts[runtime.submit()] += 1
        return verdicts

    for limit, batches in ((10, (3, 4, 9, 2)), (7, (1, 5, 5)), (1, (2,))):
        bulk = ServiceRuntime("service/smoke", seed=5, queue_limit=limit)
        single = ServiceRuntime("service/smoke", seed=5, queue_limit=limit)
        for count in batches:
            assert bulk.submit_many(count) == per_submission(single, count)
            assert bulk.ingress_counters == single.ingress_counters
        bulk.stop()
        single.stop()
        assert bulk.submit_many(3) == per_submission(single, 3) == {
            "accepted": 0, "deferred": 0, "rejected": 3}


def test_scrape_counters_match_rescan_on_restart_resume(tmp_path):
    db = tmp_path / "resume.sqlite"
    first = ServiceRuntime("service/smoke", db=db, seed=5)
    first.submit_many(120)
    first.run_for(8.0)
    assert first.metrics_snapshot()["committed_this_run"] == 120
    first.stop()

    second = ServiceRuntime("service/smoke", db=db, seed=5)
    second.run_for(1.0)  # the replayed prefix commits without being injected
    second.submit_many(70)
    second.run_for(8.0)
    snapshot = second.metrics_snapshot()
    assert snapshot["committed_this_run"] == rescan_committed_this_run(second) == 70
    assert snapshot["recovered_commits"] == 120
    assert snapshot["committed"] == 190
    second.stop()
