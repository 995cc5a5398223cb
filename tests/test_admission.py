"""The one door for elements: ``Deployment.admit`` books, routes and adds.

Batch clients, the service drain and ``Session.inject`` all admit through
it.  Whatever the path, and whatever a server refuses, every offered element
is booked exactly once: the deployment's injected list, the metrics'
injected total and the set of distinct injected ids agree.
"""

import ast
from pathlib import Path

import pytest

from repro import Session
from repro.errors import SetchainError
from repro.faults import Crash, Recover, Targets
from repro.service.runtime import ServiceRuntime
from repro.workload.elements import make_element

SRC = Path(__file__).resolve().parent.parent / "src"


def batch(name):
    """A batch run; every element a client sent is offered."""
    deployment = Session(name, seed=7).start().run().deployment
    return deployment, deployment.clients.total_sent


def byz_smoke():
    # Unsharded: server-2 crashes mid-injection and its client's adds are lost.
    deployment, offered = batch("byz/smoke")
    assert sum(s.crashed_rejects for s in deployment.servers) > 0
    return deployment, offered


def retire_shard():
    # Sharded: a shard drains and the router stops sending it elements.
    deployment, offered = batch("shard/elastic/retire-shard")
    assert deployment.shard_router.counters()["routed"] == offered
    return deployment, offered


def service_with_a_crashed_server():
    runtime = ServiceRuntime("service/smoke", seed=5)
    server_1 = Targets(nodes=("server-1",))
    runtime.submit_many(100)
    runtime.run_for(1.0)
    runtime.apply(Crash(targets=server_1))
    runtime.submit_many(150)
    runtime.run_for(2.0)
    runtime.apply(Recover(targets=server_1))
    runtime.run_for(10.0)
    runtime.stop()
    ingress = runtime.ingress_counters
    return runtime.deployment, ingress["drained"] + ingress["server_rejected"]


def hand_injection():
    session = Session("smoke", seed=7).start()
    session.run_for(1.0)
    session.apply(Crash(targets=Targets(nodes=("server-1",))))
    kept = session.inject(server=0)
    with pytest.raises(SetchainError):
        session.inject(element=kept)  # a duplicate: not re-booked
    with pytest.raises(SetchainError):
        session.inject(server=1)  # a crashed server: booked and lost
    session.run()
    return session.deployment, session.deployment.clients.total_sent + 2


CASES = {"batch-unsharded-crash": byz_smoke,
         "batch-sharded-retire": retire_shard,
         "service-crashed-server": service_with_a_crashed_server,
         "hand-injection": hand_injection}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES)
def test_every_offered_element_is_booked_exactly_once(case):
    deployment, offered = case()
    injected = deployment.injected_elements
    assert offered > 0
    assert (len(injected) == deployment.metrics.injected_count
            == len({e.element_id for e in injected}) == offered)


def test_injection_into_a_crashed_server_is_booked_and_lost():
    # What a client sees: an add against a downed host is offered and lost.
    with Session("smoke", seed=7) as session:
        session.run_for(1.0)
        session.apply(Crash(targets=Targets(nodes=("server-2",))))
        before = session.injected_count
        lost = make_element(client="session", size_bytes=400,
                            created_at=session.now)
        with pytest.raises(SetchainError, match="rejected"):
            session.inject(element=lost, server=2)
        assert session.injected_count == before + 1
        assert session.deployment.injected_elements[-1] is lost
        session.run_to_completion(extra_time=20.0)
        record = session.deployment.metrics.elements[lost.element_id]
        assert record.injected_at is not None and record.committed_at is None
        assert session.committed_fraction < 1


def callers(method):
    """``file:function`` for every call of ``.method(...)`` in ``src/``."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for function in ast.walk(ast.parse(path.read_text())):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.relative_to(SRC)}:{function.name}"
                          for node in ast.walk(function)
                          if isinstance(node, ast.Call)
                          and isinstance(node.func, ast.Attribute)
                          and node.func.attr == method]
    return found


def test_the_door_is_the_only_place_that_books_and_routes():
    door = "repro/core/deployment.py:admit"
    assert callers("record_injected_many") == [door]
    assert callers("route_many") == [door]
