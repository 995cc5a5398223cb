"""Unit tests for the simulator scheduler."""

import pytest

from repro.errors import SimulationError
from repro.sim.scheduler import Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_call_at_runs_at_given_time():
    sim = Simulator()
    seen = []
    sim.call_at(2.5, lambda: seen.append(sim.now))
    sim.run_until(5.0)
    assert seen == [2.5]
    assert sim.now == 5.0


def test_call_in_is_relative_to_now():
    sim = Simulator()
    seen = []
    sim.call_at(1.0, lambda: sim.call_in(0.5, lambda: seen.append(sim.now)))
    sim.run_until(3.0)
    assert seen == [1.5]


def test_call_soon_runs_at_current_time():
    sim = Simulator()
    seen = []
    sim.call_soon(lambda: seen.append(sim.now))
    sim.run_until(0.0)
    assert seen == [0.0]


def test_scheduling_in_the_past_raises():
    sim = Simulator()
    sim.call_at(1.0, lambda: None)
    sim.run_until(2.0)
    with pytest.raises(SimulationError):
        sim.call_at(1.5, lambda: None)


def test_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_in(-0.1, lambda: None)


def test_run_until_does_not_execute_future_events():
    sim = Simulator()
    seen = []
    sim.call_at(10.0, lambda: seen.append("late"))
    sim.run_until(5.0)
    assert seen == []
    assert sim.pending_events() == 1


def test_run_until_backwards_raises():
    sim = Simulator()
    sim.run_until(5.0)
    with pytest.raises(SimulationError):
        sim.run_until(1.0)


def test_run_until_idle_drains_all_events():
    sim = Simulator()
    seen = []
    def chain(n):
        seen.append(n)
        if n < 5:
            sim.call_in(1.0, lambda: chain(n + 1))
    sim.call_soon(lambda: chain(0))
    sim.run_until_idle()
    assert seen == [0, 1, 2, 3, 4, 5]
    assert sim.now == 5.0


def test_run_until_idle_respects_max_time():
    sim = Simulator()
    seen = []
    sim.call_at(1.0, lambda: seen.append(1))
    sim.call_at(10.0, lambda: seen.append(10))
    sim.run_until_idle(max_time=5.0)
    assert seen == [1]
    assert sim.now == 5.0


def test_events_executed_counter():
    sim = Simulator()
    for i in range(4):
        sim.call_at(float(i + 1), lambda: None)
    sim.run_until(10.0)
    assert sim.events_executed == 4


def test_max_events_budget_enforced():
    sim = Simulator()
    def reschedule():
        sim.call_in(0.1, reschedule)
    sim.call_soon(reschedule)
    sim.max_events = 50
    with pytest.raises(SimulationError):
        sim.run_until(1000.0)


def test_run_until_condition_stops_when_predicate_true():
    sim = Simulator()
    state = {"count": 0}
    def bump():
        state["count"] += 1
        sim.call_in(1.0, bump)
    sim.call_soon(bump)
    reached = sim.run_until_condition(lambda: state["count"] >= 3, max_time=100.0)
    assert reached
    assert state["count"] >= 3
    assert sim.now <= 100.0


def test_run_until_condition_times_out():
    sim = Simulator()
    reached = sim.run_until_condition(lambda: False, max_time=5.0)
    assert not reached


def test_deterministic_rng_attached():
    a = Simulator(seed=42)
    b = Simulator(seed=42)
    assert [a.rng.random() for _ in range(5)] == [b.rng.random() for _ in range(5)]


# -- the running event's place in the order -------------------------------------

def test_position_is_the_running_event_and_a_filed_arrival_sorts_around_it():
    """Something filed outside the queue draws its place with ``take_seq``;
    an event sees it as past exactly when the queue would have run it first."""
    sim = Simulator()
    filed = []   # (time, seq) of two arrivals, both for t = 2.0
    past = {}

    def reader(name):
        past[name] = [arrival < sim.position() for arrival in filed]

    sim.call_at(1.0, lambda: filed.append((2.0, sim.take_seq())))
    sim.call_at(1.0, lambda: sim.call_at(2.0, lambda: reader("between")))
    sim.call_at(1.0, lambda: filed.append((2.0, sim.take_seq())))
    sim.call_at(1.5, lambda: reader("early"))
    sim.call_at(1.0, lambda: sim.call_at(2.5, lambda: reader("late")))
    sim.run_until(3.0)
    assert past == {"early": [False, False], "between": [True, False],
                    "late": [True, True]}


def test_a_stopped_clock_has_run_everything_up_to_now_and_nothing_filed_after():
    sim = Simulator()
    during = (1.0, sim.take_seq())
    sim.run_until(1.0)
    after = (1.0, sim.take_seq())        # filed at the stop, for this instant
    assert during < sim.position() < after
    sim.call_at(1.0, lambda: None)
    sim.step()                           # one event at 1.0: ``after`` is older
    assert after < sim.position() == (1.0, sim._seq)


def test_a_storm_run_stops_where_something_drew_a_number_in_between():
    """Same instant, same key: one dispatch — unless an arrival filed outside
    the queue sits between two members, which must then see it as past."""
    sim = Simulator()
    runs = []
    handler = lambda payloads: runs.append((list(payloads), sim.position()[1]))
    key = object()
    sim.call_at_storm(1.0, handler, "a", key)
    sim.call_at_storm(1.0, handler, "b", key)
    arrival = sim.take_seq()
    sim.call_at_storm(1.0, handler, "c", key)
    sim.run_until(2.0)
    assert [payloads for payloads, _ in runs] == [["a", "b"], ["c"]]
    assert runs[0][1] < arrival < runs[1][1]
    assert sim.events_executed == 3
