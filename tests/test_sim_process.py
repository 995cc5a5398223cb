"""Unit tests for timers and periodic tasks."""

import pytest

from repro.errors import SimulationError
from repro.sim.process import PeriodicTask, Timer
from repro.sim.scheduler import Simulator


def test_timer_fires_after_delay():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(2.0)
    sim.run_until(5.0)
    assert fired == [2.0]


def test_timer_restart_replaces_pending_expiry():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.start(2.0)
    sim.run_until(1.0)
    timer.start(3.0)  # now fires at t=4
    sim.run_until(10.0)
    assert fired == [4.0]


def test_timer_cancel_prevents_firing():
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append(1))
    timer.start(1.0)
    timer.cancel()
    sim.run_until(5.0)
    assert fired == []


def test_timer_negative_delay_raises():
    sim = Simulator()
    timer = Timer(sim, lambda: None)
    with pytest.raises(SimulationError):
        timer.start(-1.0)


def test_periodic_task_fires_at_period():
    sim = Simulator()
    times = []
    task = PeriodicTask(sim, period=1.0, callback=lambda: times.append(sim.now))
    task.start()
    sim.run_until(3.5)
    assert times == [1.0, 2.0, 3.0]
    assert task.fired == 3


def test_periodic_task_custom_offset():
    sim = Simulator()
    times = []
    task = PeriodicTask(sim, period=2.0, callback=lambda: times.append(sim.now), offset=0.5)
    task.start()
    sim.run_until(5.0)
    assert times == [0.5, 2.5, 4.5]


def test_periodic_task_stop_halts_firing():
    sim = Simulator()
    times = []
    task = PeriodicTask(sim, period=1.0, callback=lambda: times.append(sim.now))
    task.start()
    sim.run_until(2.0)
    task.stop()
    sim.run_until(10.0)
    assert times == [1.0, 2.0]


def test_periodic_task_start_is_idempotent():
    sim = Simulator()
    times = []
    task = PeriodicTask(sim, period=1.0, callback=lambda: times.append(sim.now))
    task.start()
    task.start()
    sim.run_until(2.0)
    assert times == [1.0, 2.0]


def test_periodic_task_invalid_period_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        PeriodicTask(sim, period=0.0, callback=lambda: None)
    with pytest.raises(SimulationError):
        PeriodicTask(sim, period=-1.0, callback=lambda: None)


def test_callback_can_stop_its_own_task():
    sim = Simulator()
    times = []
    task = PeriodicTask(sim, period=1.0, callback=lambda: (times.append(sim.now), task.stop()))
    task.start()
    sim.run_until(5.0)
    assert times == [1.0]
