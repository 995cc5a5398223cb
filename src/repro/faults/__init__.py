"""Deterministic fault injection: declarative chaos timelines for deployments.

The :mod:`repro.faults` package turns the network's raw test hooks
(``add_drop_rule``, ``partition``) into a scheduled subsystem:

* :mod:`repro.faults.events` — the typed fault-event DSL (``Partition``,
  ``Heal``, ``Crash``, ``Recover``, ``MessageLoss``, ``Duplicate``,
  ``DelaySpike``, ``Churn``, the Byzantine nemeses ``BecomeByzantine``/
  ``BecomeCorrect``, and the membership events ``Join``/``Leave``) with
  :class:`Targets` selectors;
* :class:`FaultScheduleConfig` — the frozen, serialisable timeline carried by
  :class:`~repro.config.ExperimentConfig`;
* :class:`FaultInjector` — executes a schedule from simulator timers, and
  the events ``Session.apply`` passes it mid-run, and condenses the
  resilience report flowing into ``RunResult.faults``;
* :mod:`repro.faults.budget` — the f-budget: :func:`check_budget`, fed by
  :func:`validate_fault_budget` at config time and by every applied crash,
  Byzantine turn, join and leave at run time;
* :data:`FAULT_KINDS` — every fault kind, ``kind -> event class``, through
  which serialised schedules resolve.

Build schedules through the scenario builder
(``Scenario.hashchain().crash(at=10, until=30)``) or directly::

    from repro.faults import Crash, Partition, Targets, FaultScheduleConfig

    schedule = FaultScheduleConfig(events=(
        Partition(at=10.0, until=25.0, group=Targets(role="servers", count=3)),
        Crash(at=30.0, until=40.0, targets=Targets(nodes=("server-0",))),
    ))
"""

from __future__ import annotations

from .budget import check_budget, validate_fault_budget
from .events import (
    FAULT_KINDS,
    BecomeByzantine,
    BecomeCorrect,
    Churn,
    Crash,
    DelaySpike,
    Duplicate,
    FaultEvent,
    Heal,
    Join,
    Leave,
    MessageLoss,
    Partition,
    Recover,
    Targets,
)
from .injector import FaultContext, FaultInjector
from .schedule import DEFAULT_AVAILABILITY_WINDOW, FaultScheduleConfig

__all__ = [
    "BecomeByzantine",
    "BecomeCorrect",
    "Churn",
    "Crash",
    "DelaySpike",
    "Duplicate",
    "FAULT_KINDS",
    "FaultContext",
    "FaultEvent",
    "FaultInjector",
    "FaultScheduleConfig",
    "DEFAULT_AVAILABILITY_WINDOW",
    "Heal",
    "Join",
    "Leave",
    "MessageLoss",
    "Partition",
    "Recover",
    "Targets",
    "check_budget",
    "validate_fault_budget",
]
