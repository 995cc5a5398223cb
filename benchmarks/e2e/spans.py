"""Layer spans recorded from outside the program.

A *layer* is one ``src/repro/<module>`` package.  A span opens where control
crosses from one layer into another, by two rules :func:`install` applies:

1. the pinned public seam functions of each layer (:data:`METHOD_SEAMS`,
   :data:`FUNCTION_SEAMS`) are replaced by recording wrappers;
2. the two public registration points for event-driven code —
   ``Simulator.call_*`` and ``NetworkNode.on`` — wrap every callback they are
   handed in a span attributed to the layer of the module that *defines* the
   callback, so private timers and message handlers are charged to their own
   layer and not to the event loop that happens to invoke them.

A wrapped function called while its own layer is already on top of the stack
is not a crossing and records nothing, so ``<layer>.calls`` counts entries
into the layer and the span volume stays proportional to real boundaries.
(:data:`ALWAYS` names the few seams whose individual durations are reported;
those record even when nested in their own layer, which leaves the layer's
self time unchanged.)

Nothing under ``src/`` is edited: :func:`install` patches attributes and
returns the function that restores them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import Any, Callable, Iterable, Sequence

#: Layer charged with everything no repro layer claims (the harness itself,
#: set-up code between seams).  Reported as ``host.other_self_s``.
OTHER = "other"

#: Span record layout: ``[layer, name, start, end, parent_index]``.
LAYER, NAME, START, END, PARENT = range(5)


class SpanRecorder:
    """Keeps spans in memory; one instance per traced pass."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list[Any]] = []
        #: Operation counts bumped at span open (see ``wrap(ops=...)``).
        self.ops: dict[str, int] = {}
        self._stack: list[int] = []
        self._layers: list[str | None] = [None]

    def wrap(self, func: Callable[..., Any], layer: str, name: str,
             ops: Callable[..., int] | None = None,
             always: bool = False) -> Callable[..., Any]:
        """``func`` recorded as a ``layer`` span whenever it is a crossing
        (or on every call with ``always``)."""
        spans, stack, layers, clock = self.spans, self._stack, self._layers, self.clock
        counts = self.ops

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if layers[-1] == layer and not always:
                return func(*args, **kwargs)
            if ops is not None:
                counts[name] = counts.get(name, 0) + ops(*args, **kwargs)
            record = [layer, name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            layers.append(layer)
            record[START] = clock()
            try:
                return func(*args, **kwargs)
            finally:
                record[END] = clock()
                layers.pop()
                stack.pop()

        return wrapper

    def run(self, func: Callable[[], Any], layer: str = OTHER,
            name: str = "pass") -> Any:
        """Run ``func`` inside a root span and return its result."""
        return self.wrap(func, layer, name)()


# -- span arithmetic ------------------------------------------------------------


def self_times(spans: Sequence[Sequence[Any]]) -> list[float]:
    """Per-span self time: duration minus the part covered by child spans."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            own[parent] -= span[END] - span[START]
    return own


def layer_totals(spans: Sequence[Sequence[Any]]) -> dict[str, tuple[float, int]]:
    """``layer -> (summed self time, span count)``."""
    totals: dict[str, tuple[float, int]] = {}
    for span, own in zip(spans, self_times(spans)):
        seconds, count = totals.get(span[LAYER], (0.0, 0))
        totals[span[LAYER]] = (seconds + own, count + 1)
    return totals


def durations(spans: Iterable[Sequence[Any]], name: str) -> list[float]:
    """Durations of every span called ``name``, in recording order."""
    return [span[END] - span[START] for span in spans if span[NAME] == name]


def write_chrome_trace(spans: Sequence[Sequence[Any]], path: Any,
                       label: str) -> None:
    """One Chrome ``trace_event`` file (complete events, microseconds)."""
    origin = spans[0][START] if spans else 0.0
    events: list[dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
         "args": {"name": label}}]
    for index, (layer, name, start, end, parent) in enumerate(spans):
        events.append({"name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
                       "ts": round((start - origin) * 1e6, 3),
                       "dur": round((end - start) * 1e6, 3),
                       "args": {"id": index, "parent": parent}})
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle,
                  separators=(",", ":"))


# -- the pinned seams -----------------------------------------------------------

#: ``layer -> {"module:Class": method names}``.  ``*`` suffix matches a prefix;
#: a class entry covers the class and every subclass that overrides the name.
METHOD_SEAMS: dict[str, dict[str, tuple[str, ...]]] = {
    "workload": {
        "repro.workload.generator:ArbitrumLikeGenerator": ("batch", "next_sizes"),
        "repro.workload.clients:RoutedTarget": ("add", "add_many"),
    },
    "crypto": {
        "repro.crypto.signatures:SignatureScheme":
            ("sign", "sign_many", "verify", "verify_many"),
    },
    "core": {
        "repro.core.base:BaseSetchainServer":
            ("add", "add_many", "check_tx", "finalize_block"),
        "repro.core.collector:Collector": ("add", "add_many", "flush_now"),
        "repro.core.batch_store:BatchStore":
            ("register_local", "register_remote", "serve"),
        # Not in the issue's list: a pass builds its deployment, and without
        # these the build would sit unattributed in ``host.other_self_s``.
        "repro.core.deployment:Deployment": ("start", "stop"),
    },
    "ledger": {
        "repro.ledger.ideal:IdealLedger": ("submit", "start", "stop"),
        "repro.ledger.ideal:IdealLedgerHandle": ("append",),
        "repro.ledger.mempool:Mempool": ("add", "reap"),
        "repro.ledger.cometbft.engine:CometBFTNode": ("append", "catch_up"),
        "repro.ledger.cometbft.engine:CometBFTNetwork":
            ("start", "crash_node", "recover_node"),
    },
    "sim": {
        "repro.sim.scheduler:Simulator":
            ("run_until", "run_until_idle", "run_until_condition"),
    },
    "net": {
        "repro.net.network:Network": ("transmit", "multicast"),
        "repro.net.node:NetworkNode": ("deliver",),
    },
    "faults": {
        "repro.faults.injector:FaultInjector": ("arm",),
        "repro.faults.injector:FaultContext":
            ("crash_node", "recover_node", "claim_crashes", "release_crashes",
             "force_recover", "claim_partition", "release_partition",
             "heal_all_partitions", "claim_byzantine", "release_byzantine",
             "force_correct"),
    },
    "shard": {
        "repro.shard.router:ShardRouter":
            ("route", "route_round_robin", "active_shards"),
    },
    "service": {
        # The first four are the issue's; the rest keep a service pass's
        # start-up, drain loop and shutdown out of ``host.other_self_s``.
        "repro.service.runtime:ServiceRuntime":
            ("submit", "tick", "checkpoint", "metrics_snapshot",
             "__init__", "run_for", "result", "stop"),
        # ``_persist_block`` is the durability hook the ideal sequencer calls
        # between block cut and notification; wrapping it charges the sqlite
        # block write to the service layer instead of to the ledger.
        "repro.service.persistence:SqliteLedger":
            ("journal_batches", "_persist_block"),
    },
    "analysis": {
        "repro.analysis.metrics:MetricsCollector":
            ("record_*", "commit_latencies", "commit_times"),
    },
    "api": {
        "repro.api.results:RunResult": ("from_experiment", "to_json"),
    },
}

#: ``layer -> "module:function"``; every ``repro`` module that imported the
#: function by name is patched too.
FUNCTION_SEAMS: dict[str, tuple[str, ...]] = {
    "workload": ("repro.workload.elements:make_elements",),
    "crypto": ("repro.crypto.hashing:hash_batch", "repro.crypto.hashing:hash_epoch",
               "repro.crypto.hashing:canonical_many"),
    "core": ("repro.core.deployment:build_deployment",),
    "api": ("repro.experiments.runner:package_result",),
}

#: Seams recorded on every call, not only at a crossing.
ALWAYS = frozenset({"ServiceRuntime.checkpoint"})

#: Operation counts taken at span open: ``span name -> f(*args)``.
_OPS: dict[str, Callable[..., int]] = {
    "SignatureScheme.sign": lambda self, keypair, message: 1,
    "SignatureScheme.sign_many": lambda self, keypair, messages: len(messages),
}


def layer_of_module(module: str | None) -> str:
    """``repro.core.hashchain`` -> ``core``; anything else -> :data:`OTHER`."""
    parts = (module or "").split(".")
    if len(parts) >= 2 and parts[0] == "repro":
        return parts[1]
    return OTHER


@functools.cache
def _trampolines() -> tuple[type, ...]:
    from repro.sim.process import PeriodicTask, Timer
    return (Timer, PeriodicTask)


def callback_layer(callback: Any) -> tuple[str, str]:
    """``(layer, name)`` of the code a scheduled callback really runs.

    ``Timer`` and ``PeriodicTask`` hand the simulator their own trampoline;
    the callback that matters is the one they were constructed with.
    """
    trampolines = _trampolines()
    while True:
        if isinstance(callback, functools.partial):
            callback = callback.func
            continue
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, trampolines):
            callback = owner._callback
            continue
        break
    module = getattr(callback, "__module__", None) or type(callback).__module__
    name = getattr(callback, "__qualname__", type(callback).__qualname__)
    return layer_of_module(module), name.replace(".<locals>", "")


def _resolve(target: str) -> tuple[Any, str]:
    module_name, attribute = target.split(":")
    __import__(module_name)
    return sys.modules[module_name], attribute


def _all_subclasses(cls: type) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_all_subclasses(sub))
    return found


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Patch the seams; returns the function that undoes every patch."""
    undo: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, attribute: str, value: Any) -> None:
        undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    # Rule 1a: methods, on the class and on overriding subclasses.
    for layer, classes in METHOD_SEAMS.items():
        for target, names in classes.items():
            module, class_name = _resolve(target)
            base = getattr(module, class_name)
            for cls in _all_subclasses(base):
                for attribute, raw in list(vars(cls).items()):
                    if not any(attribute == n or (n.endswith("*")
                                                  and attribute.startswith(n[:-1]))
                               for n in names):
                        continue
                    span_name = f"{class_name}.{attribute}"
                    options = {"ops": _OPS.get(span_name),
                               "always": span_name in ALWAYS}
                    if isinstance(raw, classmethod):
                        patch(cls, attribute, classmethod(recorder.wrap(
                            raw.__func__, layer, span_name, **options)))
                    elif callable(raw):
                        patch(cls, attribute, recorder.wrap(
                            raw, layer, span_name, **options))

    # Rule 1b: module-level functions, wherever a repro module holds them.
    for layer, targets in FUNCTION_SEAMS.items():
        for target in targets:
            module, attribute = _resolve(target)
            original = getattr(module, attribute)
            wrapped = recorder.wrap(original, layer, attribute)
            for holder in list(sys.modules.values()):
                if (holder is not None
                        and getattr(holder, "__name__", "").startswith("repro")
                        and vars(holder).get(attribute) is original):
                    patch(holder, attribute, wrapped)

    # Rule 2: the registration points hand out span-wrapped callbacks.
    from repro.net.node import NetworkNode
    from repro.sim.scheduler import Simulator

    def wrap_callback(callback: Any) -> Any:
        return recorder.wrap(callback, *callback_layer(callback))

    def reschedule(original: Any, position: int) -> Any:
        @functools.wraps(original)
        def schedule(*args: Any, **kwargs: Any) -> Any:
            patched = list(args)
            patched[position] = wrap_callback(patched[position])
            return original(*patched, **kwargs)
        return schedule

    for attribute in ("call_at", "call_in", "call_at_storm", "call_in_storm"):
        patch(Simulator, attribute, reschedule(vars(Simulator)[attribute], 2))
    for attribute in ("call_soon", "call_soon_storm"):
        patch(Simulator, attribute, reschedule(vars(Simulator)[attribute], 1))
    patch(NetworkNode, "on", reschedule(vars(NetworkNode)["on"], 2))

    def uninstall() -> None:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)

    return uninstall
