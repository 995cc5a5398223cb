"""Byte-identity pin for the trace exports: which timeline event follows which.

``tests/golden/trace_manifest.json`` maps ``"<run> @ <trace_sample>"`` to the
sha256 of the Chrome export, the JSONL export and ``RunResult.telemetry`` at
seed 7, recorded on the commit *before* the servers' own tracer hooks moved
into ``MetricsCollector.record_*``.  The runs are small ideal-ledger ones: the
three algorithms, a crash and a partition, Byzantine servers under each
algorithm, a join and a leave, two shards, and a service runtime fed through
its ingress queue — each at full sampling and on the sampling stream (0.25).
The two service keys were re-recorded twice.  First, when the element spans
became rows of the metrics' lifecycle table: the runtime then added a burst
before it recorded the injection, and the old per-tracer spans dropped the
``collector_queued``/``flushed``/``signed`` phases observed before it; their
Chrome digests, and every other key, did not move.  Second, when the drain
went through ``Deployment.admit``, which books a burst before any server
sees it: each tick's ``injected`` event now precedes its ``added`` events,
as in batch runs; the same lines, reordered, and the telemetry did not move.
Re-record, only ever on a commit whose traces are known-good, with
``PYTHONPATH=src python tests/test_trace_manifest.py``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro import Scenario, Session
from repro.api.parallel import reset_run_counters
from repro.api.session import _resolve_config
from repro.obs.export import export_chrome, export_jsonl
from repro.service.runtime import ServiceRuntime

MANIFEST = Path(__file__).parent / "golden" / "trace_manifest.json"


def batch_run(config):
    session = Session(config, seed=7).start().run()
    return session.deployment.tracer, session.result()


def service_run(config):
    with ServiceRuntime(config, seed=7) as runtime:
        for _ in range(10):
            runtime.submit_many(40)
            runtime.tick()
        runtime.run_for(5.0)
        return runtime.deployment.tracer, runtime.result()


#: A Vanilla server appending invalid elements: every correct server refuses
#: them inside a pipeline run and owes the collector the count afterwards.
VANILLA_FLOODER = (Scenario.vanilla().servers(4).rate(100).inject_for(4).drain(20)
                   .backend("ideal").become_byzantine(
                       1.0, "server-1", behaviour="invalid-element", until=3.0))

RUNS = {**{name: (batch_run, name) for name in (
            "smoke", "bench/vanilla", "bench/compresschain", "chaos/smoke",
            "byz/smoke", "byz/golden/compresschain-equivocate",
            "byz/golden/vanilla-silent", "member/smoke", "shard/smoke")},
        "vanilla-flooder": (batch_run, VANILLA_FLOODER),
        "service/smoke (runtime)": (service_run, "service/smoke")}
KEYS = [f"{name} @ {sample:g}" for name in RUNS for sample in (1.0, 0.25)]


def trace_digests(key: str) -> dict[str, str]:
    name, _, sample = key.rpartition(" @ ")
    drive, scenario = RUNS[name]
    reset_run_counters()
    tracer, result = drive(
        _resolve_config(scenario).with_overrides(trace_sample=float(sample)))
    texts = {"chrome": export_chrome(tracer, label=name),
             "jsonl": export_jsonl(tracer, label=name),
             "telemetry": json.dumps(result.telemetry, sort_keys=True)}
    return {kind: hashlib.sha256(text.encode()).hexdigest()
            for kind, text in texts.items()}


def test_manifest_covers_the_pinned_runs():
    assert list(json.loads(MANIFEST.read_text())) == KEYS


@pytest.mark.parametrize("key", KEYS)
def test_trace_exports_are_byte_identical_to_the_pinned_digests(key):
    assert trace_digests(key) == json.loads(MANIFEST.read_text())[key]


if __name__ == "__main__":
    MANIFEST.write_text(json.dumps({key: trace_digests(key) for key in KEYS},
                                   indent=2) + "\n")
