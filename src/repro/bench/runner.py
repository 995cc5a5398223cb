"""Benchmark execution: pinned cases, measurement, artifacts, comparison.

A :class:`BenchCase` pins a registered scenario name to a seed (and optional
scale); :func:`run_case` times one end-to-end :func:`run_scenario` execution
and reduces it to a :class:`BenchRecord` — the five-field schema stored in
``BENCH_*.json`` artifacts::

    {"scenario": ..., "seed": ..., "wall_s": ...,
     "events_per_s": ..., "elements_per_s": ...}

``wall_s`` is the minimum over ``repeat`` runs (best-of, the standard
defence against scheduler noise); the rates are taken from that fastest run.
Simulation *outputs* are wall-clock independent — the same case always
commits the same elements and writes the same ``RunResult`` bytes — and that
is the invariant a bench artifact witnesses.  The event *count*
(``events_per_s * wall_s``) is an implementation detail of the schedule:
PR 14 settles a Vanilla block's run of element transactions in one event, so
``bench/vanilla`` and the traced ``telemetry.counters.events_executed``
dropped with every artifact byte unchanged.  Compare it within one commit.
"""

from __future__ import annotations

import functools
import gc
import json
import multiprocessing
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from ..errors import ConfigurationError
from ..api.parallel import reset_run_counters
from ..api.registry import get_scenario

#: Bumped whenever the artifact layout changes incompatibly.
BENCH_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class BenchCase:
    """One pinned benchmark point: scenario name, seed, and repeat count."""

    scenario: str
    seed: int
    scale: float = 1.0


#: The pinned ``bench-smoke`` set (see the ``bench/...`` catalog entries).
#: Seeds are arbitrary but frozen: changing any line starts a new trajectory.
BENCH_SMOKE: tuple[BenchCase, ...] = (
    BenchCase("bench/hashchain-base", seed=1101),
    BenchCase("bench/hashchain-heavy", seed=1102),
    BenchCase("bench/compresschain", seed=1103),
    BenchCase("bench/vanilla", seed=1104),
    BenchCase("bench/hashchain-ed25519", seed=1105),
)

#: The ``bench-million`` set: one million injected elements per case, batched
#: algorithms only (vanilla's one-transaction-per-element ledger path needs
#: ~65 s and 1.7 GB at this scale — run ``bench/million-vanilla`` explicitly
#: when you want the baseline contrast).
BENCH_MILLION: tuple[BenchCase, ...] = (
    BenchCase("bench/million-hashchain", seed=1201),
    BenchCase("bench/million-compresschain", seed=1202),
)

#: The CI-sized variant (100k elements per case, all three algorithms).
BENCH_MILLION_SMOKE: tuple[BenchCase, ...] = (
    BenchCase("bench/million-smoke-hashchain", seed=1301),
    BenchCase("bench/million-smoke-compresschain", seed=1302),
    BenchCase("bench/million-smoke-vanilla", seed=1303),
)

#: The ``bench-shard`` scale-out set: the same 3500 el/s workload against
#: 1/2/4/8 shards (see the ``shard/scale/...`` catalog entries).  The
#: headline lives in the *simulated* committed throughput
#: (``sim_elements_per_s``): four shards must sustain at least 3x the
#: one-shard committed rate.  Wall-clock columns measure the single-process
#: simulator, which does the same total work regardless of shard count.
BENCH_SHARD: tuple[BenchCase, ...] = (
    BenchCase("shard/scale/s1", seed=1401),
    BenchCase("shard/scale/s2", seed=1402),
    BenchCase("shard/scale/s4", seed=1403),
    BenchCase("shard/scale/s8", seed=1404),
)


@dataclass(frozen=True)
class BenchRecord:
    """One measured benchmark point (the ``BENCH_*.json`` result schema).

    ``committed`` and ``sim_elements_per_s`` are additive (schema version
    unchanged): the committed-element count and the committed throughput in
    *simulated* time — ``committed / sim.now`` at the end of the run.  Wall
    rates measure the simulator; the simulated rate measures the modelled
    system, which is what the sharding scale-out claim is about.
    """

    scenario: str
    seed: int
    wall_s: float
    events_per_s: float
    elements_per_s: float
    committed: int | None = None
    sim_elements_per_s: float | None = None


def run_case(case: BenchCase, repeat: int = 1,
             trace_sample: float | None = None) -> BenchRecord:
    """Run one case ``repeat`` times and keep the fastest execution.

    Cyclic garbage collection is suspended for the timed region: a
    million-element run keeps millions of live objects, and every gen-2
    collection rescans all of them, turning the measurement superlinear.
    The simulation allocates no reference cycles on its hot paths, so the
    deferred collection happens once, after timing.

    ``trace_sample`` runs the case with lifecycle tracing enabled — the
    knob behind the tracing-overhead acceptance check (traced wall time over
    untraced wall time for the same case).
    """
    if repeat < 1:
        raise ConfigurationError("bench repeat must be at least 1")
    config = get_scenario(case.scenario)
    if trace_sample is not None:
        config = config.with_overrides(trace_sample=trace_sample)
    best: tuple[float, int, int, float] | None = None  # (wall, events, committed, sim_now)
    gc_was_enabled = gc.isenabled()
    for _ in range(repeat):
        from ..experiments.runner import run_scenario
        reset_run_counters()
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            outcome = run_scenario(config, scale=case.scale, seed=case.seed)
            wall = time.perf_counter() - start
        finally:
            if gc_was_enabled:
                gc.enable()
        events = outcome.deployment.sim.events_executed
        committed = outcome.metrics.committed_count
        sim_now = outcome.deployment.sim.now
        del outcome
        gc.collect()
        if best is None or wall < best[0]:
            best = (wall, events, committed, sim_now)
    wall, events, committed, sim_now = best
    wall = max(wall, 1e-9)
    return BenchRecord(scenario=case.scenario, seed=case.seed,
                       wall_s=round(wall, 4),
                       events_per_s=round(events / wall, 1),
                       elements_per_s=round(committed / wall, 1),
                       committed=committed,
                       sim_elements_per_s=round(committed / max(sim_now, 1e-9), 1))


def run_bench(cases: Sequence[BenchCase] = BENCH_SMOKE, jobs: int = 1,
              repeat: int = 1,
              trace_sample: float | None = None) -> list[BenchRecord]:
    """Measure every case; ``jobs > 1`` fans out over worker processes.

    Parallel timing shares the machine between cases, so use ``jobs 1`` when
    absolute numbers matter and ``--jobs auto`` for quick CI trend lines.
    """
    cases = list(cases)
    worker = functools.partial(run_case, repeat=repeat,
                               trace_sample=trace_sample)
    if jobs <= 1 or len(cases) <= 1:
        return [worker(case) for case in cases]
    with multiprocessing.Pool(processes=min(jobs, len(cases))) as pool:
        return pool.map(worker, cases)


# -- artifacts ----------------------------------------------------------------

def write_bench(records: Sequence[BenchRecord], path: str | Path,
                label: str = "", bench_set: str = "bench-smoke") -> Path:
    """Write a ``BENCH_*.json`` artifact and return its path."""
    payload = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "set": bench_set,
        "label": label,
        "results": [asdict(record) for record in records],
    }
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=2) + "\n")
    return target


def load_bench(path: str | Path) -> dict[str, Any]:
    """Read a ``BENCH_*.json`` artifact, validating the schema version."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as error:
        raise ConfigurationError(f"invalid bench JSON in {path}: {error}") from error
    if not isinstance(data, Mapping) or "results" not in data:
        raise ConfigurationError(f"{path} is not a bench artifact (no results)")
    version = data.get("schema_version", BENCH_SCHEMA_VERSION)
    if version > BENCH_SCHEMA_VERSION:
        raise ConfigurationError(
            f"bench schema version {version} is newer than this library "
            f"understands ({BENCH_SCHEMA_VERSION})")
    return dict(data)


def compare_benches(before: Mapping[str, Any],
                    after: Mapping[str, Any]) -> dict[str, Any]:
    """Merge two bench artifacts into a before/after trajectory document.

    ``speedup`` maps each scenario present in both artifacts to
    ``before.wall_s / after.wall_s`` (>1 means the code got faster);
    ``overall_wall_speedup`` is the same ratio over the whole-set totals.
    """
    before_by = {r["scenario"]: r for r in before["results"]}
    after_by = {r["scenario"]: r for r in after["results"]}
    shared = [name for name in before_by if name in after_by]
    speedup = {name: round(before_by[name]["wall_s"]
                           / max(after_by[name]["wall_s"], 1e-9), 2)
               for name in shared}
    total_before = sum(before_by[name]["wall_s"] for name in shared)
    total_after = sum(after_by[name]["wall_s"] for name in shared)
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "set": after.get("set", before.get("set", "bench-smoke")),
        "before": {"label": before.get("label", ""),
                   "results": list(before["results"])},
        "after": {"label": after.get("label", ""),
                  "results": list(after["results"])},
        "speedup": speedup,
        "overall_wall_speedup": round(total_before / max(total_after, 1e-9), 2),
    }
