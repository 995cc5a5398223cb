"""The five pinned workloads: configs, one pass each, and what is read off a pass.

Every workload is a pure function of ``--seed``: the seed goes into the
scenario config (``.seed(n)`` — element sizes, key material, network jitter)
and the program receives only that config.  Batch workloads are open-loop in
*simulated* time (``InjectionClient`` sends on schedule whatever commits) and
run back to back in host time; ``service-durable`` is a closed loop with one
producer, the harness thread.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro import Scenario, Session
from repro.config import ExperimentConfig
from repro.service import ServiceRuntime
from repro.service.persistence import audit_chain

from stats import censored_latencies, percentile


@dataclass
class PassOutcome:
    """What one pass leaves behind for the untimed read-out."""

    #: The ``Session`` that owns the deployment (the runtime's, in service mode).
    session: Any
    result_json: str
    #: Element submissions offered to the system (refused ones included).
    offered: int
    #: Service passes only.
    runtime: Any = None
    tick_s: list[float] = field(default_factory=list)
    scrape_s: list[float] = field(default_factory=list)
    db_path: Path | None = None

    @property
    def deployment(self) -> Any:
        return self.session.deployment


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int], ExperimentConfig]
    #: Build and start the system, ready for its first element; what
    #: ``setup_s`` times.  The returned object has ``stop()``.
    ready: Callable[[ExperimentConfig, Path], Any]
    run_pass: Callable[[ExperimentConfig, Path], PassOutcome]
    #: Property 8 (Eventual-Get) only holds at quiescence; the overloaded
    #: workload ends with a backlog by design.
    liveness: bool = True


# -- one pass -------------------------------------------------------------------


def batch_ready(config: ExperimentConfig, scratch: Path) -> Session:
    return Session(config).start()


def batch_pass(config: ExperimentConfig, scratch: Path) -> PassOutcome:
    """Build, run to the horizon, package and serialise — through the public
    facade, which takes the same ``build_deployment -> start -> run ->
    package_result -> RunResult`` path as ``run_scenario`` and also exposes
    the property checkers the output checks need."""
    session = batch_ready(config, scratch)
    session.run()
    text = session.result().to_json()
    return PassOutcome(session=session, result_json=text,
                       offered=len(session.deployment.injected_elements))


def open_runtime(config: ExperimentConfig, db_path: Path) -> ServiceRuntime:
    return ServiceRuntime(config, db=db_path, tick=0.1, queue_limit=100_000)


def service_ready(config: ExperimentConfig, scratch: Path) -> ServiceRuntime:
    """A runtime on a fresh sqlite file (any earlier one is discarded)."""
    db_path = scratch / "service.sqlite"
    if db_path.exists():
        db_path.unlink()
    return open_runtime(config, db_path)


def service_pass(config: ExperimentConfig, scratch: Path) -> PassOutcome:
    """2 s of ingest at 5 000 el/s (500 per 0.1 s tick), a scrape every tenth
    tick, 8 s of drain, then package and stop."""
    clock = time.perf_counter
    tick_s: list[float] = []
    scrape_s: list[float] = []
    runtime = service_ready(config, scratch)
    for index in range(1, 21):
        runtime.submit_many(500)
        start = clock()
        runtime.tick()
        tick_s.append(clock() - start)
        if index % 10 == 0:
            start = clock()
            runtime.metrics_snapshot()
            scrape_s.append(clock() - start)
    runtime.run_for(8.0)
    text = runtime.result().to_json()
    runtime.stop()
    counters = runtime.ingress_counters
    offered = counters["accepted"] + counters["deferred"] + counters["rejected"]
    return PassOutcome(session=runtime.session, result_json=text,
                       offered=offered, runtime=runtime, tick_s=tick_s,
                       scrape_s=scrape_s, db_path=Path(runtime.db_path))


# -- the pinned configs -----------------------------------------------------------

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "bulk-hashchain",
        "data path only: generation, hashing, hashchain absorb/fill, metrics "
        "stamping; net and ledger near zero",
        lambda seed: (Scenario.hashchain().servers(4).rate(20_000)
                      .collector(2000).inject_for(1.25).drain(40)
                      .backend("ideal").seed(seed).build()),
        batch_ready, batch_pass),
    Workload(
        "perelement-vanilla",
        "the paper's reference point: one ledger transaction per element, so "
        "every batching or hashing optimisation is bypassed",
        lambda seed: (Scenario.vanilla().servers(4).rate(20_000)
                      .block_size(8_388_608).block_rate(4).inject_for(1.25)
                      .drain(40).backend("ideal").seed(seed).build()),
        batch_ready, batch_pass),
    Workload(
        "faulted-hashchain",
        "consensus, network, a partition during injection and a crash while "
        "commits are in flight: Request_batch recovery and the safety check",
        # The partition cuts three servers off while clients keep submitting;
        # the crash lands one second after the last submission, with the last
        # four seconds of elements still uncommitted, so recovery (block
        # replay, Request_batch retries against a dead signer) is on the
        # commit path of a fifth of the elements yet no client add is refused
        # by construction of the 1:1 client model.  Named targets and no
        # random message loss: a lost Request_batch plus exponential backoff
        # behind the head-of-line fill queue makes the median latency swing by
        # 30 % from seed to seed, which no bound could resolve.
        lambda seed: (Scenario.hashchain().servers(10).rate(500).collector(100)
                      .inject_for(20).drain(60)
                      .partition(4.0, until=9.0,
                                 nodes=("server-7", "server-8", "server-9"))
                      .crash(21.0, "server-2", until=26.0)
                      .seed(seed).build()),
        batch_ready, batch_pass),
    Workload(
        "service-durable",
        "the same core behind the service ingress: per-element drain, sqlite "
        "block writes, checkpoints and scrapes beside the writes",
        lambda seed: (Scenario.hashchain().servers(4).rate(1).collector(500)
                      .inject_for(1).drain(1).backend("ideal")
                      .seed(seed).build()),
        service_ready, service_pass),
    Workload(
        "overload-1shard",
        "offered load 2.7x past the single-instance knee behind the shard "
        "router: commit starvation, and the router's per-element shard scan",
        lambda seed: (Scenario.hashchain().servers(3).byzantine(f=1).shards(1)
                      .rate(3_500).collector(50)
                      .setchain(element_validation_time=2e-3).block_rate(2.0)
                      .inject_for(20).drain(20).backend("ideal")
                      .seed(seed).build()),
        batch_ready, batch_pass, liveness=False),
)}


# -- reading a finished pass -------------------------------------------------------


def committed_digest(deployment: Any) -> tuple[int, str]:
    """Committed-element count and a digest of ``(epoch, sorted element ids)``
    as the first server of each shard holds them."""
    router = deployment.shard_router
    groups = router.shard_servers if router is not None else [deployment.servers]
    hasher = hashlib.sha256()
    for servers in groups:
        server = servers[0]
        for number in range(1, server.epoch + 1):
            ids = sorted(e.element_id for e in server.epoch_elements(number))
            hasher.update(f"{server.shard_index}|{number}|{ids}".encode())
    return deployment.metrics.committed_count, hasher.hexdigest()


def server_refusals(deployment: Any) -> int:
    """Adds turned down as invalid, or by a crashed or draining server."""
    return sum(s.rejected_elements + s.crashed_rejects + s.drained_rejects
               for s in deployment.servers + deployment.departed_servers)


def refused(outcome: PassOutcome) -> int:
    """Offered elements no server admitted: the operations that failed."""
    deployment = outcome.deployment
    count = server_refusals(deployment)
    if deployment.shard_router is not None:
        count += deployment.shard_router.rejected
    if outcome.runtime is not None:
        count += outcome.runtime.rejected
    return count


def simulated_metrics(outcome: PassOutcome) -> dict[str, float]:
    """The four simulated-time end-to-end metrics plus their sample count."""
    deployment = outcome.deployment
    records = deployment.metrics.elements
    end = deployment.sim.now
    stamps = [records[e.element_id] for e in deployment.injected_elements]
    latencies = censored_latencies([r.injected_at for r in stamps],
                                   [r.committed_at for r in stamps],
                                   end, outcome.offered)
    committed = deployment.metrics.committed_count
    return {
        "sim_latency_p50_s": percentile(latencies, 0.50),
        "sim_latency_p99_s": percentile(latencies, 0.99),
        "sim_goodput_el_per_s": committed / end,
        "commit_fraction": committed / outcome.offered,
        "latency_samples": len(latencies),
    }


def layer_counters(outcome: PassOutcome) -> dict[str, float]:
    """Work counts read off the finished deployment, by layer."""
    deployment = outcome.deployment
    offered = outcome.offered
    servers = deployment.servers
    metrics = deployment.metrics
    scheme = deployment.scheme
    backend = deployment.ledger_backend
    network = deployment.network
    router = deployment.shard_router

    def total(attribute: str) -> int:
        return sum(getattr(server, attribute, 0) for server in servers)

    collectors = [s.collector for s in servers if hasattr(s, "collector")]
    flush_sizes = [flush.n_items for flush in metrics.batch_flushes]
    nodes = getattr(backend, "nodes", None)
    if nodes:  # CometBFT: every validator holds the chain; read the longest
        chain = max((node.committed_blocks for node in nodes.values()), key=len)
        mempool_rejected = sum(node.mempool.rejected for node in nodes.values())
    else:
        chain, mempool_rejected = backend.blocks, 0
    txs = sum(len(block.transactions) for block in chain)
    verifies = scheme.cache_hits + scheme.cache_misses
    counters: dict[str, float] = {
        "workload.elements": sum(c.generator.generated
                                 for c in deployment.clients.clients),
        "crypto.verify_ops": verifies,
        "crypto.verify_cache_hit_ratio": (scheme.cache_hits / verifies
                                          if verifies else 0.0),
        "core.flushes": sum(c.size_flushes + c.timeout_flushes
                            for c in collectors),
        "core.flush_size_mean": (sum(flush_sizes) / len(flush_sizes)
                                 if flush_sizes else 0.0),
        "core.epochs": max(server.epoch for server in servers),
        "core.batch_requests_sent": total("batch_requests_sent"),
        "core.batch_request_retries": total("batch_request_retries"),
        "core.scan_cache_hits": total("scan_cache_hits"),
        "core.rejected_elements": server_refusals(deployment),
        "ledger.blocks": len(chain),
        "ledger.txs": txs,
        "ledger.tx_per_block_mean": txs / len(chain) if chain else 0.0,
        "ledger.mempool_rejected": mempool_rejected,
        "sim.events": deployment.sim.events_executed,
        "sim.events_per_el": deployment.sim.events_executed / offered,
        "net.messages_delivered": network.messages_delivered,
        "net.messages_dropped": network.messages_dropped,
        "net.bytes_delivered": network.bytes_delivered,
        "net.messages_per_el": network.messages_delivered / offered,
        "shard.routed": router.routed if router is not None else 0,
        "shard.deferred": router.deferred if router is not None else 0,
        "shard.rejected": router.rejected if router is not None else 0,
        "analysis.records": len(metrics.elements),
        "api.result_bytes": len(outcome.result_json.encode()),
    }
    injector = deployment.fault_injector
    report = injector.report() if injector is not None else None
    recoveries = [entry["recovery_s"] for entry in report["recovery"]
                  if entry["recovery_s"] is not None] if report else []
    counters["faults.events_applied"] = len(injector.applied) if injector else 0
    counters["faults.recovery_to_first_commit_s"] = max(recoveries, default=0.0)
    counters["faults.commit_latency_during_s"] = (
        (report["commit_latency_s"]["during_faults"] or 0.0) if report else 0.0)
    runtime = outcome.runtime
    ingress = runtime.ingress_counters if runtime is not None else {}
    for verdict in ("accepted", "deferred", "rejected"):
        counters[f"service.{verdict}"] = ingress.get(verdict, 0)
    return counters


# -- output checks (untimed) ---------------------------------------------------------


def check_properties(workload: Workload, outcome: PassOutcome) -> list[str]:
    """Properties 1-8 over the final views (1-7 where the run does not reach
    quiescence); sharded deployments are also checked on the merged view."""
    deployment = outcome.deployment
    found = [str(v) for v in
             deployment.check_properties(include_liveness=workload.liveness)]
    if deployment.shard_router is not None:
        found += [str(v) for v in outcome.session.check_logical_properties(
            include_liveness=workload.liveness)]
    return found


def check_durable(config: ExperimentConfig, outcome: PassOutcome) -> list[str]:
    """Re-open the pass's database: the chain audits clean and the recovered
    prefix is exactly what the pass had committed."""
    committed, digest = committed_digest(outcome.deployment)
    height = outcome.deployment.ledger_backend.height
    problems: list[str] = []
    audit = audit_chain(outcome.db_path)
    if not audit["contiguous"] or audit["height"] != height:
        problems.append(f"audit_chain: height {audit['height']} != {height}")
    reopened = open_runtime(config, outcome.db_path)
    try:
        reopened.run_for(1.0)  # let the replayed blocks flow through
        if reopened.recovered_blocks != height:
            problems.append(f"recovered {reopened.recovered_blocks} blocks, "
                            f"persisted {height}")
        if committed_digest(reopened.deployment) != (committed, digest):
            problems.append("recovered prefix differs from what was committed")
    finally:
        reopened.stop()
    return problems


def database_facts(db_path: Path | None) -> dict[str, float]:
    if db_path is None:
        return {"service.batches_journaled": 0, "service.db_bytes": 0}
    return {"service.batches_journaled": audit_chain(db_path)["batches_journaled"],
            "service.db_bytes": os.path.getsize(db_path)}
