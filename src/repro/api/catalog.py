"""The built-in scenario catalog.

Importing this module — done lazily by the registry on its first access, see
``registry._ensure_catalog`` — populates the registry with:

* ``base`` — the paper's base evaluation point;
* ``table1/...`` — the full Table 1 parameter grid for every algorithm;
* ``figure1/...``, ``figure2/...``, ``figure4/...`` — each figure's scenario
  set from the evaluation section;
* ``stress/...`` — saturation scenarios past the analytical ceilings;
* ``byzantine/...`` — runs with an explicit Byzantine tolerance ``f``;
* ``burst/...`` — short high-rate injection spikes with long drains;
* ``wan/...`` — homogeneous clusters split across regions over wide-area links;
* ``geo/...`` — geo-distributed sites with per-pair delay matrices and jitter;
* ``mixed/...`` — heterogeneous clusters (per-region algorithms, one ledger);
* ``chaos/...`` — deterministic fault schedules (:mod:`repro.faults`):
  partitions, crash/recovery, churn, loss, duplication, delay spikes;
* ``byz/...`` — Byzantine nemeses as schedule events: servers turning
  Byzantine (withhold/wrong-hash/invalid-element/equivocate/silent) and back
  mid-run, alone and mixed with crash/partition/loss timelines;
* ``member/...`` — dynamic membership: servers joining under load (state
  transfer + catch-up), draining leaves, replacements, and elastic
  grow/shrink timelines, alone and mixed with crash/partition/Byzantine
  nemeses;
* ``shard/...`` — hash-partitioned scale-out (:mod:`repro.shard`): 1/2/4/8
  isolated Setchain instances behind the deterministic shard router, at
  rates past what one instance sustains, plus elastic add-shard-under-load
  and drain-whole-shard timelines;
* ``bench/...`` — fixed-size runs, one per hot layer of the simulator (the
  goldens, the manifests and ``python -m repro.obs profile`` name them);
* ``quickstart`` / ``smoke`` — small scenarios that finish in seconds.

The Table 1 and figure entries capture configs built once here, at catalog
import, because both are derived from the grid enumerations the experiment
harness itself uses (``config.table1_grid``, ``experiments.scenarios``) —
building all ~200 frozen configs costs a few milliseconds, paid once.
"""

from __future__ import annotations

from ..config import table1_grid
from ..experiments.scenarios import (
    figure1_scenarios,
    figure2_left_scenarios,
    figure4_scenarios,
)
from .builder import Scenario
from .registry import register_scenario

# -- base point ---------------------------------------------------------------

register_scenario(
    "base", tags=("paper", "base"),
    description="Paper base point: hashchain, 10 servers, 10k el/s, no delay",
)(lambda: Scenario.hashchain())


# -- Table 1 grid -------------------------------------------------------------
# Derived from config.table1_grid() — the same enumeration the sweep harness
# uses — so the registry names can never drift from the grid definition.

def _register_table1_grid() -> None:
    for config in table1_grid():
        algorithm = config.algorithm
        rate = config.workload.sending_rate
        servers = config.setchain.n_servers
        delay = config.ledger.network_delay * 1000.0
        collector = config.setchain.collector_limit
        name = f"table1/{algorithm}/r{rate:g}-n{servers}-d{delay:g}"
        description = (f"Table 1: {algorithm}, {rate:g} el/s, "
                       f"{servers} servers, {delay:g} ms delay")
        if algorithm != "vanilla":
            name += f"-c{collector}"
            description += f", collector {collector}"
        register_scenario(
            name, tags=("paper", "table1", algorithm),
            description=description,
        )(lambda c=config: c)


_register_table1_grid()


# -- figure scenario sets -----------------------------------------------------
# Derived from the experiment harness's own grids (experiments/scenarios.py)
# so the CLI and the figure regenerators can never drift apart.

def _register_figures() -> None:
    for panel, configs in figure1_scenarios().items():
        for config in configs:
            register_scenario(
                f"figure1/{panel}/{config.algorithm}",
                tags=("paper", "figure1", config.algorithm),
                description=f"Fig. 1 {panel}: {config.label}",
            )(lambda c=config: c)
    for config in figure2_left_scenarios():
        register_scenario(
            f"figure2/{config.algorithm}",
            tags=("paper", "figure2", config.algorithm),
            description=f"Fig. 2 left: {config.label}",
        )(lambda c=config: c)
    for config in figure4_scenarios():
        register_scenario(
            f"figure4/{config.algorithm}",
            tags=("paper", "figure4", config.algorithm),
            description=f"Fig. 4 latency CDF: {config.label}",
        )(lambda c=config: c)


_register_figures()


# -- stress -------------------------------------------------------------------

register_scenario(
    "stress/hashchain-2x-ceiling", tags=("stress", "hashchain"),
    description="Hashchain at 40k el/s, twice the hash-reversal ceiling",
)(lambda: Scenario.hashchain().rate(40_000).collector(500))

register_scenario(
    "stress/vanilla-overload", tags=("stress", "vanilla"),
    description="Vanilla at 20k el/s, far past its block-bandwidth bound",
)(lambda: Scenario.vanilla().rate(20_000))

register_scenario(
    "stress/tiny-blocks", tags=("stress", "hashchain"),
    description="Hashchain with 64 KiB blocks: ledger bandwidth as bottleneck",
)(lambda: Scenario.hashchain().rate(10_000).block_size(64 * 1024))


# -- byzantine tolerance ------------------------------------------------------

register_scenario(
    "byzantine/f1-n4", tags=("byzantine", "hashchain"),
    description="4 hashchain servers tolerating f=1 (quorum 2)",
)(lambda: Scenario.hashchain().servers(4).byzantine(f=1).rate(1_000))

register_scenario(
    "byzantine/f4-n10", tags=("byzantine", "hashchain"),
    description="10 hashchain servers at the maximum f=4 (quorum 5)",
)(lambda: Scenario.hashchain().servers(10).byzantine(f=4))

register_scenario(
    "byzantine/f0-trusted", tags=("byzantine", "compresschain"),
    description="Fully trusted 7-server compresschain cluster (f=0, quorum 1)",
)(lambda: Scenario.compresschain().servers(7).byzantine(f=0))


# -- burst workloads ----------------------------------------------------------

register_scenario(
    "burst/spike-5s", tags=("burst", "hashchain"),
    description="5-second 50k el/s spike into hashchain, then a long drain",
)(lambda: Scenario.hashchain().rate(50_000).collector(500)
  .inject_for(5).drain(145))

register_scenario(
    "burst/spike-10s-compresschain", tags=("burst", "compresschain"),
    description="10-second 20k el/s spike into compresschain, collector 500",
)(lambda: Scenario.compresschain().rate(20_000).collector(500)
  .inject_for(10).drain(140))


# -- fixed-size scenarios, one per hot layer -------------------------------------
# The ``bench-smoke`` set exercises every hot layer of the simulator: the
# event loop (heavy hashchain run), the batching/hashing path (compresschain),
# the per-element ledger path (vanilla), and the real-EdDSA code path
# (ed25519).  These definitions are pinned — tests/golden/bench__*.json and the
# Vanilla and trace manifests record their artifacts byte for byte.  Wall-clock
# numbers come from the workloads of BENCHMARK.json, not from here.

register_scenario(
    "bench/hashchain-base", tags=("bench", "bench-smoke"),
    description="Bench: 7-server hashchain, 400 el/s for 15 s",
)(lambda: Scenario.hashchain().servers(7).rate(400).collector(50)
  .inject_for(15).drain(60))

register_scenario(
    "bench/hashchain-heavy", tags=("bench", "bench-smoke"),
    description="Bench: 10-server hashchain, 1000 el/s for 20 s (event-loop heavy)",
)(lambda: Scenario.hashchain().servers(10).rate(1000).collector(100)
  .inject_for(20).drain(80))

register_scenario(
    "bench/compresschain", tags=("bench", "bench-smoke"),
    description="Bench: 4-server compresschain, 800 el/s for 20 s",
)(lambda: Scenario.compresschain().servers(4).rate(800).collector(50)
  .inject_for(20).drain(60))

register_scenario(
    "bench/vanilla", tags=("bench", "bench-smoke"),
    description="Bench: 4-server vanilla, 200 el/s for 20 s",
)(lambda: Scenario.vanilla().servers(4).rate(200).inject_for(20).drain(60))

register_scenario(
    "bench/hashchain-ed25519", tags=("bench", "bench-smoke"),
    description="Bench: 4-server hashchain over real ed25519 signatures",
)(lambda: Scenario.hashchain().servers(4).rate(100).collector(20)
  .inject_for(5).drain(40).signature("ed25519"))

# The ``bench-million`` set stresses the columnar hot paths at throughput
# scale: one million injected elements per run (50k el/s for 20 s), large
# collectors so flush batches stay thousands of elements wide, and the
# simulated signature scheme so crypto cost does not mask the data-path cost.
# Vanilla appends one ledger transaction per element by design — the very
# bottleneck the Setchain paper's batched variants remove — so its million-
# element run takes minutes where the batched algorithms take tens of
# seconds; that contrast is the measurement, not an accident.  The
# ``million-smoke`` variants cover the same code paths at 100k elements for
# CI wall budgets.

register_scenario(
    "bench/million-hashchain", tags=("bench", "bench-million"),
    description="Bench: 1M elements through 4-server hashchain (50k el/s for 20 s)",
)(lambda: Scenario.hashchain().servers(4).rate(50_000).collector(5000)
  .inject_for(20).drain(120))

register_scenario(
    "bench/million-compresschain", tags=("bench", "bench-million"),
    description="Bench: 1M elements through 4-server compresschain, 8 MiB blocks",
)(lambda: Scenario.compresschain().servers(4).rate(50_000).collector(5000)
  .block_size(8_388_608).block_rate(4).inject_for(20).drain(120))

register_scenario(
    "bench/million-vanilla", tags=("bench", "bench-million"),
    description="Bench: 1M elements through 4-server vanilla (per-element baseline)",
)(lambda: Scenario.vanilla().servers(4).rate(50_000)
  .block_size(8_388_608).block_rate(4).inject_for(20).drain(240))

register_scenario(
    "bench/million-smoke-hashchain", tags=("bench", "million-smoke"),
    description="CI smoke: 100k elements through 4-server hashchain",
)(lambda: Scenario.hashchain().servers(4).rate(20_000).collector(2000)
  .inject_for(5).drain(40))

register_scenario(
    "bench/million-smoke-compresschain", tags=("bench", "million-smoke"),
    description="CI smoke: 100k elements through 4-server compresschain",
)(lambda: Scenario.compresschain().servers(4).rate(20_000).collector(2000)
  .block_size(8_388_608).block_rate(4).inject_for(5).drain(40))

register_scenario(
    "bench/million-smoke-vanilla", tags=("bench", "million-smoke"),
    description="CI smoke: 100k elements through 4-server vanilla",
)(lambda: Scenario.vanilla().servers(4).rate(20_000)
  .block_size(8_388_608).block_rate(4).inject_for(5).drain(40))


# -- wide-area topologies (repro.topology) ------------------------------------
# Homogeneous clusters spread across regions with tens-of-milliseconds
# inter-region links (the geo-distribution discussion of the paper's §5),
# modelling per-region link quality rather than the single uniform
# network_delay knob of Table 1.

def _register_wan() -> None:
    for algorithm in ("vanilla", "compresschain", "hashchain"):
        for delay_ms in (30, 60, 100):
            register_scenario(
                f"wan/{algorithm}/2region-d{delay_ms}",
                tags=("wan", "topology", algorithm),
                description=(f"{algorithm} split 5+5 across two regions, "
                             f"{delay_ms} ms inter-region delay"),
            )(lambda a=algorithm, d=delay_ms: Scenario(a)
              .region("us-east", 5).region("eu-west", 5)
              .wan(inter_ms=d, jitter_ms=d / 5).rate(5_000))
    for delay_ms in (30, 60, 100):
        register_scenario(
            f"wan/hashchain/3region-d{delay_ms}",
            tags=("wan", "topology", "hashchain"),
            description=(f"hashchain split 4+3+3 across three regions, "
                         f"{delay_ms} ms inter-region delay"),
        )(lambda d=delay_ms: Scenario.hashchain()
          .region("us-east", 4).region("eu-west", 3).region("ap-south", 3)
          .wan(inter_ms=d, jitter_ms=d / 5).rate(5_000))
    register_scenario(
        "wan/hashchain/wan-intra", tags=("wan", "topology", "hashchain"),
        description="hashchain on WAN links even within the single region",
    )(lambda: Scenario.hashchain().region("site", 10)
      .wan(inter_ms=0, jitter_ms=0, intra="wan").rate(5_000))
    register_scenario(
        "wan/hashchain/smoke", tags=("wan", "topology", "hashchain", "ci"),
        description="small 2+2 two-region hashchain over 30 ms links; ~seconds",
    )(lambda: Scenario.hashchain().region("us", 2).region("eu", 2)
      .wan(inter_ms=30, jitter_ms=5).rate(200).collector(20)
      .inject_for(5).drain(40).backend("ideal"))


_register_wan()


# -- geo-distributed delay matrices -------------------------------------------
# Named sites with a per-pair one-way delay matrix (rough transatlantic /
# transpacific figures) instead of one uniform inter-region delay.

def _geo_us_eu_ap(algorithm: str) -> Scenario:
    return (Scenario(algorithm)
            .region("us", 3).region("eu", 3).region("ap", 3)
            .wan(inter_ms=80, jitter_ms=15)
            .link("us", "eu", 40).link("us", "ap", 90).link("eu", "ap", 80)
            .rate(4_500))


def _register_geo() -> None:
    for algorithm in ("vanilla", "compresschain", "hashchain"):
        register_scenario(
            f"geo/{algorithm}/us-eu-ap", tags=("geo", "topology", algorithm),
            description=(f"{algorithm} across us/eu/ap with a measured-style "
                         "delay matrix (40/90/80 ms)"),
        )(lambda a=algorithm: _geo_us_eu_ap(a))
    register_scenario(
        "geo/hashchain/us-eu", tags=("geo", "topology", "hashchain"),
        description="hashchain 5+5 across the Atlantic (40 ms, 10 ms jitter)",
    )(lambda: Scenario.hashchain().region("us", 5).region("eu", 5)
      .wan(inter_ms=40, jitter_ms=10).rate(5_000))
    register_scenario(
        "geo/hashchain/us-eu-ap-c500", tags=("geo", "topology", "hashchain"),
        description="us/eu/ap hashchain with collector 500 (latency amortised)",
    )(lambda: _geo_us_eu_ap("hashchain").collector(500))
    register_scenario(
        "geo/hashchain/global-5", tags=("geo", "topology", "hashchain"),
        description="five 2-server sites, 80 ms default + per-pair overrides",
    )(lambda: Scenario.hashchain()
      .region("us", 2).region("eu", 2).region("ap", 2)
      .region("sa", 2).region("af", 2)
      .wan(inter_ms=80, jitter_ms=20)
      .link("us", "eu", 40).link("us", "sa", 60).link("eu", "af", 50)
      .rate(4_000))
    register_scenario(
        "geo/hashchain/high-jitter", tags=("geo", "topology", "hashchain"),
        description="two regions with 30 ms base but 60 ms jitter (lossy path)",
    )(lambda: Scenario.hashchain().region("us", 5).region("eu", 5)
      .wan(inter_ms=30, jitter_ms=60).rate(5_000))
    register_scenario(
        "geo/hashchain/smoke", tags=("geo", "topology", "hashchain", "ci"),
        description="small us/eu/ap hashchain over the ideal ledger; ~seconds",
    )(lambda: Scenario.hashchain().region("us", 2).region("eu", 1).region("ap", 1)
      .wan(inter_ms=60, jitter_ms=10).link("us", "eu", 40)
      .rate(200).collector(20).inject_for(5).drain(40).backend("ideal"))


_register_geo()


# -- heterogeneous (mixed-algorithm) clusters ---------------------------------
# Per-region algorithm assignment over one shared ledger: each algorithm
# group is its own Setchain instance multi-tenanted on the consensus
# substrate (cross-group epoch agreement is not claimed — see
# Deployment.algorithm_groups).

def _register_mixed() -> None:
    pairs = (("vanilla", "hashchain"), ("vanilla", "compresschain"),
             ("compresschain", "hashchain"))
    for first, second in pairs:
        for n in (4, 6, 10):
            register_scenario(
                f"mixed/{first}-{second}/n{n}",
                tags=("mixed", "topology", first, second),
                description=(f"{n}-server cluster split "
                             f"{n // 2} {first} + {n - n // 2} {second}"),
            )(lambda a=first, b=second, total=n: Scenario(a)
              .region(a, total // 2, a).region(b, total - total // 2, b)
              .rate(2_000).collector(100))
    register_scenario(
        "mixed/tri/n6", tags=("mixed", "topology"),
        description="2 vanilla + 2 compresschain + 2 hashchain on one ledger",
    )(lambda: Scenario.hashchain()
      .mixed(vanilla=2, compresschain=2, hashchain=2).rate(2_000))
    register_scenario(
        "mixed/light/hashchain-vs-light-n4", tags=("mixed", "topology", "hashchain"),
        description="full hashchain beside its light ablation (2+2)",
    )(lambda: Scenario.hashchain().mixed(hashchain=2, hashchain_light=2)
      .rate(2_000))
    register_scenario(
        "mixed/wan/vanilla-hashchain-d60", tags=("mixed", "wan", "topology"),
        description="vanilla region vs hashchain region over 60 ms links",
    )(lambda: Scenario.hashchain()
      .region("legacy", 3, "vanilla").region("modern", 3, "hashchain")
      .wan(inter_ms=60, jitter_ms=10).rate(2_000))
    register_scenario(
        "mixed/wan/compresschain-hashchain-d60", tags=("mixed", "wan", "topology"),
        description="compresschain region vs hashchain region over 60 ms links",
    )(lambda: Scenario.hashchain()
      .region("compress", 3, "compresschain").region("hash", 3, "hashchain")
      .wan(inter_ms=60, jitter_ms=10).rate(2_000))
    register_scenario(
        "mixed/smoke", tags=("mixed", "topology", "ci"),
        description="2 vanilla + 2 hashchain, f=1, ideal ledger; ~seconds",
    )(lambda: Scenario.hashchain().mixed(vanilla=2, hashchain=2)
      .byzantine(f=1).rate(200).collector(20)
      .inject_for(5).drain(60).backend("ideal"))


_register_mixed()


# -- chaos: deterministic fault schedules (repro.faults) ----------------------
# Jepsen-style nemesis timelines over the paper's clusters: every scenario is
# seed-deterministic (the injector draws from a derived RNG stream), so the
# same (scenario, seed) reproduces the same chaos in any process.  Faults are
# placed inside the 50 s injection window with generous drains so recovery
# paths (hashchain Request_batch retries, server block replay, CometBFT
# block-sync) get exercised *and* observed by the resilience metrics.


def _register_chaos() -> None:
    # partitions -------------------------------------------------------------
    for algorithm in ("vanilla", "compresschain", "hashchain"):
        register_scenario(
            f"chaos/partition/minority-{algorithm}",
            tags=("chaos", "faults", "partition", algorithm),
            description=(f"{algorithm}: a random 3-server minority is cut off "
                         "from t=10 s to t=25 s"),
        )(lambda a=algorithm: Scenario(a).rate(2_000)
          .partition(10.0, until=25.0, count=3, role="servers"))
    register_scenario(
        "chaos/partition/majority-hashchain",
        tags=("chaos", "faults", "partition", "hashchain"),
        description="6 of 10 hashchain servers partitioned away for 15 s "
                    "(no server-side quorum across the cut)",
    )(lambda: Scenario.hashchain().rate(2_000)
      .partition(10.0, until=25.0, count=6, role="servers"))
    register_scenario(
        "chaos/partition/flapping",
        tags=("chaos", "faults", "partition", "hashchain"),
        description="a random 3-server minority is re-partitioned every 5 s "
                    "between t=5 s and t=35 s",
    )(lambda: Scenario.hashchain().rate(2_000)
      .partition(5.0, until=35.0, count=3, role="servers", period=5.0))
    register_scenario(
        "chaos/partition/wan-region-split",
        tags=("chaos", "faults", "partition", "wan", "hashchain"),
        description="two-region WAN hashchain; the eu region (servers + "
                    "validators) is cut off from t=10 s to t=30 s",
    )(lambda: Scenario.hashchain().region("us", 5).region("eu", 5)
      .wan(inter_ms=40, jitter_ms=10).rate(2_000)
      .partition(10.0, until=30.0, region="eu"))
    register_scenario(
        "chaos/partition/during-commit",
        tags=("chaos", "faults", "partition", "hashchain"),
        description="short partition dropped exactly across the first "
                    "commit wave (t=12 s to 18 s, collector 500)",
    )(lambda: Scenario.hashchain().rate(2_000).collector(500)
      .partition(12.0, until=18.0, count=4, role="servers"))

    # crashes and recovery ----------------------------------------------------
    for algorithm in ("vanilla", "compresschain", "hashchain"):
        register_scenario(
            f"chaos/crash/one-{algorithm}",
            tags=("chaos", "faults", "crash", algorithm),
            description=(f"{algorithm}: one random server crashes at t=10 s "
                         "and recovers at t=30 s"),
        )(lambda a=algorithm: Scenario(a).rate(2_000)
          .crash(10.0, until=30.0, count=1))
    register_scenario(
        "chaos/crash/f-servers",
        tags=("chaos", "faults", "crash", "hashchain"),
        description="f=4 of 10 hashchain servers crash together for 25 s "
                    "(the Setchain fault budget, exactly)",
    )(lambda: Scenario.hashchain().rate(2_000).crash(10.0, until=35.0, count=4))
    register_scenario(
        "chaos/crash/beyond-f",
        tags=("chaos", "faults", "crash", "hashchain"),
        description="2 of 4 servers crash (beyond f=1): guarantees void "
                    "until recovery, then the cluster catches up",
    )(lambda: Scenario.hashchain().servers(4).rate(1_000)
      .crash(10.0, until=30.0, count=2))
    register_scenario(
        "chaos/crash/rolling-restart",
        tags=("chaos", "faults", "crash", "churn", "hashchain"),
        description="rolling restart: one random server down at a time, "
                    "rotating every 5 s from t=5 s to t=45 s",
    )(lambda: Scenario.hashchain().rate(2_000)
      .churn(5.0, until=45.0, period=5.0, count=1))
    register_scenario(
        "chaos/recovery/hashchain-batch-resync",
        tags=("chaos", "faults", "crash", "recovery", "hashchain"),
        description="one named hashchain server crashes mid-injection and "
                    "replays the missed ledger through Request_batch recovery",
    )(lambda: Scenario.hashchain().servers(4).rate(1_000).collector(50)
      .crash(8.0, "server-3", until=20.0))
    register_scenario(
        "chaos/recovery/compresschain-restart",
        tags=("chaos", "faults", "crash", "recovery", "compresschain"),
        description="one named compresschain server restarts; recovery "
                    "decompresses the missed blocks from the ledger",
    )(lambda: Scenario.compresschain().servers(4).rate(1_000).collector(50)
      .crash(8.0, "server-3", until=20.0))

    # validator churn (consensus-layer faults) --------------------------------
    register_scenario(
        "chaos/churn/validators-at-f",
        tags=("chaos", "faults", "churn", "validators", "hashchain"),
        description="3 of 10 CometBFT validators (the consensus f) rotate "
                    "out every 10 s between t=10 s and t=40 s",
    )(lambda: Scenario.hashchain().rate(2_000)
      .churn(10.0, until=40.0, period=10.0, count=3, role="validators"))
    register_scenario(
        "chaos/churn/validators-beyond-f",
        tags=("chaos", "faults", "churn", "validators", "hashchain"),
        description="4 of 10 validators down at once (beyond the consensus "
                    "f=3): block production stalls until they block-sync back",
    )(lambda: Scenario.hashchain().rate(2_000)
      .churn(10.0, until=30.0, period=10.0, count=4, role="validators"))

    # message-level faults ----------------------------------------------------
    register_scenario(
        "chaos/loss/flaky-1pct",
        tags=("chaos", "faults", "loss", "hashchain"),
        description="1% uniform message loss for the whole run",
    )(lambda: Scenario.hashchain().rate(2_000).loss(0.01))
    register_scenario(
        "chaos/loss/flaky-5pct",
        tags=("chaos", "faults", "loss", "hashchain"),
        description="5% uniform message loss for the whole run",
    )(lambda: Scenario.hashchain().rate(2_000).loss(0.05))
    register_scenario(
        "chaos/loss/wan-10pct",
        tags=("chaos", "faults", "loss", "wan", "hashchain"),
        description="two-region WAN with a 10% loss window from t=5 s to "
                    "t=40 s (degraded connection quality, not the happy path)",
    )(lambda: Scenario.hashchain().region("us", 5).region("eu", 5)
      .wan(inter_ms=40, jitter_ms=10).rate(2_000)
      .loss(0.10, 5.0, until=40.0))
    register_scenario(
        "chaos/dup/gossip-storm",
        tags=("chaos", "faults", "duplicate", "hashchain"),
        description="5% of messages delivered twice (at-least-once "
                    "transport); dedup layers must absorb it",
    )(lambda: Scenario.hashchain().rate(2_000).duplicates(0.05))
    register_scenario(
        "chaos/delay/spike-250ms",
        tags=("chaos", "faults", "delay", "hashchain"),
        description="+250 ms (±50 ms jitter) on every message from t=10 s "
                    "to t=30 s",
    )(lambda: Scenario.hashchain().rate(2_000)
      .delay_spike(250.0, 10.0, until=30.0, jitter_ms=50.0))
    register_scenario(
        "chaos/delay/vanilla-spike",
        tags=("chaos", "faults", "delay", "vanilla"),
        description="vanilla under a +150 ms latency spike from t=10 s to "
                    "t=30 s (per-element appends feel every millisecond)",
    )(lambda: Scenario.vanilla().rate(2_000)
      .delay_spike(150.0, 10.0, until=30.0, jitter_ms=30.0))

    # combined / smoke --------------------------------------------------------
    register_scenario(
        "chaos/combo/partition-then-crash",
        tags=("chaos", "faults", "partition", "crash", "hashchain"),
        description="a minority partition (t=8-16 s) followed by a server "
                    "crash (t=20-30 s) with 2% background loss",
    )(lambda: Scenario.hashchain().rate(2_000)
      .partition(8.0, until=16.0, count=3, role="servers")
      .crash(20.0, until=30.0, count=1).loss(0.02))
    register_scenario(
        "chaos/smoke",
        tags=("chaos", "faults", "ci"),
        description="small 4-server hashchain over the ideal ledger with a "
                    "crash+recover and a brief partition; ~seconds",
    )(lambda: Scenario.hashchain().servers(4).rate(200).collector(20)
      .inject_for(5).drain(60).backend("ideal")
      .crash(1.0, "server-3", until=3.0)
      .partition(2.0, until=4.0, count=1, role="servers"))


_register_chaos()


# -- byz: Byzantine nemeses as schedule events (repro.faults + core.byzantine) --
# Servers turn Byzantine and back mid-run under the deterministic injector,
# alone and mixed with crash/partition/loss nemeses.  Every schedule stays
# within the f-budget (Byzantine + crashed servers < quorum at every instant
# — enforced at build time and again as each fault applies), so Properties
# 1-8 keep holding at the never-faulty servers.


def _register_byz() -> None:
    # single-behaviour windows, one per behaviour/algorithm pairing ----------
    register_scenario(
        "byz/withhold/one-hashchain",
        tags=("byz", "byzantine", "faults", "hashchain"),
        description="one named hashchain server withholds Request_batch "
                    "replies from t=10 s to t=30 s, then serves its buffer",
    )(lambda: Scenario.hashchain().rate(2_000)
      .become_byzantine(10.0, "server-9", behaviour="withhold", until=30.0))
    register_scenario(
        "byz/withhold/f-max",
        tags=("byz", "byzantine", "faults", "hashchain"),
        description="f=4 of 10 hashchain servers withhold together for 40 s "
                    "(the full Byzantine budget, exactly)",
    )(lambda: Scenario.hashchain().rate(2_000)
      .become_byzantine(5.0, count=4, behaviour="withhold", until=45.0))
    register_scenario(
        "byz/wrong-hash/one-hashchain",
        tags=("byz", "byzantine", "faults", "hashchain"),
        description="one random hashchain server appends unservable bogus "
                    "hash-batches from t=10 s to t=40 s",
    )(lambda: Scenario.hashchain().rate(2_000)
      .become_byzantine(10.0, count=1, behaviour="wrong-hash", until=40.0))
    register_scenario(
        "byz/silent/one-vanilla",
        tags=("byz", "byzantine", "faults", "vanilla"),
        description="one vanilla server silently drops its clients' "
                    "elements from t=10 s to t=30 s",
    )(lambda: Scenario.vanilla().rate(2_000)
      .become_byzantine(10.0, "server-9", behaviour="silent", until=30.0))
    register_scenario(
        "byz/silent/one-compresschain",
        tags=("byz", "byzantine", "faults", "compresschain"),
        description="one random compresschain server goes silent from "
                    "t=10 s to t=30 s",
    )(lambda: Scenario.compresschain().rate(2_000)
      .become_byzantine(10.0, count=1, behaviour="silent", until=30.0))
    register_scenario(
        "byz/equivocate/one-vanilla",
        tags=("byz", "byzantine", "faults", "vanilla"),
        description="one vanilla server signs epoch-proofs over garbage "
                    "hashes from t=10 s to t=35 s",
    )(lambda: Scenario.vanilla().rate(2_000)
      .become_byzantine(10.0, count=1, behaviour="equivocate", until=35.0))
    register_scenario(
        "byz/equivocate/one-hashchain",
        tags=("byz", "byzantine", "faults", "hashchain"),
        description="one hashchain server batches equivocating epoch-proofs "
                    "from t=10 s to t=35 s",
    )(lambda: Scenario.hashchain().rate(2_000)
      .become_byzantine(10.0, count=1, behaviour="equivocate", until=35.0))
    register_scenario(
        "byz/invalid/flooder-vanilla",
        tags=("byz", "byzantine", "faults", "vanilla"),
        description="one vanilla server floods the ledger with invalid "
                    "elements alongside normal traffic (t=10 s to t=30 s)",
    )(lambda: Scenario.vanilla().rate(2_000)
      .become_byzantine(10.0, count=1, behaviour="invalid-element",
                        until=30.0))

    # crash + partition + Byzantine in one timeline --------------------------
    register_scenario(
        "byz/combo/crash-and-withhold",
        tags=("byz", "byzantine", "faults", "crash", "hashchain"),
        description="a crash window (t=10-25 s) overlapping a withholding "
                    "server (t=15-35 s): 2 of 10 faulty, within f=4",
    )(lambda: Scenario.hashchain().rate(2_000)
      .crash(10.0, until=25.0, count=1)
      .become_byzantine(15.0, "server-0", behaviour="withhold", until=35.0))
    register_scenario(
        "byz/combo/partition-and-silent",
        tags=("byz", "byzantine", "faults", "partition", "hashchain"),
        description="a silent server (t=5-40 s) while a random 3-server "
                    "minority is partitioned away (t=10-20 s)",
    )(lambda: Scenario.hashchain().rate(2_000)
      .become_byzantine(5.0, count=1, behaviour="silent", until=40.0)
      .partition(10.0, until=20.0, count=3, role="servers"))
    register_scenario(
        "byz/combo/full-nemesis",
        tags=("byz", "byzantine", "faults", "crash", "partition", "hashchain"),
        description="withholding server (t=10-35 s) + minority partition "
                    "(t=8-16 s) + crash (t=20-30 s) + 2% background loss",
    )(lambda: Scenario.hashchain().rate(2_000)
      .become_byzantine(10.0, "server-9", behaviour="withhold", until=35.0)
      .partition(8.0, until=16.0, count=3, role="servers")
      .crash(20.0, until=30.0, count=1)
      .loss(0.02))

    # turning back: BecomeCorrect and serial behaviours ----------------------
    register_scenario(
        "byz/flip/withhold-recover",
        tags=("byz", "byzantine", "faults", "recovery", "hashchain"),
        description="a 4-server hashchain cluster where server-3 withholds "
                    "from t=8 s and reverts at t=20 s, replaying its "
                    "buffered Request_batch replies",
    )(lambda: Scenario.hashchain().servers(4).rate(1_000).collector(50)
      .become_byzantine(8.0, "server-3", behaviour="withhold", until=20.0))
    register_scenario(
        "byz/flip/serial-behaviours",
        tags=("byz", "byzantine", "faults", "hashchain"),
        description="the same server withholds (t=5-15 s) and later "
                    "equivocates (t=20-30 s) — two behaviours, one run",
    )(lambda: Scenario.hashchain().rate(2_000)
      .become_byzantine(5.0, "server-9", behaviour="withhold", until=15.0)
      .become_byzantine(20.0, "server-9", behaviour="equivocate", until=30.0))
    register_scenario(
        "byz/random/rotation",
        tags=("byz", "byzantine", "faults", "hashchain"),
        description="two random servers go silent (t=10-25 s), then two "
                    "random servers withhold (t=30-45 s)",
    )(lambda: Scenario.hashchain().rate(2_000)
      .become_byzantine(10.0, count=2, behaviour="silent", until=25.0)
      .become_byzantine(30.0, count=2, behaviour="withhold", until=45.0))

    # small, fast (CI / golden) ----------------------------------------------
    register_scenario(
        "byz/smoke",
        tags=("byz", "byzantine", "faults", "ci"),
        description="small 4-server hashchain over the ideal ledger: a "
                    "withhold window then a crash window; ~seconds",
    )(lambda: Scenario.hashchain().servers(4).rate(200).collector(20)
      .inject_for(5).drain(60).backend("ideal")
      .become_byzantine(1.0, "server-3", behaviour="withhold", until=2.5)
      .crash(3.0, "server-2", until=4.0))
    register_scenario(
        "byz/golden/vanilla-silent",
        tags=("byz", "byzantine", "faults", "vanilla", "ci"),
        description="small 4-server vanilla over the ideal ledger with a "
                    "silent window; ~seconds (golden artifact)",
    )(lambda: Scenario.vanilla().servers(4).rate(200)
      .inject_for(5).drain(40).backend("ideal")
      .become_byzantine(1.0, "server-3", behaviour="silent", until=3.0))
    register_scenario(
        "byz/golden/compresschain-equivocate",
        tags=("byz", "byzantine", "faults", "compresschain", "ci"),
        description="small 4-server compresschain over the ideal ledger "
                    "with an equivocation window; ~seconds (golden artifact)",
    )(lambda: Scenario.compresschain().servers(4).rate(200).collector(20)
      .inject_for(5).drain(40).backend("ideal")
      .become_byzantine(1.0, "server-3", behaviour="equivocate", until=3.0))


_register_byz()


# -- member: dynamic membership (runtime join/leave, repro.core.membership) ----
# Servers join under load (ledger replay + batch-store priming before they
# count toward quorums) and leave by draining (flush, hand off, retire) as
# schedule events under the same deterministic injector as the chaos/byz
# families.  Every scenario here is part of the ``membership-smoke`` byte-
# identity check (sweep --jobs 1 vs --jobs 4), so they all finish in seconds.


def _register_member() -> None:
    # joins under load --------------------------------------------------------
    for algorithm in ("hashchain", "compresschain"):
        register_scenario(
            f"member/join/{algorithm}-under-load",
            tags=("member", "membership", "faults", algorithm, "ci"),
            description=(f"{algorithm}: a 5th server joins at t=2 s while "
                         "injection is live, block-syncs the committed "
                         "chain, and enters the quorum once caught up"),
        )(lambda a=algorithm: Scenario(a).servers(4).rate(400).collector(20)
          .inject_for(6).drain(50).backend("ideal")
          .join(2.0))
    register_scenario(
        "member/join/vanilla-pair",
        tags=("member", "membership", "faults", "vanilla", "ci"),
        description="vanilla: two servers join back-to-back (t=2 s, t=3 s) "
                    "under load, growing the cluster from 4 to 6",
    )(lambda: Scenario.vanilla().servers(4).rate(300)
      .inject_for(6).drain(50).backend("ideal")
      .join(2.0).join(3.0))

    # draining leaves ---------------------------------------------------------
    register_scenario(
        "member/leave/drain-one",
        tags=("member", "membership", "faults", "hashchain", "ci"),
        description="hashchain: server-3 drains out at t=3 s — stops "
                    "accepting, flushes its collector, hands off its batch "
                    "store, and retires (distinct from a crash)",
    )(lambda: Scenario.hashchain().servers(5).rate(400).collector(20)
      .inject_for(6).drain(50).backend("ideal")
      .leave(3.0, "server-3"))
    register_scenario(
        "member/leave/immediate",
        tags=("member", "membership", "faults", "hashchain", "ci"),
        description="hashchain: server-3 leaves at t=3 s without draining "
                    "(operator-forced removal; in-flight work is abandoned)",
    )(lambda: Scenario.hashchain().servers(5).rate(400).collector(20)
      .inject_for(6).drain(50).backend("ideal")
      .leave(3.0, "server-3", drain=False))

    # elastic reshaping -------------------------------------------------------
    register_scenario(
        "member/elastic/grow-then-shrink",
        tags=("member", "membership", "faults", "hashchain", "ci"),
        description="hashchain: grow 4 -> 6 (joins at t=1.5 s and t=2.5 s), "
                    "then drain one original server at t=4 s",
    )(lambda: Scenario.hashchain().servers(4).rate(400).collector(20)
      .inject_for(6).drain(50).backend("ideal")
      .join(1.5).join(2.5).leave(4.0, "server-1"))
    register_scenario(
        "member/replace/server",
        tags=("member", "membership", "faults", "compresschain", "ci"),
        description="compresschain: a replacement joins at t=2 s, then the "
                    "server it replaces drains out at t=4 s (rolling swap)",
    )(lambda: Scenario.compresschain().servers(4).rate(300).collector(20)
      .inject_for(6).drain(50).backend("ideal")
      .join(2.0).leave(4.0, "server-0"))
    register_scenario(
        "member/replace/validator",
        tags=("member", "membership", "faults", "validators", "hashchain"),
        description="CometBFT-backed: the joining server brings a co-located "
                    "validator (set change activates two blocks later); the "
                    "drained server retires its validator the same way",
    )(lambda: Scenario.hashchain().servers(4).rate(200).collector(20)
      .inject_for(5).drain(45)
      .join(1.5).leave(3.5, "server-2"))

    # membership mixed with nemeses -------------------------------------------
    register_scenario(
        "member/combo/grow-then-partition",
        tags=("member", "membership", "faults", "partition", "hashchain", "ci"),
        description="hashchain: a server joins at t=1.5 s, then a random "
                    "2-server minority of the grown cluster is partitioned "
                    "away from t=3 s to t=4.5 s",
    )(lambda: Scenario.hashchain().servers(4).rate(400).collector(20)
      .inject_for(6).drain(50).backend("ideal")
      .join(1.5).partition(3.0, until=4.5, count=2, role="servers"))
    register_scenario(
        "member/budget/join-before-crash",
        tags=("member", "membership", "faults", "crash", "byzantine",
              "hashchain", "ci"),
        description="legal only because the join lands first: at n=4 a "
                    "Byzantine window plus a crash would bust f=1, but the "
                    "t=1 s join makes n=5 (f=2) before either starts",
    )(lambda: Scenario.hashchain().servers(4).rate(300).collector(20)
      .inject_for(6).drain(50).backend("ideal")
      .join(1.0)
      .become_byzantine(2.0, "server-1", behaviour="withhold", until=4.0)
      .crash(2.5, "server-2", until=3.5))
    register_scenario(
        "member/byz/join-covers-byzantine",
        tags=("member", "membership", "faults", "byzantine", "hashchain",
              "ci"),
        description="a joined server restores quorum headroom while an "
                    "original server equivocates (t=2.5-4.5 s)",
    )(lambda: Scenario.hashchain().servers(4).rate(300).collector(20)
      .inject_for(6).drain(50).backend("ideal")
      .join(1.0)
      .become_byzantine(2.5, "server-3", behaviour="equivocate", until=4.5))

    # service-shaped and smoke ------------------------------------------------
    register_scenario(
        "member/service/elastic",
        tags=("member", "membership", "service", "faults", "hashchain"),
        description="elastic service drill: start at n=4, join two servers "
                    "under load (t=2 s, t=4 s), drain one original at "
                    "t=8 s; also runs under `repro serve`",
    )(lambda: Scenario.hashchain().servers(4).rate(300).collector(25)
      .inject_for(10).drain(80).backend("ideal")
      .join(2.0).join(4.0).leave(8.0, "server-2"))
    register_scenario(
        "member/smoke",
        tags=("member", "membership", "faults", "ci"),
        description="small 4-server hashchain over the ideal ledger: one "
                    "join then one draining leave; ~seconds",
    )(lambda: Scenario.hashchain().servers(4).rate(200).collector(20)
      .inject_for(5).drain(40).backend("ideal")
      .join(1.0).leave(3.0, "server-1"))


_register_member()


# -- shard: hash-partitioned scale-out (repro.shard) ---------------------------
# N isolated Setchain instances (one algorithm group per shard) over one
# shared ledger, with the deterministic router spreading element ids across
# them.  The scale/ scenarios raise the per-element validation cost so a
# single instance saturates around ~1300 el/s committed, then offer
# 3500 el/s: one shard collapses under the backlog, two commit a few times
# more, four sustain the full offered rate, and eight are offered-bound
# (tests/test_shard.py pins the claim at a smaller size).


def _register_shard() -> None:
    for count in (1, 2, 4, 8):
        register_scenario(
            f"shard/scale/s{count}",
            tags=("shard", "scale", "hashchain", "bench-shard"),
            description=(f"{count}-shard hashchain (3 servers each, f=1) at "
                         "3500 el/s, past one instance's ~1300 el/s ceiling"),
        )(lambda k=count: Scenario.hashchain().servers(3).byzantine(f=1)
          .shards(k).rate(3_500).collector(50)
          .setchain(element_validation_time=2e-3).block_rate(2.0)
          .inject_for(8).drain(10).backend("ideal"))
    register_scenario(
        "shard/elastic/add-shard-under-load",
        tags=("shard", "elastic", "membership", "faults", "hashchain", "ci"),
        description="2 shards of 3 under load; three joins (t=1.5/2/2.5 s) "
                    "open a third shard, which starts taking traffic once "
                    "a quorum of its joiners has caught up",
    )(lambda: Scenario.hashchain().servers(3).byzantine(f=1).shards(2)
      .rate(600).collector(20).inject_for(6).drain(40).backend("ideal")
      .join(1.5).join(2.0).join(2.5))
    register_scenario(
        "shard/elastic/retire-shard",
        tags=("shard", "elastic", "membership", "faults", "hashchain", "ci"),
        description="3 shards of 3; shard 0 drains out whole at t=3 s "
                    "(simultaneous leaves) — ingress re-hashes over the "
                    "surviving shards while in-flight elements finish",
    )(lambda: Scenario.hashchain().servers(3).byzantine(f=1).shards(3)
      .rate(600).collector(20).inject_for(6).drain(40).backend("ideal")
      .leave(3.0, "server-0", "server-1", "server-2"))
    register_scenario(
        "shard/smoke",
        tags=("shard", "ci"),
        description="small 2-shard hashchain (2 servers each) over the "
                    "ideal ledger; ~seconds",
    )(lambda: Scenario.hashchain().servers(2).shards(2).rate(300)
      .collector(20).inject_for(5).drain(30).backend("ideal"))


_register_shard()


# -- small, fast scenarios ----------------------------------------------------

register_scenario(
    "quickstart", tags=("demo",),
    description="4-server hashchain, 200 el/s for 10 s — the examples/ scenario",
)(lambda: Scenario.hashchain().servers(4).rate(200).collector(25)
  .inject_for(10).drain(60))

register_scenario(
    "smoke", tags=("demo", "ci"),
    description="Minimal 4-server run over the ideal ledger; finishes in ~1 s",
)(lambda: Scenario.hashchain().servers(4).rate(100).collector(10)
  .inject_for(5).drain(30).backend("ideal"))


# -- service/ family ----------------------------------------------------------
# Long-running-service shapes (rolling restarts, sustained overload, soak
# horizons); defined next to the service runtime they are meant to drive.

from ..service.scenarios import register_service_family  # noqa: E402

register_service_family()
