"""The deployment architecture: component tables, topologies, regions.

Covers the algorithm/ledger/latency tables (validation and construction
read the same table), the ``TopologyConfig`` layer, the regional latency
models, the builder knobs (``.region()/.wan()/.link()/.mixed()``), the new
scenario families, and the golden byte-identity guarantee for legacy
homogeneous configs.
"""

from __future__ import annotations

from pathlib import Path
from unittest import mock

import pytest

from repro.api import RunResult, Scenario, run
from repro.api.catalog import SCENARIOS, select
from repro.api.cli import main
from repro.api.parallel import reset_run_counters
from repro.config import ExperimentConfig, RegionSpec, SetchainConfig, TopologyConfig
from repro.core.deployment import Deployment, build_deployment, build_latency
from repro.core.vanilla import VanillaServer
from repro.errors import ConfigurationError
from repro.net.latency import RegionalLatency
from repro.sim.rng import DeterministicRNG
from repro.topology.components import ALGORITHMS, LATENCY_PROFILES, LEDGER_BACKENDS

from conftest import ConstantLatency

GOLDEN_DIR = Path(__file__).parent / "golden"

# (registered scenario, golden artifact) pairs spanning the three algorithms,
# captured from the pre-refactor deployment builder.
GOLDEN_RUNS = [
    ("smoke", "smoke.json"),
    ("bench/vanilla", "bench__vanilla.json"),
    ("bench/compresschain", "bench__compresschain.json"),
]


# -- golden byte-identity ------------------------------------------------------

@pytest.mark.parametrize("scenario,artifact", GOLDEN_RUNS)
def test_legacy_scenarios_are_byte_identical_to_pre_refactor_goldens(
        scenario, artifact):
    """Homogeneous LAN configs must build byte-identical RunResult JSON."""
    reset_run_counters()
    result = run(scenario, seed=7)
    golden = (GOLDEN_DIR / artifact).read_text()
    assert result.to_json() + "\n" == golden


def test_homogeneous_artifacts_carry_no_topology_or_regions_keys():
    reset_run_counters()
    result = run("smoke", seed=3)
    data = result.to_dict()
    assert "topology" not in data["config"]
    assert "regions" not in data
    assert result.regions is None


# -- component tables ----------------------------------------------------------

def test_unknown_algorithm_gets_did_you_mean():
    with pytest.raises(ConfigurationError, match="hashchain"):
        Scenario("hashchian")
    with pytest.raises(ConfigurationError, match="unknown algorithm"):
        ExperimentConfig(algorithm="bitcoin")


def test_unknown_backend_and_profile_get_did_you_mean():
    with pytest.raises(ConfigurationError, match="ideal"):
        Scenario.hashchain().backend("idael")
    with pytest.raises(ConfigurationError, match="wan"):
        Scenario.hashchain().wan(intra="wann")


def test_third_party_algorithm_runs_in_a_deployment_without_core_edits():
    """An ``ALGORITHMS`` entry is valid everywhere a name is and runs e2e."""

    class ShoutingVanillaServer(VanillaServer):
        algorithm = "shouting-vanilla"

    def _build(ctx, name, keypair):
        return ShoutingVanillaServer(name, ctx.sim, ctx.config.setchain,
                                     ctx.scheme, keypair, metrics=ctx.metrics)

    with mock.patch.dict(ALGORITHMS, {"shouting-vanilla": _build}):
        config = (Scenario("shouting-vanilla").servers(4).rate(200)
                  .inject_for(5).drain(40).backend("ideal").build())
        deployment = build_deployment(config)
        assert all(isinstance(s, ShoutingVanillaServer)
                   for s in deployment.servers)
        deployment.start()
        deployment.run_to_completion()
        assert deployment.committed_fraction == 1.0
        assert deployment.check_properties() == []
    with pytest.raises(ConfigurationError):
        Scenario("shouting-vanilla")


def test_third_party_algorithm_in_a_region_of_a_mixed_cluster():
    with mock.patch.dict(ALGORITHMS, {"vanilla-prime": ALGORITHMS["vanilla"]}):
        config = (Scenario.hashchain()
                  .region("prime", 2, "vanilla-prime")
                  .region("hash", 2, "hashchain")
                  .byzantine(f=1).rate(200).collector(20)
                  .inject_for(5).drain(60).backend("ideal").build())
        deployment = build_deployment(config)
        deployment.start()
        deployment.run_to_completion()
        assert deployment.committed_fraction == 1.0
        assert deployment.check_properties() == []


def test_third_party_ledger_backend_and_latency_profile():
    from repro.ledger.ideal import IdealLedger

    def _zero(network_delay):
        return ConstantLatency(base=0.0, extra_delay=network_delay)

    with (mock.patch.dict(LEDGER_BACKENDS, {"ideal-twin": LEDGER_BACKENDS["ideal"]}),
          mock.patch.dict(LATENCY_PROFILES, {"zero": _zero})):
        config = (Scenario.hashchain().region("site", 4)
                  .wan(inter_ms=0, jitter_ms=0, intra="zero")
                  .rate(200).collector(20).inject_for(5).drain(40)
                  .backend("ideal-twin").build())
        assert config.ledger_backend == "ideal-twin"
        deployment = build_deployment(config)
        assert isinstance(deployment.ledger_backend, IdealLedger)
        deployment.start()
        deployment.run_to_completion()
        assert deployment.committed_fraction == 1.0


# -- TopologyConfig ------------------------------------------------------------

def test_topology_validation():
    with pytest.raises(ConfigurationError, match="at least one region"):
        TopologyConfig(regions=())
    with pytest.raises(ConfigurationError, match="duplicate region names"):
        TopologyConfig(regions=(RegionSpec("us", 2), RegionSpec("us", 2)))
    with pytest.raises(ConfigurationError, match="unknown region"):
        TopologyConfig(regions=(RegionSpec("us", 2), RegionSpec("eu", 2)),
                       links=(("us", "mars", 0.04),))
    with pytest.raises(ConfigurationError, match="distinct regions"):
        TopologyConfig(regions=(RegionSpec("us", 2),), links=(("us", "us", 0.01),))
    with pytest.raises(ConfigurationError, match="duplicate link"):
        TopologyConfig(regions=(RegionSpec("us", 2), RegionSpec("eu", 2)),
                       links=(("us", "eu", 0.04), ("eu", "us", 0.08)))
    with pytest.raises(ConfigurationError, match="at least one server"):
        RegionSpec("us", 0)


def test_topology_must_match_n_servers():
    topology = TopologyConfig(regions=(RegionSpec("us", 2), RegionSpec("eu", 2)))
    with pytest.raises(ConfigurationError, match="n_servers"):
        ExperimentConfig(setchain=SetchainConfig(n_servers=10), topology=topology)


def test_topology_rejects_unknown_region_algorithm():
    topology = TopologyConfig(regions=(RegionSpec("us", 4, "no-such-algo"),))
    with pytest.raises(ConfigurationError, match="no-such-algo"):
        ExperimentConfig(setchain=SetchainConfig(n_servers=4), topology=topology)


def test_topology_round_trips_through_dict():
    topology = TopologyConfig(
        regions=(RegionSpec("us", 3, "vanilla"), RegionSpec("eu", 2)),
        intra_profile="wan", inter_delay=0.05, inter_jitter=0.01,
        links=(("us", "eu", 0.04),))
    assert TopologyConfig.from_dict(topology.to_dict()) == topology


def test_assignments_and_heterogeneity():
    topology = TopologyConfig(regions=(RegionSpec("us", 1, "vanilla"),
                                       RegionSpec("eu", 2)))
    assert topology.assignments("hashchain") == [
        ("us", "vanilla"), ("eu", "hashchain"), ("eu", "hashchain")]
    assert topology.is_heterogeneous("hashchain")
    assert not topology.is_heterogeneous("vanilla")


# -- RegionalLatency -----------------------------------------------------------

def test_regional_latency_adds_cross_region_delay():
    rng = DeterministicRNG(1)
    model = RegionalLatency({"a": "us", "b": "us", "c": "eu"},
                            intra=ConstantLatency(base=0.001),
                            inter_delay=0.040)
    assert model.delay(rng, "a", "b", 0) == pytest.approx(0.001)
    assert model.delay(rng, "a", "c", 0) == pytest.approx(0.041)
    # Unknown nodes are treated as co-located.
    assert model.delay(rng, "a", "mystery", 0) == pytest.approx(0.001)


def test_regional_latency_link_matrix_and_jitter():
    rng = DeterministicRNG(2)
    model = RegionalLatency(
        {"a": "us", "b": "eu", "c": "ap"},
        intra=ConstantLatency(base=0.0),
        inter_delay=0.080, inter_jitter=0.010,
        links={frozenset(("us", "eu")): 0.040})
    assert model.pair_delay("us", "eu") == pytest.approx(0.040)
    assert model.pair_delay("us", "ap") == pytest.approx(0.080)
    assert model.pair_delay("us", "us") == 0.0
    for _ in range(50):
        d = model.delay(rng, "a", "b", 0)
        assert 0.040 <= d <= 0.050 + 1e-12


def test_regional_latency_rejects_negative_parameters():
    with pytest.raises(ConfigurationError):
        RegionalLatency({}, intra=ConstantLatency(), inter_delay=-1)
    with pytest.raises(ConfigurationError):
        RegionalLatency({}, intra=ConstantLatency(),
                        links={frozenset(("a", "b")): -0.1})


def test_deployment_colocates_ledger_nodes_with_servers():
    config = (Scenario.hashchain().region("us", 2).region("eu", 2)
              .wan(inter_ms=40, jitter_ms=0).rate(200).build())
    model = build_latency(config)
    assert isinstance(model, RegionalLatency)
    assert model.region_of == {"server-0": "us", "server-1": "us",
                               "server-2": "eu", "server-3": "eu"}
    # Ledger nodes are mapped per handle once the backend builds them, so
    # the co-location works for any backend, not one naming convention.
    deployment = build_deployment(config)
    regional = deployment.network.latency
    assert isinstance(regional, RegionalLatency)
    assert regional.region_of["cometbft-0"] == "us"
    assert regional.region_of["cometbft-3"] == "eu"


# -- builder knobs -------------------------------------------------------------

def test_region_knob_sets_server_count_from_regions():
    config = Scenario.hashchain().region("us", 3).region("eu", 4).build()
    assert config.setchain.n_servers == 7
    assert config.topology.region_names == ("us", "eu")


def test_servers_conflicting_with_regions_is_rejected():
    with pytest.raises(ConfigurationError, match="conflicts"):
        Scenario.hashchain().servers(10).region("us", 2).region("eu", 2).build()


def test_wan_without_regions_is_rejected_at_build():
    with pytest.raises(ConfigurationError, match="declare regions"):
        Scenario.hashchain().wan(inter_ms=60).build()


def test_mixed_knob_builds_one_region_per_algorithm():
    config = Scenario.hashchain().mixed(vanilla=2, hashchain_light=2).build()
    assert config.setchain.n_servers == 4
    assert [(r.name, r.algorithm) for r in config.topology.regions] == [
        ("vanilla", "vanilla"), ("hashchain-light", "hashchain-light")]
    assert config.is_heterogeneous


def test_mixed_rejects_unknown_algorithm_with_hint():
    with pytest.raises(ConfigurationError, match="vanilla"):
        Scenario.hashchain().mixed(vanila=2)
    with pytest.raises(ConfigurationError, match="at least one"):
        Scenario.hashchain().mixed()


def test_builder_from_config_round_trips_topology():
    from repro.api.builder import ScenarioBuilder
    config = (Scenario.hashchain().region("us", 2).region("eu", 2)
              .wan(inter_ms=60, jitter_ms=5).link("us", "eu", 40)
              .rate(500).build())
    rebuilt = ScenarioBuilder.from_config(config).build()
    assert rebuilt.topology == config.topology
    assert rebuilt == config


def test_builder_forks_do_not_alias_topology():
    base = Scenario.hashchain().region("us", 2)
    two = base.region("eu", 2)
    # Forking into `two` must not have mutated `base`'s region list.
    assert base.build().setchain.n_servers == 2
    assert two.build().setchain.n_servers == 4
    with pytest.raises(ConfigurationError, match="conflicts"):
        base.servers(4).build()


# -- results plumbing ----------------------------------------------------------

def test_run_result_regions_round_trip_and_rebuild():
    reset_run_counters()
    result = run("wan/hashchain/smoke", seed=5)
    assert result.regions is not None
    assert set(result.regions) == {"us", "eu"}
    for stats in result.regions.values():
        assert stats["servers"] == 2
        assert stats["added"] > 0
    assert sum(s["committed"] for s in result.regions.values()) == result.committed
    clone = RunResult.from_json(result.to_json())
    assert clone == result
    rebuilt = clone.experiment_config()
    assert rebuilt.topology is not None
    assert rebuilt.topology.region_names == ("us", "eu")


# -- scenario families ---------------------------------------------------------

def test_catalog_registers_at_least_thirty_topology_scenarios():
    names = [name for name in SCENARIOS
             if any(family in name for family in ("wan/", "geo/", "mixed/"))]
    assert len(names) >= 30


@pytest.mark.parametrize("family", ["wan/", "geo/", "mixed/"])
def test_every_topology_scenario_builds_a_valid_config(family):
    entries = select(contains=family)
    assert entries
    for entry in entries:
        config = entry.build()
        assert config.topology is not None
        assert config.topology.n_servers == config.setchain.n_servers


def test_topology_scenarios_run_end_to_end_via_cli(tmp_path, capsys):
    artifact = tmp_path / "geo.json"
    assert main(["run", "geo/hashchain/smoke", "--quiet",
                 "--json", str(artifact)]) == 0
    capsys.readouterr()
    assert main(["report", str(artifact)]) == 0
    out = capsys.readouterr().out
    assert "per-region breakdown" in out
    assert "ap" in out


def test_list_scenarios_groups_by_family_and_filters(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    assert "[wan]" in out and "[geo]" in out and "[mixed]" in out
    assert main(["list-scenarios", "--family", "mixed"]) == 0
    out = capsys.readouterr().out
    assert "[mixed]" in out and "[wan]" not in out
    assert main(["list-scenarios", "--family", "no-such-family"]) == 1


def test_list_scenarios_json_includes_family(capsys):
    import json
    assert main(["list-scenarios", "--family", "geo", "--json"]) == 0
    records = [json.loads(line)
               for line in capsys.readouterr().out.splitlines()]
    assert records
    assert all(r["family"] == "geo" for r in records)


# -- deployment shape ----------------------------------------------------------

def test_heterogeneous_deployment_builds_declared_algorithms():
    config = SCENARIOS["mixed/smoke"].build()
    deployment = build_deployment(config)
    algorithms = [server.algorithm for server in deployment.servers]
    assert algorithms == ["vanilla", "vanilla", "hashchain", "hashchain"]
    assert deployment.region_of == {"server-0": "vanilla",
                                    "server-1": "vanilla",
                                    "server-2": "hashchain",
                                    "server-3": "hashchain"}
    assert isinstance(deployment, Deployment)
