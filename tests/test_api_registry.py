"""The scenario catalog: contents, lookup by name, filtering, added entries."""

import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from repro.api import Scenario
from repro.api.catalog import SCENARIOS, ScenarioEntry, _add, select
from repro.api.session import _resolve_config as build
from repro.config import ExperimentConfig
from repro.errors import ConfigurationError


def entry(name: str, factory, description: str = "", *tags: str) -> ScenarioEntry:
    return ScenarioEntry(name, factory, description, frozenset(tags))


def test_catalog_registers_at_least_ten_scenarios():
    assert len(SCENARIOS) >= 10


def test_catalog_covers_the_advertised_families():
    names = set(SCENARIOS)
    assert "base" in names
    assert "quickstart" in names and "smoke" in names
    for family in ("table1", "figure1", "figure2", "figure4", "stress",
                   "byzantine", "burst", "service"):
        assert any(n.startswith(f"{family}/") for n in names)


def test_table1_grid_is_complete():
    # vanilla has no collector dimension: 4 rates x 3 servers x 3 delays.
    assert len(select(tag="table1", contains="vanilla")) == 36
    # compresschain/hashchain add the 2 collector limits.
    assert len(select(tag="table1", contains="/hashchain/")) == 72


def test_get_scenario_builds_a_config_labelled_by_name():
    config = build("table1/hashchain/r5000-n7-d30-c500")
    assert isinstance(config, ExperimentConfig)
    assert config.workload.sending_rate == 5_000
    assert config.setchain.n_servers == 7
    assert config.setchain.collector_limit == 500
    assert config.ledger.network_delay == pytest.approx(0.030)
    assert config.label == "table1/hashchain/r5000-n7-d30-c500"


def test_unknown_scenario_gets_did_you_mean():
    with pytest.raises(ConfigurationError, match="quickstart"):
        build("quickstrt")


def test_no_close_match_error_is_capped():
    # With 300+ catalog names, the fallback must not dump them all.
    with pytest.raises(ConfigurationError) as excinfo:
        build("zzz")
    message = str(excinfo.value)
    assert message.startswith("unknown scenario 'zzz'")
    assert "total)" in message
    assert len(message) < 500


def test_tag_and_substring_filters():
    byzantine = select(tag="byzantine")
    assert byzantine and all("byzantine" in e.tags for e in byzantine)
    assert [e.name for e in select(contains="figure2/")] == sorted(
        n for n in SCENARIOS if "figure2/" in n)
    assert select(tag="no-such-tag") == []
    shard = select(family="shard", tag="ci")
    assert shard and all(e.family == "shard" and "ci" in e.tags for e in shard)
    assert select(family="shar") == []


def test_byzantine_scenarios_set_f():
    config = build("byzantine/f4-n10")
    assert config.setchain.f == 4
    assert config.setchain.quorum == 5


def test_tags_are_enumerable():
    tags = set().union(*(e.tags for e in SCENARIOS.values()))
    assert {"paper", "table1", "stress", "byzantine", "burst"} <= tags


def test_register_and_unregister_custom_scenario():
    custom = entry("test/custom", lambda: Scenario.vanilla().rate(123),
                   "added by the test suite", "custom-test")
    with mock.patch.dict(SCENARIOS, {"test/custom": custom}):
        assert build("test/custom").workload.sending_rate == 123
        assert build("test/custom").label == "test/custom"
        assert select(tag="custom-test") == [custom]
    assert "test/custom" not in SCENARIOS


def test_explicit_labels_survive_registration():
    # Even a label that starts with the algorithm name must not be clobbered.
    labelled = entry("test/labelled",
                     lambda: Scenario.vanilla().label("vanilla baseline run A"))
    with mock.patch.dict(SCENARIOS, {"test/labelled": labelled}):
        assert build("test/labelled").label == "vanilla baseline run A"


def test_table1_entries_match_the_grid_enumeration():
    # The catalog derives its table1/* entries from config.table1_grid().
    from repro.config import table1_grid

    grid = list(table1_grid())
    assert len(select(tag="table1")) == len(grid)
    sample = grid[0]
    name = (f"table1/{sample.algorithm}/r{sample.workload.sending_rate:g}"
            f"-n{sample.setchain.n_servers}"
            f"-d{sample.ledger.network_delay * 1000:g}")
    if sample.algorithm != "vanilla":
        name += f"-c{sample.setchain.collector_limit}"
    assert build(name).setchain == sample.setchain


def test_figure_entries_match_the_harness_grids():
    # The CLI catalog is derived from experiments/scenarios.py; no drift.
    from repro.experiments.scenarios import figure2_left_scenarios, figure4_scenarios

    for config in figure2_left_scenarios():
        assert build(f"figure2/{config.algorithm}") == config
    for config in figure4_scenarios():
        assert build(f"figure4/{config.algorithm}") == config


def test_registering_a_catalog_name_fails_at_the_registration_site():
    # A second entry under a catalog name must fail where it is added,
    # not silently replace the first.
    with pytest.raises(ConfigurationError, match="defined twice"):
        _add("base", tags=(), description="", factory=Scenario.vanilla)
    assert build("base").algorithm == "hashchain"


def test_factory_must_return_builder_or_config():
    broken = entry("test/broken", lambda: "nonsense")
    with mock.patch.dict(SCENARIOS, {"test/broken": broken}):
        with pytest.raises(ConfigurationError, match="expected a Scenario"):
            build("test/broken")


def test_import_repro_leaves_the_catalog_unloaded():
    # The catalog is lazy by import placement alone: only a name lookup and
    # the command line import it.
    code = ("import sys, repro; "
            "print('repro.api.catalog' in sys.modules, "
            "'repro.api.cli' in sys.modules)")
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=str(src))).stdout
    assert out.split() == ["False", "False"]
