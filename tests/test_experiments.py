"""Tests for the experiment harness: scaling, runner, scenarios, figures, tables."""

import pytest

from repro.analysis.throughput import ThroughputSeries
from repro.api import RunResult, Scenario, run
from repro.errors import ConfigurationError
from repro.experiments import figures, tables
from repro.experiments.runner import analytical_reference, scaled_config
from repro.experiments.scenarios import (
    figure1_scenarios,
    figure2_left_scenarios,
    figure3a_grid,
    figure3b_grid,
    figure3c_grid,
    figure4_scenarios,
    figure5_grids,
    table1_parameters,
)


# -- scaling -------------------------------------------------------------------------------

def test_scaled_config_preserves_dimensionless_ratios():
    config = Scenario.hashchain().rate(10_000).collector(100).build()
    scaled = scaled_config(config, 10.0)
    assert scaled.workload.sending_rate == pytest.approx(1_000)
    assert scaled.ledger.block_size_bytes == pytest.approx(config.ledger.block_size_bytes / 10, rel=0.01)
    # Offered-load over analytical-capacity is unchanged.
    original_ratio = config.workload.sending_rate / analytical_reference(config)
    scaled_ratio = scaled.workload.sending_rate / analytical_reference(scaled)
    assert scaled_ratio == pytest.approx(original_ratio, rel=0.02)
    # Collector timeout and processing costs scale up to compensate.
    assert scaled.setchain.collector_timeout == pytest.approx(10.0)
    assert scaled.setchain.element_validation_time == pytest.approx(
        config.setchain.element_validation_time * 10)


def test_scaled_config_identity_and_validation():
    config = Scenario.vanilla().build()
    assert scaled_config(config, 1.0) is config
    with pytest.raises(ConfigurationError):
        scaled_config(config, 0)


def test_analytical_reference_uses_scenario_parameters():
    v = analytical_reference(Scenario.vanilla().build())
    h100 = analytical_reference(Scenario.hashchain().collector(100).build())
    h500 = analytical_reference(Scenario.hashchain().collector(500).build())
    assert v == pytest.approx(955, rel=0.02)
    assert h100 == pytest.approx(27_157, rel=0.02)
    assert h500 == pytest.approx(147_857, rel=0.02)


# -- runner ---------------------------------------------------------------------------------

def test_package_result_packages_all_analyses():
    config = (Scenario.hashchain().rate(150).inject_for(5).drain(40).servers(4)
              .collector(20).build())
    result = run(config)
    assert isinstance(result, RunResult)
    assert isinstance(result.throughput, ThroughputSeries)
    assert result.avg_throughput_50s > 0
    assert 0.0 <= result.efficiency["100s"] <= 1.0
    assert result.first_commit is not None
    assert [fraction for fraction, _ in result.commit_fractions] == [
        0.1, 0.2, 0.3, 0.4, 0.5]
    assert result.analytical_throughput > 0
    assert result.label == config.label
    assert 0 < result.committed <= result.injected
    assert len(result.summary_row()) == 6


# -- scenarios ---------------------------------------------------------------------------------

def test_figure1_scenarios_match_paper_panels():
    panels = figure1_scenarios()
    assert set(panels) == {"left", "center", "right"}
    assert [c.algorithm for c in panels["left"]] == ["vanilla", "compresschain", "hashchain"]
    assert all(c.workload.sending_rate == 5_000 for c in panels["left"])
    assert all(c.setchain.collector_limit == 500 for c in panels["right"])
    assert all(c.setchain.n_servers == 10 for cs in panels.values() for c in cs)


def test_figure2_scenarios_include_light_variants():
    algorithms = [c.algorithm for c in figure2_left_scenarios()]
    assert "hashchain-light" in algorithms and "hashchain" in algorithms
    assert "compresschain-light" in algorithms and "vanilla" in algorithms


def test_figure3_grids_cover_table1_dimensions():
    rates = {c.workload.sending_rate for c in figure3a_grid()}
    assert rates == {500, 1000, 5000, 10000}
    servers = {c.setchain.n_servers for c in figure3b_grid()}
    assert servers == {4, 7, 10}
    delays = {round(c.ledger.network_delay * 1000) for c in figure3c_grid()}
    assert delays == {0, 30, 100}
    assert set(figure5_grids()) == {"rate", "servers", "delay"}


def test_figure4_scenarios_match_paper_setting():
    configs = figure4_scenarios()
    assert [c.algorithm for c in configs] == ["vanilla", "compresschain", "hashchain"]
    assert all(c.workload.sending_rate == 1_250 for c in configs)
    assert all(c.setchain.collector_limit == 100 for c in configs)


def test_table1_parameters_verbatim():
    params = table1_parameters()
    assert params["sending_rate (el/s)"] == (10_000, 5_000, 1_000, 500)
    assert params["collector_limit (el)"] == (100, 500)
    assert params["server_count"] == (4, 7, 10)
    assert params["network_delay (ms)"] == (0, 30, 100)


# -- figure/table regenerators (cheap paths only) -------------------------------------------------

def test_figure2_right_is_pure_analytical():
    data = figures.figure2_right(block_sizes_mb=(0.5, 4, 128))
    assert data["block_size_mb"] == [0.5, 4, 128]
    assert data["hashchain"][-1] > 3e7
    assert data["hashchain"][0] > data["compresschain"][0] > data["vanilla"][0]


def test_appendix_d1_table_values():
    values = tables.appendix_d1()
    for key, expected in tables.PAPER_ANALYTICAL_VALUES.items():
        assert values[key] == pytest.approx(expected, rel=0.02)


def test_table1_renders_every_parameter():
    text = tables.table1()
    for token in ("sending_rate", "collector_limit", "server_count", "network_delay",
                  "10000", "500", "100"):
        assert token in text


def test_figure1_runs_at_high_scale_and_orders_algorithms():
    """A very aggressive scale keeps this integration path fast; ordering must hold."""
    panels = figures.figure1(scale=100.0, panels=("left",))
    curves = {c.label: c for c in panels["left"]}
    assert set(curves) == {"vanilla", "compresschain", "hashchain"}
    assert curves["hashchain"].analytical > curves["compresschain"].analytical > \
        curves["vanilla"].analytical
