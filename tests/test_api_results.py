"""RunResult: exact serialisation round-trips and config reconstruction."""

import json

import pytest

from repro.api import RunResult, Scenario, run
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def result() -> RunResult:
    """One tiny ideal-ledger run shared by every test in this module."""
    return run("smoke")


def test_run_returns_a_populated_result(result: RunResult):
    assert result.label == "smoke"
    assert result.algorithm == "hashchain"
    assert result.injected > 0
    assert result.committed == result.injected
    assert result.committed_fraction == 1.0
    assert result.efficiency["100s"] == pytest.approx(1.0)
    assert len(result.throughput_times) == len(result.throughput_values) > 0
    assert result.first_commit is not None


def test_json_round_trip_is_exact(result: RunResult):
    assert RunResult.from_json(result.to_json()) == result
    # ... even through an actual parse/re-serialise cycle.
    reparsed = RunResult.from_dict(json.loads(json.dumps(result.to_dict())))
    assert reparsed == result


def test_file_round_trip_is_exact(result: RunResult, tmp_path):
    path = result.save(tmp_path / "nested" / "smoke.json")
    assert path.exists()
    assert RunResult.load(path) == result


def test_to_dict_is_pure_json_types(result: RunResult):
    def check(value):
        if isinstance(value, dict):
            for key, nested in value.items():
                assert isinstance(key, str)
                check(nested)
        elif isinstance(value, list):
            for nested in value:
                check(nested)
        else:
            assert value is None or isinstance(value, (str, int, float, bool))

    check(result.to_dict())


def test_experiment_config_reconstruction(result: RunResult):
    config = result.experiment_config()
    assert config.algorithm == "hashchain"
    assert config.label == "smoke"
    assert config.ledger_backend == "ideal"
    # The echo captures the *scaled* config, which re-validates on rebuild.
    assert config.workload.sending_rate == result.config["workload"]["sending_rate"]


def test_missing_fields_rejected(result: RunResult):
    with pytest.raises(ConfigurationError, match="missing RunResult fields"):
        RunResult.from_dict({"label": "x"})
    truncated = result.to_dict()
    del truncated["throughput_times"]
    with pytest.raises(ConfigurationError, match="throughput_times"):
        RunResult.from_dict(truncated)


def test_truncated_nested_shapes_rejected(result: RunResult):
    no_workload = result.to_dict()
    del no_workload["config"]["workload"]
    with pytest.raises(ConfigurationError, match="config echo"):
        RunResult.from_dict(no_workload)
    bad_efficiency = result.to_dict()
    bad_efficiency["efficiency"] = {"50s": 1.0}
    with pytest.raises(ConfigurationError, match="efficiency"):
        RunResult.from_dict(bad_efficiency)


def test_malformed_values_rejected(result: RunResult):
    stringy = result.to_dict()
    stringy["schema_version"] = "1"
    with pytest.raises(ConfigurationError, match="must be an integer"):
        RunResult.from_dict(stringy)
    garbled = result.to_dict()
    garbled["throughput_values"] = ["high", "low"]
    with pytest.raises(ConfigurationError, match="malformed RunResult"):
        RunResult.from_dict(garbled)
    stringy_scalar = result.to_dict()
    stringy_scalar["avg_throughput_50s"] = "not-a-number"
    with pytest.raises(ConfigurationError, match="malformed RunResult"):
        RunResult.from_dict(stringy_scalar)
    bad_eff = result.to_dict()
    bad_eff["efficiency"]["50s"] = "high"
    with pytest.raises(ConfigurationError, match="malformed RunResult"):
        RunResult.from_dict(bad_eff)


def test_unknown_fields_and_future_schema_rejected(result: RunResult):
    data = result.to_dict()
    data["surprise"] = 1
    with pytest.raises(ConfigurationError, match="surprise"):
        RunResult.from_dict(data)
    future = result.to_dict()
    future["schema_version"] = 999
    with pytest.raises(ConfigurationError, match="schema version"):
        RunResult.from_dict(future)


def test_throughput_property_rebuilds_the_series(result: RunResult):
    series = result.throughput
    assert series.times == result.throughput_times
    assert series.values == result.throughput_values
    assert series.peak() > 0


def test_summary_row_shape(result: RunResult):
    row = result.summary_row()
    assert row[0] == "hashchain"
    assert len(row) == 6


def test_run_accepts_builder_config_and_name():
    builder = (Scenario.hashchain().servers(4).rate(100).collector(10)
               .inject_for(5).drain(30).backend("ideal"))
    from_builder = run(builder)
    from_config = run(builder.build())
    assert from_builder.injected == from_config.injected > 0
    with pytest.raises(ConfigurationError):
        run(42)  # type: ignore[arg-type]
