"""Tests for configuration dataclasses and the Table 1 grid."""

import pytest

from repro.config import (
    ExperimentConfig,
    LedgerConfig,
    SetchainConfig,
    WorkloadConfig,
    table1_grid,
)
from repro.errors import ConfigurationError


def test_ledger_config_defaults_match_paper():
    config = LedgerConfig()
    assert config.block_size_bytes == 524_288  # 0.5 MB (binary), matches Appendix D.1
    assert config.block_rate == pytest.approx(0.8)
    assert config.block_interval == pytest.approx(1.25)
    assert config.mempool_max_txs == 10_000_000


def test_ledger_config_validation():
    with pytest.raises(ConfigurationError):
        LedgerConfig(block_size_bytes=0)
    with pytest.raises(ConfigurationError):
        LedgerConfig(block_rate=-1)
    with pytest.raises(ConfigurationError):
        LedgerConfig(network_delay=-0.1)


def test_workload_config_validation():
    with pytest.raises(ConfigurationError):
        WorkloadConfig(sending_rate=0)
    with pytest.raises(ConfigurationError):
        WorkloadConfig(injection_duration=0)


def test_setchain_quorum_is_f_plus_one():
    assert SetchainConfig(n_servers=10).max_faulty == 4
    assert SetchainConfig(n_servers=10).quorum == 5
    assert SetchainConfig(n_servers=4).quorum == 2
    assert SetchainConfig(n_servers=7, f=2).quorum == 3


def test_setchain_f_bounds_enforced():
    with pytest.raises(ConfigurationError):
        SetchainConfig(n_servers=4, f=2)  # needs f < n/2
    with pytest.raises(ConfigurationError):
        SetchainConfig(n_servers=4, f=-1)
    with pytest.raises(ConfigurationError):
        SetchainConfig(collector_limit=0)
    with pytest.raises(ConfigurationError):
        SetchainConfig(element_validation_time=-1)
    with pytest.raises(ConfigurationError, match="'ed25519' was removed"):
        SetchainConfig(signature_scheme="ed25519")


def test_experiment_config_validation():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(algorithm="bitcoin")
    with pytest.raises(ConfigurationError):
        ExperimentConfig(ledger_backend="postgres")
    with pytest.raises(ConfigurationError):
        ExperimentConfig(drain_duration=-1)
    config = ExperimentConfig()
    assert config.total_duration == pytest.approx(150.0)


def test_table1_grid_covers_all_combinations():
    grid = table1_grid()
    # Vanilla: 4 rates x 3 server counts x 3 delays = 36.
    # Compresschain/Hashchain: 36 x 2 collector sizes each = 72 each.
    assert len(grid) == 36 + 72 + 72
    algorithms = {c.algorithm for c in grid}
    assert algorithms == {"vanilla", "compresschain", "hashchain"}
    rates = {c.workload.sending_rate for c in grid}
    assert rates == {500.0, 1000.0, 5000.0, 10000.0}


def test_with_overrides_returns_modified_copy():
    config = ExperimentConfig()
    other = config.with_overrides(algorithm="vanilla")
    assert other.algorithm == "vanilla" and config.algorithm == "hashchain"
