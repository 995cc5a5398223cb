"""ScenarioBuilder: fluent construction, validation, did-you-mean errors."""

import pytest

from repro.api import Scenario
from repro.config import ExperimentConfig
from repro.errors import ConfigurationError


def test_fluent_chain_builds_expected_config():
    config = (Scenario.hashchain()
              .rate(10_000).servers(10).collector(100)
              .delay_ms(30).byzantine(f=2).build())
    assert isinstance(config, ExperimentConfig)
    assert config.algorithm == "hashchain"
    assert config.workload.sending_rate == 10_000
    assert config.setchain.n_servers == 10
    assert config.setchain.collector_limit == 100
    assert config.setchain.f == 2
    assert config.ledger.network_delay == pytest.approx(0.030)


def test_algorithm_classmethods_cover_all_variants():
    assert Scenario.vanilla().build().algorithm == "vanilla"
    assert Scenario.compresschain().build().algorithm == "compresschain"
    assert Scenario.hashchain().build().algorithm == "hashchain"
    assert Scenario.hashchain_light().build().algorithm == "hashchain-light"
    assert Scenario.compresschain_light().build().algorithm == "compresschain-light"


def test_unknown_algorithm_suggests_closest():
    with pytest.raises(ConfigurationError, match="did you mean 'hashchain'"):
        Scenario("hashchian")


def test_builders_are_immutable():
    base = Scenario.hashchain().rate(1_000)
    fast = base.rate(50_000)
    assert base.build().workload.sending_rate == 1_000
    assert fast.build().workload.sending_rate == 50_000


def test_layer_override_typo_gets_did_you_mean():
    with pytest.raises(ConfigurationError, match="collector_limit"):
        Scenario.hashchain().setchain(colector_limit=5)
    with pytest.raises(ConfigurationError, match="block_size_bytes"):
        Scenario.hashchain().ledger(block_size=1)
    with pytest.raises(ConfigurationError, match="sending_rate"):
        Scenario.hashchain().workload(sending_rte=1)


def test_method_typo_gets_did_you_mean():
    with pytest.raises(AttributeError, match="'collector'"):
        Scenario.hashchain().colector(5)


def test_ledger_override_rejects_ambiguous_network_delay():
    # LedgerConfig stores seconds, Table 1 speaks milliseconds: refuse the
    # raw field and point at delay_ms().
    with pytest.raises(ConfigurationError, match="delay_ms"):
        Scenario.hashchain().ledger(network_delay=30)


def test_layer_overrides_reach_the_config():
    config = (Scenario.compresschain()
              .setchain(collector_timeout=2.5)
              .ledger(block_rate=1.6)
              .workload(element_size_std=10.0)
              .build())
    assert config.setchain.collector_timeout == 2.5
    assert config.ledger.block_rate == 1.6
    assert config.workload.element_size_std == 10.0


def test_invalid_values_rejected_at_build_time():
    with pytest.raises(ConfigurationError):
        Scenario.hashchain().servers(4).byzantine(f=2).build()  # needs f < n/2
    with pytest.raises(ConfigurationError):
        Scenario.hashchain().rate(-5).build()
    with pytest.raises(ConfigurationError):
        Scenario.hashchain().delay_ms(-1)


def test_backend_validation():
    assert Scenario.hashchain().backend("ideal").build().ledger_backend == "ideal"
    with pytest.raises(ConfigurationError, match="ideal"):
        Scenario.hashchain().backend("idael")


def test_auto_label_matches_legacy_format():
    config = Scenario.hashchain().rate(5_000).collector(500).servers(7).build()
    assert config.label == "hashchain rate=5000 c=500 n=7"
