"""Tests for the analysis layer: metrics, analytical model, throughput,
efficiency, latency CDFs, commit times, and report rendering."""

import random

import pytest

from repro.analysis.analytical import (
    AnalyticalParameters,
    blocksize_sweep,
    compresschain_throughput,
    hashchain_throughput,
    paper_analysis_parameters,
    throughput_for,
    vanilla_throughput,
)
from repro.analysis.committime import commit_time_quantiles
from repro.analysis.efficiency import efficiency_at, efficiency_profile
from repro.analysis.latency import latency_cdf, stage_latencies
from repro.analysis.metrics import MetricsCollector
from repro.analysis.report import render_series, render_table
from repro.analysis.throughput import (
    ThroughputSeries,
    average_throughput,
    instantaneous_throughput,
    rolling_throughput,
)
from repro.errors import ConfigurationError
from repro.workload.elements import make_element


# -- analytical model (Appendix D.1) ------------------------------------------------------

def test_appendix_d1_values_are_reproduced():
    assert vanilla_throughput(paper_analysis_parameters(500)) == pytest.approx(955, rel=0.02)
    assert compresschain_throughput(paper_analysis_parameters(100)) == pytest.approx(2497, rel=0.02)
    assert compresschain_throughput(paper_analysis_parameters(500)) == pytest.approx(3330, rel=0.02)
    assert hashchain_throughput(paper_analysis_parameters(100)) == pytest.approx(27_157, rel=0.02)
    assert hashchain_throughput(paper_analysis_parameters(500)) == pytest.approx(147_857, rel=0.02)


def test_paper_throughput_ratios_hold():
    p500 = paper_analysis_parameters(500)
    assert hashchain_throughput(p500) / vanilla_throughput(p500) == pytest.approx(155, rel=0.03)
    assert (hashchain_throughput(p500) / compresschain_throughput(p500)
            == pytest.approx(44, rel=0.05))


def test_blocksize_sweep_reproduces_fig2_right_shape():
    sizes = [0.5e6, 4e6, 128e6]
    hashchain = blocksize_sweep("hashchain", sizes)
    vanilla = blocksize_sweep("vanilla", sizes)
    assert all(a < b for a, b in zip(hashchain, hashchain[1:]))  # monotone in C
    # Paper: ~10^6 el/s at 4 MB and >3x10^7 el/s at 128 MB for Hashchain.
    assert hashchain[1] == pytest.approx(1.18e6, rel=0.05)
    assert hashchain[2] > 3e7
    assert all(h > v for h, v in zip(hashchain, vanilla))


def test_throughput_for_dispatch_and_validation():
    params = paper_analysis_parameters(500)
    assert throughput_for("hashchain-light", params) == hashchain_throughput(params)
    with pytest.raises(ConfigurationError):
        throughput_for("bitcoin", params)
    with pytest.raises(ConfigurationError):
        AnalyticalParameters(collector_size=5, n_servers=10)


def test_analytical_edge_cases():
    tiny = AnalyticalParameters(block_size_bytes=100, collector_size=500)
    assert vanilla_throughput(tiny) == 0.0  # proofs alone exceed the block


# -- metrics ------------------------------------------------------------------------------

def build_metrics(commits):
    metrics = MetricsCollector()
    for i, (injected, committed) in enumerate(commits):
        element = make_element("c", 100)
        metrics.record_injected_many([element], injected)
        metrics.record_added_many([element], "server-0", injected)
        metrics.record_epoch_assigned_many([element.element_id], 1,
                                           committed - 0.5)
        metrics.record_epoch_committed(1, [element], committed)
    return metrics


def test_record_injected_many_builds_or_stamps_the_record():
    """A new record is built with its stamp in one constructor call; one that
    exists (the element was added first — the service drain's order) is
    stamped in place.  Either way it counts once."""
    metrics = MetricsCollector()
    new, added_first = make_element("c", 100), make_element("c", 200)
    metrics.record_added_many([added_first], "server-0", 0.5)
    metrics.record_injected_many([new, added_first], 1.0)
    metrics.record_injected_many([new, added_first], 2.0)
    assert metrics.injected_count == 2
    for element, added_at in ((new, None), (added_first, 0.5)):
        record = metrics.elements[element.element_id]
        assert (record.injected_at, record.added_at) == (1.0, added_at)


def test_metrics_first_observation_wins():
    metrics = MetricsCollector()
    element = make_element("c", 100)
    metrics.record_injected_many([element], 1.0)
    metrics.record_injected_many([element], 5.0)
    metrics.record_in_ledger_many([element.element_id], 3.0)
    metrics.record_in_ledger_many([element.element_id], 9.0)
    metrics.record_epoch_committed(1, [element], 4.0)
    metrics.record_epoch_committed(1, [element], 8.0)
    record = metrics.elements[element.element_id]
    assert record.injected_at == 1.0
    assert record.in_ledger_at == 3.0
    assert record.committed_at == 4.0
    assert record.commit_latency() == pytest.approx(3.0)
    assert metrics.epoch_commit_times[1] == 4.0


def test_in_ledger_stamp_is_the_earliest_instant_not_the_first_report():
    """A server reports a whole pipeline run of past instants in one call, so
    reports do not arrive in time order: the stamp must not depend on which
    server's step happened to be dispatched first."""
    metrics = MetricsCollector()
    first, second = make_element("c", 100), make_element("c", 100)
    metrics.record_in_ledger_run([first.element_id, second.element_id],
                                 [6.0, 6.5])
    metrics.record_in_ledger_run([first.element_id, second.element_id],
                                 [2.0, 7.0])
    metrics.record_in_ledger_many([second.element_id], 3.0)
    metrics.record_in_ledger_many([second.element_id], 4.0)
    assert metrics.elements[first.element_id].in_ledger_at == 2.0
    assert metrics.elements[second.element_id].in_ledger_at == 3.0


def test_metrics_hash_mapping_resolves_elements():
    metrics = MetricsCollector()
    element = make_element("c", 100)
    metrics.record_injected_many([element], 0.0)
    metrics.record_batch_hash_elements("deadbeef", [element.element_id])
    metrics.record_in_ledger_by_hash("deadbeef", 2.0)
    assert metrics.elements[element.element_id].in_ledger_at == 2.0


def test_metrics_counts_and_ordering():
    metrics = build_metrics([(0.0, 2.0), (1.0, 3.0), (2.0, 10.0)])
    assert metrics.injected_count == 3
    assert metrics.committed_count == 3
    assert metrics.commit_times() == [2.0, 3.0, 10.0]
    assert metrics.commit_latencies() == [2.0, 2.0, 8.0]


# -- throughput ---------------------------------------------------------------------------

def test_rolling_throughput_uses_window_average():
    commits = [float(t) for t in range(1, 91)]  # 1 el/s for 90 s
    series = rolling_throughput(commits, window=9.0, step=1.0)
    assert series.values[20] == pytest.approx(1.0)
    assert series.at(50.0) == pytest.approx(1.0)
    assert series.peak() == pytest.approx(1.0)


def test_rolling_throughput_empty_and_validation():
    assert rolling_throughput([]).times == ()
    with pytest.raises(ConfigurationError):
        rolling_throughput([1.0], window=0)
    with pytest.raises(ConfigurationError):
        ThroughputSeries(times=(1.0,), values=())


def test_average_and_instantaneous_throughput():
    commits = [0.5 + i * 0.1 for i in range(100)]  # 100 commits in ~10 s
    assert average_throughput(commits, up_to=50.0) == pytest.approx(2.0)
    assert average_throughput(commits, up_to=10.0) == pytest.approx(9.5, rel=0.1)
    series = instantaneous_throughput(commits, bin_width=1.0)
    assert sum(series.values) == pytest.approx(100.0)
    with pytest.raises(ConfigurationError):
        average_throughput(commits, up_to=0)


# -- efficiency ---------------------------------------------------------------------------

def test_efficiency_profile_matches_paper_semantics():
    metrics = build_metrics([(1.0, 40.0), (2.0, 60.0), (3.0, 90.0), (4.0, 120.0)])
    assert efficiency_at(metrics, 50.0) == pytest.approx(0.25)
    profile = efficiency_profile(metrics, label="x")
    assert profile.at_50 == pytest.approx(0.25)
    assert profile.at_75 == pytest.approx(0.5)
    assert profile.at_100 == pytest.approx(0.75)
    assert profile.as_dict() == {"50s": 0.25, "75s": 0.5, "100s": 0.75}


def test_efficiency_uses_total_added_override():
    metrics = build_metrics([(1.0, 10.0)])
    assert efficiency_at(metrics, 50.0, total_added=4) == pytest.approx(0.25)
    assert efficiency_at(MetricsCollector(), 50.0) == 0.0


# -- latency ------------------------------------------------------------------------------

def test_latency_cdf_quantiles_and_fractions():
    cdf = latency_cdf([1.0, 2.0, 3.0, 4.0])
    assert cdf.count == 4
    assert cdf.fraction_below(2.0) == pytest.approx(0.5)
    assert cdf.fraction_below(10.0) == 1.0
    assert cdf.quantile(0.5) == pytest.approx(2.5)
    xs, fs = cdf.curve(points=10)
    assert len(xs) == 10 and fs[-1] == 1.0
    with pytest.raises(ConfigurationError):
        cdf.quantile(2.0)


def test_stage_latencies_reconstructs_mempool_stages():
    metrics = MetricsCollector()
    element = make_element("c", 100)
    metrics.record_injected_many([element], 0.0)
    metrics.record_tx_elements([(42, (element.element_id,))])
    metrics.record_in_ledger_many([element.element_id], 3.0)
    metrics.record_epoch_committed(1, [element], 5.0)
    arrivals = [{42: 1.0}, {42: 1.5}, {42: 2.0}]  # three mempools
    stages = stage_latencies(metrics, arrivals, quorum=2)
    assert stages["first_mempool"].latencies == (1.0,)
    assert stages["quorum_mempools"].latencies == (1.5,)
    assert stages["all_mempools"].latencies == (2.0,)
    assert stages["ledger"].latencies == (3.0,)
    assert stages["committed"].latencies == (5.0,)
    # Without arrival tables only the last two stages exist.
    assert set(stage_latencies(metrics)) == {"ledger", "committed"}


# -- commit times -------------------------------------------------------------------------

def test_commit_time_quantiles():
    metrics = build_metrics([(0.0, t) for t in (5.0, 10.0, 20.0, 40.0, 80.0,
                                                81.0, 82.0, 83.0, 84.0, 85.0)])
    summary = commit_time_quantiles(metrics)
    assert summary.first_element == 5.0
    assert summary.fraction_times[0.1] == 5.0
    assert summary.fraction_times[0.5] == 80.0
    partial = commit_time_quantiles(metrics, total_added=100)
    assert partial.fraction_times[0.5] is None
    with pytest.raises(ConfigurationError):
        commit_time_quantiles(metrics, fractions=(0.0,))


# -- report rendering ----------------------------------------------------------------------

def test_render_table_and_series():
    table = render_table(["a", "b"], [[1, 2.5], ["x", 10_000.0]], title="T")
    assert "T" in table and "10,000" in table and "2.5" in table
    series = {"hashchain": rolling_throughput([float(i) for i in range(1, 60)])}
    text = render_series(series, sample_every=10.0)
    assert "hashchain" in text and "10" in text
    assert render_table(["only"], [])


# -- the stdlib forms against the numpy calls they replaced --------------------------------
# Every recorded artifact carries numpy's roundings, so the bisect/math forms
# reproduce them bit for bit: ``==`` on floats, no tolerance.

def test_stdlib_forms_match_arange_searchsorted_histogram_quantile_linspace():
    np = pytest.importorskip("numpy")
    rng = random.Random(20)
    for _ in range(400):
        # Some continuous instants, some on a 0.5 grid (ties and bin edges).
        commits = [rng.choice((rng.uniform(0.0, 40.0), rng.randrange(80) / 2))
                   for _ in range(rng.randrange(1, 120))]
        window = rng.choice((9.0, 1.0, rng.uniform(0.1, 12.0)))
        step = rng.choice((1.0, 0.5, 0.1, rng.uniform(0.05, 3.0)))
        horizon = rng.choice((None, rng.uniform(0.0, 60.0)))
        times = np.sort(np.asarray(commits, dtype=float))
        end = horizon if horizon is not None else float(times[-1]) + step
        samples = np.arange(step, end + step / 2, step)
        counts = (np.searchsorted(times, samples, side="right")
                  - np.searchsorted(times, samples - window, side="right"))
        series = rolling_throughput(commits, window, step, horizon)
        assert series.times == tuple(samples.tolist())
        assert series.values == tuple((counts / window).tolist())
        edges = np.arange(0.0, end + step, step)
        binned = instantaneous_throughput(commits, step, horizon)
        assert binned.times == tuple(((edges[:-1] + edges[1:]) / 2).tolist())
        assert binned.values == tuple(
            (np.histogram(times, bins=edges)[0] / step).tolist())
        if series.times:
            probe = rng.choice((rng.uniform(-5.0, 70.0), rng.randrange(60) / 2))
            nearest = int(np.argmin(np.abs(np.asarray(series.times) - probe)))
            assert series.at(probe) == series.values[nearest]

        cdf = latency_cdf(commits)
        for q in (0.0, 0.5, 0.9, 0.99, 1.0, rng.random(), rng.random()):
            assert cdf.quantile(q) == float(np.quantile(times, q))
        points = rng.choice((1, 2, 10, 100, rng.randrange(3, 60)))
        xs = np.linspace(0.0, float(times[-1]), points)
        fs = np.searchsorted(times, xs, side="right") / len(times)
        assert cdf.curve(points) == (tuple(xs.tolist()), tuple(fs.tolist()))
