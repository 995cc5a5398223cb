"""Session: incremental control, mid-run inspection, manual injection."""

import pytest

from repro.api import RunResult, Scenario, Session
from repro.errors import ConfigurationError, SetchainError, SimulationError


def tiny_scenario():
    return (Scenario.hashchain().servers(4).rate(100).collector(10)
            .inject_for(5).drain(30).backend("ideal").label("session-test"))


def test_session_requires_start():
    session = tiny_scenario().session()
    with pytest.raises(SimulationError, match="not started"):
        session.run_for(1.0)
    with pytest.raises(SimulationError, match="not started"):
        session.inject()


def test_context_manager_starts_and_double_start_rejected():
    with tiny_scenario().session() as session:
        with pytest.raises(SimulationError, match="already started"):
            session.start()


def test_incremental_time_control():
    with tiny_scenario().session() as session:
        assert session.now == 0.0
        session.run_for(2.0)
        assert session.now == pytest.approx(2.0)
        session.run_until(3.5)
        assert session.now == pytest.approx(3.5)
        with pytest.raises(ConfigurationError):
            session.run_for(-1.0)


def test_mid_run_views_and_backlog():
    with tiny_scenario().session() as session:
        session.run_for(4.0)
        views = session.views()
        assert set(views) == {f"server-{i}" for i in range(4)}
        assert session.view(0) == session.view("server-0")
        with pytest.raises(ConfigurationError, match="no server"):
            session.view("server-99")
        backlog = session.backlog()
        assert set(backlog) == set(views)
        assert all(isinstance(v, int) for v in backlog.values())
        assert session.injected_count > 0


def test_manual_injection_commits():
    with tiny_scenario().session() as session:
        session.run_for(1.0)
        before = session.injected_count
        element = session.inject(size_bytes=400, client="manual")
        assert session.injected_count == before + 1
        assert element.client == "manual"
        session.run_to_completion()
        assert session.committed_count == session.injected_count
        assert session.committed_fraction == 1.0
        assert session.check_properties() == []
        with pytest.raises(ConfigurationError, match="out of range"):
            session.inject(server=99)


def test_rejected_injection_is_not_counted():
    with tiny_scenario().session() as session:
        session.run_for(1.0)
        element = session.inject()
        before = session.injected_count
        with pytest.raises(SetchainError, match="rejected"):
            session.inject(element=element)  # duplicate add
        assert session.injected_count == before
        session.run_to_completion()
        assert session.committed_count == session.injected_count


def test_run_to_completion_after_passing_the_horizon():
    # run_for past the configured horizon must not break run()/run_to_completion.
    with tiny_scenario().session() as session:
        session.run_for(session.config.total_duration + 5.0)
        session.run_to_completion()
        assert session.committed_count == session.injected_count > 0


def test_session_accepts_registry_name_and_scale():
    with Session("smoke") as session:
        session.run()
        assert session.committed_count > 0
    scaled = Session("base", scale=100.0)
    assert scaled.config.workload.sending_rate == pytest.approx(100.0)


def test_session_result_is_serialisable():
    with tiny_scenario().session() as session:
        session.run()
        result = session.result()
    assert isinstance(result, RunResult)
    assert result.label == "session-test"
    assert RunResult.from_dict(result.to_dict()) == result


def test_session_rejects_unbuildable_input():
    with pytest.raises(ConfigurationError, match="cannot build a session"):
        Session(3.14)  # type: ignore[arg-type]
