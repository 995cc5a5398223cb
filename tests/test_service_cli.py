"""CLI surface of service mode: ``repro serve`` and ``repro service inspect``."""

import json
import sqlite3

from repro.api.cli import main


def test_serve_streams_persists_and_probes_metrics(tmp_path, capsys):
    db = tmp_path / "serve.sqlite"
    rc = main(["serve", "service/smoke", "--db", str(db),
               "--rate", "250", "--duration", "4", "--settle", "6",
               "--min-availability", "0.9"])
    out = capsys.readouterr().out
    assert rc == 0
    assert db.exists()
    assert "streamed 1000 accepted+deferred" in out
    assert "/metrics availability: 100.0%" in out
    assert "ledger height" in out


def test_serve_reopens_existing_database(tmp_path, capsys):
    db = tmp_path / "resume.sqlite"
    assert main(["serve", "service/smoke", "--db", str(db), "--rate", "100",
                 "--duration", "3", "--settle", "5", "--no-http"]) == 0
    capsys.readouterr()
    assert main(["serve", "service/smoke", "--db", str(db), "--rate", "100",
                 "--duration", "3", "--settle", "5", "--no-http"]) == 0
    out = capsys.readouterr().out
    assert "resumed" in out
    assert "recovered commits" in out


def test_serve_writes_run_result_artifact(tmp_path):
    artifact = tmp_path / "result.json"
    rc = main(["serve", "service/smoke", "--rate", "100", "--duration", "2",
               "--settle", "5", "--no-http", "--quiet",
               "--json", str(artifact)])
    assert rc == 0
    data = json.loads(artifact.read_text())
    assert data["injected"] == 200
    assert data["config"]["algorithm"] == "hashchain"


def test_service_inspect_renders_audit(tmp_path, capsys):
    db = tmp_path / "audit.sqlite"
    assert main(["serve", "service/smoke", "--db", str(db), "--rate", "100",
                 "--duration", "3", "--settle", "5", "--no-http",
                 "--quiet"]) == 0
    capsys.readouterr()
    assert main(["service", "inspect", str(db)]) == 0
    out = capsys.readouterr().out
    assert "ledger audit" in out
    assert "contiguous" in out
    assert "hash-batch" in out


def test_service_inspect_json_output(tmp_path, capsys):
    db = tmp_path / "audit.sqlite"
    assert main(["serve", "service/smoke", "--db", str(db), "--rate", "100",
                 "--duration", "2", "--settle", "5", "--no-http",
                 "--quiet"]) == 0
    capsys.readouterr()
    assert main(["service", "inspect", str(db), "--json"]) == 0
    audit = json.loads(capsys.readouterr().out)
    assert audit["contiguous"] is True
    assert audit["height"] > 0


def test_service_inspect_missing_database_errors(tmp_path, capsys):
    rc = main(["service", "inspect", str(tmp_path / "absent.sqlite")])
    assert rc == 1
    assert "no ledger database" in capsys.readouterr().err


def test_service_inspect_broken_chain_errors(tmp_path, capsys):
    db = tmp_path / "gap.sqlite"
    assert main(["serve", "service/smoke", "--db", str(db), "--rate", "100",
                 "--duration", "3", "--settle", "5", "--no-http",
                 "--quiet"]) == 0
    conn = sqlite3.connect(str(db))
    with conn:
        top = conn.execute("SELECT MAX(height) FROM blocks").fetchone()[0]
        conn.execute("INSERT INTO blocks (height, proposer, timestamp) "
                     "VALUES (?, 'sequencer', 99.0)", (top + 3,))
    conn.close()
    capsys.readouterr()
    rc = main(["service", "inspect", str(db)])
    assert rc == 1
    assert "non-contiguous" in capsys.readouterr().err


def test_serve_in_memory_run_needs_no_database(capsys):
    rc = main(["serve", "--rate", "50", "--duration", "2", "--settle", "4",
               "--no-http"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "in-memory ledger" in out
