"""Every shipped example runs as a script and reports success.

The examples directory holds exactly the scripts tested here, so a new
example without a test fails ``test_examples_directory_contents``.
"""

import pathlib
import subprocess
import sys

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True, text=True, timeout=300, check=False)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_examples_directory_contents():
    tested = {name[len("test_"):-len("_example")] + ".py" for name in globals()
              if name.startswith("test_") and name.endswith("_example")}
    assert {p.name for p in EXAMPLES_DIR.glob("*.py")} == tested


def test_quickstart_example():
    out = run_example("quickstart.py")
    assert "property check    : OK" in out
    assert "elements committed" in out


def test_digital_registry_example():
    out = run_example("digital_registry.py")
    assert "12/12 diplomas verified" in out
    assert "Safety properties: OK" in out


def test_voting_example():
    out = run_example("voting.py")
    assert "Identical tally on every server" in out
    assert "winner:" in out


def test_byzantine_tolerance_example():
    out = run_example("byzantine_tolerance.py")
    assert "honest elements epoched on every correct server : 30/30" in out
    assert "withheld elements epoched anywhere              : 0/10" in out
    assert "OK" in out


def test_chaos_partition_example():
    out = run_example("chaos_partition.py")
    assert "chaos timeline:" in out
    assert "availability by window:" in out
    assert "correct-server check : OK" in out


def test_service_overload_example():
    out = run_example("service_overload.py")
    assert "rejected by backpressure" in out
    assert "(100.0%)" in out  # every admitted element committed
    assert "property check    : OK" in out


def test_chaos_byzantine_example():
    out = run_example("chaos_byzantine.py")
    assert "become-byzantine" in out
    assert "withheld requests" in out
    assert "correct-server check : OK" in out
    assert "epoch convergence    : OK" in out


def test_trace_lifecycle_example():
    out = run_example("trace_lifecycle.py")
    assert "phase latencies since injection" in out
    assert "committed" in out and "p99" in out
    assert "verify cache" in out
    assert "trace file" in out and "tracks" in out


def test_elastic_scale_example():
    out = run_example("elastic_scale.py")
    assert "(join server-4)" in out and "(leave server-2)" in out
    assert "final membership     : n=5 (quorum 3)" in out
    assert "injected / committed : 3000 / 2850 (95.0%)" in out


def test_shard_scaleout_example():
    out = run_example("shard_scaleout.py")
    assert "4 shard(s): committed   9996 of 9996 injected (100.0%)" in out
    assert "per-shard Properties 1, 3-8 violations: []" in out
    assert "merged-view Properties 1, 3-8 violations: []" in out


def test_throughput_comparison_example():
    out = run_example("throughput_comparison.py")
    assert "Rolling throughput (el/s, 9 s window)" in out
    cells = [line.split("|") for line in out.splitlines()]
    measured = {row[0].strip(): float(row[2]) for row in cells if len(row) == 6
                and row[0].strip() in ("vanilla", "compresschain", "hashchain")}
    # Paper Fig. 1 (left): Vanilla saturates first, Hashchain keeps up.
    assert measured["vanilla"] < measured["compresschain"] < measured["hashchain"]
