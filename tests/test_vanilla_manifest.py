"""Catalog-wide byte-identity pin for every Vanilla-bearing scenario family.

``tests/golden/vanilla_manifest.json`` maps scenario name to
``sha256(RunResult.to_json())`` at seed 7 and scale 1, recorded on the commit
*before* the block pipeline started settling runs of transactions in one
step.  The pipeline is only allowed to get cheaper: every stamp, commit time
and artifact byte must stay what the per-transaction schedule produced.

The 25 runs take minutes, so they carry the ``slow`` marker (deselected by
the default run; CI has a job for them).  Re-record with
``PYTHONPATH=src python tests/test_vanilla_manifest.py`` — only ever on a
commit whose artifacts are known-good.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro import run
from repro.api.catalog import SCENARIOS
from repro.api.parallel import reset_run_counters

MANIFEST = Path(__file__).parent / "golden" / "vanilla_manifest.json"
SEED = 7


def pinned_scenarios() -> list[str]:
    """First four scenarios of every family naming vanilla, mixed or hetero."""
    per_family: dict[str, list[str]] = {}
    for name in sorted(SCENARIOS):
        if "million" in name or name.startswith("stress/"):
            continue
        if any(key in name for key in ("vanilla", "mixed", "hetero")):
            per_family.setdefault(name.split("/")[0], []).append(name)
    return [name for names in per_family.values() for name in names[:4]]


def artifact_digest(name: str, scale: float = 1.0) -> str:
    reset_run_counters()
    result = run(name, scale=scale, seed=SEED)
    return hashlib.sha256(result.to_json().encode()).hexdigest()


def test_manifest_covers_the_pinned_selection():
    assert list(json.loads(MANIFEST.read_text())) == pinned_scenarios()


@pytest.mark.slow
@pytest.mark.parametrize("name", pinned_scenarios())
def test_artifact_is_byte_identical_to_the_pinned_digest(name):
    assert artifact_digest(name) == json.loads(MANIFEST.read_text())[name]


if __name__ == "__main__":
    digests = {}
    for scenario in pinned_scenarios():
        digests[scenario] = artifact_digest(scenario)
        print(scenario, digests[scenario], flush=True)
    MANIFEST.write_text(json.dumps(digests, indent=2) + "\n")
