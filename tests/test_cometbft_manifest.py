"""Byte-identity pin for CometBFT-backed scenarios across the catalog.

``tests/golden/cometbft_manifest.json`` maps scenario name to
``sha256(RunResult.to_json())`` at seed 7 and scale 1/10, recorded on the
commit *before* mempool gossip stopped being delivery events and Hashchain
started settling co-sign repeats as runs.  Both may only make the schedule
cheaper: every mempool arrival, block, commit time, fault counter and
artifact byte must stay what one event per (transaction, peer) and per
(transaction, server) produced — under crashes, partitions, lossy, duplicating
and slow links, Byzantine servers, validator replacement and wide-area
topologies, for all three algorithms.

The runs carry the ``slow`` marker (deselected by the default run; CI has a
job for them).  Re-record with
``PYTHONPATH=src python tests/test_cometbft_manifest.py`` — only ever on a
commit whose artifacts are known-good.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from test_vanilla_manifest import artifact_digest

from repro.api.catalog import SCENARIOS

MANIFEST = Path(__file__).parent / "golden" / "cometbft_manifest.json"
SCALE = 10

PINNED = (
    "chaos/crash/one-hashchain", "chaos/crash/one-compresschain",
    "chaos/crash/one-vanilla", "chaos/crash/rolling-restart",
    "chaos/partition/minority-hashchain",
    "chaos/partition/minority-compresschain",
    "chaos/partition/minority-vanilla", "chaos/partition/during-commit",
    "chaos/loss/flaky-5pct", "chaos/loss/wan-10pct", "chaos/dup/gossip-storm",
    "chaos/delay/spike-250ms", "chaos/churn/validators-at-f",
    "chaos/combo/partition-then-crash",
    "chaos/recovery/hashchain-batch-resync",
    "byz/combo/full-nemesis", "byz/equivocate/one-vanilla",
    "byz/withhold/one-hashchain", "byz/wrong-hash/one-hashchain",
    "byz/silent/one-compresschain", "member/replace/validator",
    "wan/hashchain/2region-d60", "wan/vanilla/2region-d30",
    "geo/compresschain/us-eu-ap", "mixed/tri/n6",
    "mixed/light/hashchain-vs-light-n4",
)


def test_manifest_covers_the_pinned_selection():
    assert tuple(json.loads(MANIFEST.read_text())) == PINNED
    assert all(SCENARIOS[name].build().ledger_backend == "cometbft"
               for name in PINNED)


@pytest.mark.slow
@pytest.mark.parametrize("name", PINNED)
def test_artifact_is_byte_identical_to_the_pinned_digest(name):
    assert artifact_digest(name, SCALE) == json.loads(MANIFEST.read_text())[name]


if __name__ == "__main__":
    digests = {}
    for scenario in PINNED:
        digests[scenario] = artifact_digest(scenario, SCALE)
        print(scenario, digests[scenario], flush=True)
    MANIFEST.write_text(json.dumps(digests, indent=2) + "\n")
