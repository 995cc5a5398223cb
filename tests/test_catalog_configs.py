"""Config-level pin for every registered catalog scenario.

``tests/golden/catalog_configs.json`` maps each registered scenario name to
its description, its sorted tags and the sha256 of its sort-keyed
``config_echo`` JSON.  Building all of them takes a fraction of a second, so
any change to how the catalog, the builder or ``config.py`` assemble a
scenario shows up here before a single run.  Re-record with
``PYTHONPATH=src python tests/test_catalog_configs.py`` — only ever on a
commit whose catalog is known-good.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.api.catalog import SCENARIOS
from repro.api.results import config_echo

MANIFEST = Path(__file__).parent / "golden" / "catalog_configs.json"


def catalog_manifest() -> dict[str, dict[str, object]]:
    manifest = {}
    for name, entry in sorted(SCENARIOS.items()):
        echo = json.dumps(config_echo(entry.build()), sort_keys=True)
        manifest[name] = {
            "description": entry.description,
            "tags": sorted(entry.tags),
            "config_sha256": hashlib.sha256(echo.encode()).hexdigest(),
        }
    return manifest


def test_catalog_configs_match_the_manifest():
    assert catalog_manifest() == json.loads(MANIFEST.read_text())


if __name__ == "__main__":
    MANIFEST.write_text(json.dumps(catalog_manifest(), indent=2) + "\n")
