"""``repro`` runs on the standard library alone.

A fresh interpreter snapshots ``sys.modules`` (so whatever its site
configuration imports is left out), imports ``repro`` and runs the ``smoke``
scenario to its result.  Every top-level module it loaded on the way must be
``repro`` itself or part of the standard library: a third-party import on
the run path costs every run, CLI call and service process its memory.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
before = set(sys.modules)
import repro
result = repro.run("smoke")
assert result.committed > 0
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(added - {"repro"} - set(sys.stdlib_module_names))))
"""


def test_a_smoke_run_loads_only_the_standard_library():
    done = subprocess.run([sys.executable, "-c", PROBE], timeout=120,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.strip().splitlines()[-1]) == []
