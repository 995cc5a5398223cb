"""Reach audit: which ``src/repro`` functions does the system never enter?

    python benchmarks/reach.py          # or: make reach (about 10 min)

Runs what the system is for -- every example, the README's ``python`` blocks
(``tests/test_readme.py``, the one block extractor), the five benchmark
workloads (one setup child and one untraced measuring child each, as
``benchmarks/e2e/run.py`` runs them), the paper-shape suite, the six
``make *-smoke`` targets, CI's CLI smoke and a ``--scale 20`` sweep of the
whole catalog -- with ``PYTHONHASHSEED=0`` and one profile hook in every
interpreter they start (``sys.setprofile`` plus ``threading.setprofile``,
installed by a generated ``sitecustomize``; forked workers dump before
``os._exit``).  Then it writes ``benchmarks/reach.txt``: one line per
function that no interpreter entered, sorted by path and line,

    path:line qualname lines class reason

where ``lines`` counts the ``def`` through its last line.  A function nested
in an unentered function goes with its parent and is not listed.  ``class``
and ``reason`` are carried over from the list being replaced, keyed by
(path, qualname): ``needed`` (an error path, a protocol stub, a diagnostic,
or a path a test or the benchmark harness names as its reference; the
reason says which), ``duplicate`` (fold it into the path the system runs) or
``dead`` (delete it with the tests that only test it).  "Public" is no
reason: a name a user needs earns a README block that runs it.  A new entry
reads ``unclassified -`` until someone decides.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
LIST = ROOT / "benchmarks" / "reach.txt"

#: Written into a temporary directory put first on every child's
#: ``PYTHONPATH``.  Each interpreter records the code objects it runs and, at
#: exit, appends ``filename<TAB>first line`` rows to a file of its own.
HOOK = '''
import atexit, os, sys, threading

def _install(out_dir=os.environ["REPRO_REACH_OUT"]):
    codes = set()
    record = codes.add

    def hook(frame, event, arg):
        record(frame.f_code)

    def dump():
        sys.setprofile(None)
        rows = {f"{code.co_filename}\\t{code.co_firstlineno}\\n"
                for code in list(codes)}
        name = os.path.join(out_dir, f"{os.getpid()}-{id(codes)}.txt")
        with open(name, "a") as handle:
            handle.writelines(sorted(rows))
        codes.clear()

    real_exit = os._exit

    def exit_after_dump(status):
        dump()
        real_exit(status)

    os._exit = exit_after_dump
    atexit.register(dump)
    sys.setprofile(hook)
    threading.setprofile(hook)

if os.environ.get("REPRO_REACH_OUT"):
    _install()
'''

#: CI's CLI smoke run (``.github/workflows/ci.yml``), artifacts in {tmp}.
CLI_SMOKE = [
    ["list-scenarios", "--tag", "demo"],
    *(["list-scenarios", "--family", family]
      for family in ("mixed", "chaos", "byz", "member", "service", "shard")),
    *(["run", name, "--json", f"{{tmp}}/{index}.json"]
      for index, name in enumerate(("smoke", "wan/hashchain/smoke",
                                    "chaos/smoke", "byz/smoke",
                                    "member/smoke", "shard/smoke"))),
    ["report", *(f"{{tmp}}/{index}.json" for index in range(6))],
]
SMOKE_TARGETS = ("chaos-smoke", "byz-smoke", "membership-smoke",
                 "shard-smoke", "service-smoke", "trace-smoke-core")
FIGURE1 = "benchmarks/test_figure1_throughput_over_time.py::test_figure1_"


def sources(tmp: str, python_path: str) -> list[list[str]]:
    """Every command whose reach counts, as argv lists run from the root."""
    python = sys.executable
    workloads = [entry["name"] for entry in
                 json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    return [
        *([python, str(path)] for path in sorted((ROOT / "examples").glob("*.py"))),
        [python, "-m", "pytest", "tests/test_readme.py", "-q",
         "-p", "no:cacheprovider"],
        *([python, "benchmarks/e2e/child.py", "setup", name, "7"]
          for name in workloads),
        *([python, "benchmarks/e2e/child.py", "measure", name, "7", "2", "0"]
          for name in workloads),
        [python, "-m", "pytest", "benchmarks/", "--ignore=benchmarks/e2e",
         "--benchmark-disable", "-q", "-p", "no:cacheprovider",
         *(f"--deselect={FIGURE1}{test}" for test in (
             "left_orderings", "center_both_stressed",
             "right_collector_500_helps_hashchain_more"))],
        *(["make", "-s", target, f"PYTHON={python}", f"PYTHONPATH={python_path}"]
          for target in SMOKE_TARGETS),
        *([python, "-m", "repro", *(arg.format(tmp=tmp) for arg in args)]
          for args in CLI_SMOKE),
        [python, "-m", "repro", "sweep", "--scale", "20", "--jobs", "1",
         "--quiet", "--out", f"{tmp}/sweep"],
    ]


def entered_lines(out_dir: Path) -> set[tuple[str, int]]:
    entered = set()
    for dump in out_dir.iterdir():
        for row in dump.read_text().splitlines():
            filename, line = row.split("\t")
            entered.add((os.path.realpath(filename), int(line)))
    return entered


def unreached(entered: set[tuple[str, int]]) -> list[tuple[str, int, str, int]]:
    """(path, first line, qualname, lines) of each function never entered.
    ``first line`` is the code object's: the first decorator's, else the
    ``def``'s."""
    rows = []

    def walk(node, prefix, path, filename):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(decorator.lineno for decorator
                                             in child.decorator_list)])
                qualname = prefix + child.name
                if (filename, first) in entered:
                    walk(child, f"{qualname}.<locals>.", path, filename)
                else:
                    rows.append((path, first, qualname,
                                 child.end_lineno - child.lineno + 1))
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.", path, filename)
            else:
                walk(child, prefix, path, filename)

    for path in sorted((SRC / "repro").rglob("*.py")):
        walk(ast.parse(path.read_text()), "", str(path.relative_to(ROOT)),
             os.path.realpath(path))
    return sorted(rows)


def previous_classes() -> dict[tuple[str, str], str]:
    """(path, qualname) -> ``class reason`` from the list being replaced."""
    classes = {}
    if LIST.exists():
        for row in LIST.read_text().splitlines():
            where, qualname, _, verdict = row.split(" ", 3)
            classes[(where.rsplit(":", 1)[0], qualname)] = verdict
    return classes


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        hook_dir, out_dir = Path(tmp, "hook"), Path(tmp, "dumps")
        hook_dir.mkdir()
        out_dir.mkdir()
        (hook_dir / "sitecustomize.py").write_text(HOOK)
        python_path = f"{hook_dir}{os.pathsep}{SRC}"
        environment = dict(os.environ, PYTHONHASHSEED="0",
                           PYTHONPATH=python_path, REPRO_REACH_OUT=str(out_dir))
        for command in sources(tmp, python_path):
            print("reach:", " ".join(command[1:]), flush=True)
            subprocess.run(command, cwd=ROOT, env=environment, check=True,
                           stdout=subprocess.DEVNULL)
        rows = unreached(entered_lines(out_dir))

    classes = previous_classes()
    verdicts = [classes.get((path, qualname), "unclassified -")
                for path, _, qualname, _ in rows]
    with LIST.open("w") as handle:
        for (path, first, qualname, lines), verdict in zip(rows, verdicts):
            handle.write(f"{path}:{first} {qualname} {lines} {verdict}\n")
    counts = Counter(verdict.split()[0] for verdict in verdicts)
    print(f"reach: {len(rows)} functions ({sum(row[3] for row in rows)} lines) "
          f"never entered: {dict(counts)}; list in {LIST.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
