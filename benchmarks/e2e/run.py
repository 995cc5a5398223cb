"""The repo benchmark: five pinned workloads, fixed-count best-of-N passes.

    python3 benchmarks/e2e/run.py                      # every workload
    python3 benchmarks/e2e/run.py --workload bulk-hashchain --seed 7 \\
        --seconds 12 --trace 0                         # what the driver runs
    python3 benchmarks/e2e/run.py --selfcheck          # A/A: is it quiet enough
    python3 benchmarks/e2e/run.py --test               # the harness's own tests

Each workload is measured in fresh child interpreters (``child.py``) with
``PYTHONHASHSEED=0``: five cold set-ups, then one child that runs a warm-up
and a *fixed number* of timed passes.  The last line printed per workload is
the contract's JSON object; the process exits non-zero when any output check
fails.  ``README.md`` in this directory has the protocol and the metric map.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from stats import valid_name  # noqa: E402

#: Cold set-ups per run; ``setup_s`` is their minimum (noise only ever adds).
SETUP_SAMPLES = 5
#: Timed passes at the declared ``run_seconds``; never fewer than the floor.
NOMINAL_PASSES, MIN_PASSES = 20, 12
#: A child that has not finished by then is killed (the contract allows 180 s).
CHILD_TIMEOUT_S = 150

SIMULATED = ("sim_latency_p50_s", "sim_latency_p99_s", "sim_goodput_el_per_s",
             "commit_fraction")


def load_declaration() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def passes_for(seconds: int, run_seconds: int) -> int:
    """The pass count is a function of ``--seconds`` alone — never of how
    fast the host happens to be — so that peak RSS (which grows with every
    pass) and the best-of-N statistic stay comparable between runs."""
    return max(MIN_PASSES, round(NOMINAL_PASSES * seconds / run_seconds))


def run_child(*arguments: Any) -> dict[str, Any]:
    """One child interpreter, waited for; its last stdout line is the report."""
    environment = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *map(str, arguments)],
        env=environment, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"child {arguments} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def run_workload(name: str, seed: int, passes: int, trace: bool,
                 declaration: dict[str, Any],
                 expect_committed: int | None = None) -> dict[str, Any]:
    """Measure one workload; returns the full report (also written to
    ``out/<workload>.json``) with the contract's result under ``"result"``."""
    setups = [run_child("setup", name, seed) for _ in range(SETUP_SAMPLES)]
    fastest = min(setups, key=lambda sample: sample["setup_s"])
    extra = [] if expect_committed is None else [expect_committed]
    report = run_child("measure", name, seed, passes, int(trace), *extra)

    report["setup_samples_s"] = [sample["setup_s"] for sample in setups]
    end_to_end = {"setup_s": fastest["setup_s"], **report["end_to_end"]}
    per_layer = {**report.get("layers", {}), **report["host"],
                 "host.import_s": fastest["import_s"],
                 "host.build_s": fastest["build_s"]}
    report["end_to_end"], report["per_layer"] = end_to_end, per_layer
    del report["host"]
    report.pop("layers", None)

    group = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declaration[group]}
    values = per_layer if trace else end_to_end
    checks = report["checks"]
    checks["names_match_declaration"] = set(values) == set(units)
    checks["metrics_finite"] = all(
        isinstance(v, (int, float)) and math.isfinite(v) and valid_name(k)
        for k, v in {**end_to_end, **per_layer}.items())
    failed_checks = [key for key, verdict in checks.items()
                     if verdict is not True and verdict != []]
    report["result"] = {
        "correct": not failed_checks,
        "attempted": report["offered"], "failed": report["refused"],
        "metrics": {key: {"value": values[key], "unit": units[key]}
                    for key in values if key in units},
    }
    report["failed_checks"] = failed_checks
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"{name}.json").write_text(json.dumps(report, indent=1) + "\n")
    return report


def print_report(name: str, report: dict[str, Any],
                 declaration: dict[str, Any]) -> None:
    units = {m["name"]: m["unit"]
             for m in declaration["end_to_end"] + declaration["per_layer"]}
    conditions = report["conditions"]
    print(f"== {name}  seed {conditions['seed']}  "
          f"{conditions['timed_passes']} timed passes  "
          f"offered {report['offered']}  committed {report['committed']}  "
          f"refused {report['refused']}  "
          f"latency samples {report['latency_samples']}")
    for key, value in {**report["end_to_end"], **report["per_layer"]}.items():
        print(f"  {key:36s} {value:>18.6f} {units.get(key, '')}")
    print(f"  conditions: {json.dumps(conditions)}")
    for key, verdict in report["checks"].items():
        ok = verdict is True or verdict == []
        detail = "" if ok or verdict is False else f": {verdict[:3]}"
        print(f"  check {key:28s} {'ok' if ok else 'FAILED'}{detail}")
    print(json.dumps(report["result"]))


def selfcheck(names: list[str], seed: int, passes: int,
              declaration: dict[str, Any]) -> int:
    """The whole set twice, A and B interleaved per workload with the order
    alternating; every end-to-end cell must agree within its bound and the
    simulated-time cells exactly."""
    bounds = {m["name"]: m["bound"] for m in declaration["end_to_end"]}
    worst = 0
    for index, name in enumerate(names):
        first = run_workload(name, seed, passes, False, declaration)
        second = run_workload(name, seed, passes, False, declaration)
        a, b = (first, second) if index % 2 == 0 else (second, first)
        for sample in (first, second):
            if sample["failed_checks"]:
                print(f"{name}: checks failed: {sample['failed_checks']}")
                worst = 1
        for key, bound in bounds.items():
            x, y = a["end_to_end"][key], b["end_to_end"][key]
            difference = abs(x - y) / min(abs(x), abs(y))
            exact = key in SIMULATED
            ok = x == y if exact else difference <= bound
            print(f"{name:20s} {key:22s} A {x:<20.12g} B {y:<20.12g} "
                  f"diff {difference:8.4%}  bound "
                  f"{'exact' if exact else format(bound, '.0%'):>5s}  "
                  f"{'ok' if ok else 'FAILED'}")
            if not ok:
                worst = 1
    print("selfcheck", "passed" if worst == 0 else "FAILED")
    return worst


def main(argv: list[str] | None = None) -> int:
    declaration = load_declaration()
    names = [w["name"] for w in declaration["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all five in turn)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=declaration["run_seconds"],
                        help="measuring budget; sets the fixed pass count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add the traced pass, report per-layer metrics "
                             "and write out/<workload>.trace.json")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run everything twice and compare (A/A)")
    parser.add_argument("--test", action="store_true",
                        help="run the harness's unit tests")
    parser.add_argument("--expect-committed", type=int, default=None,
                        help="extra output check: the committed count must "
                             "equal this (a wrong value proves the checks bite)")
    args = parser.parse_args(argv)

    if args.test:
        return subprocess.run([sys.executable, "-m", "pytest", "-q",
                               "-p", "no:cacheprovider",
                               str(HERE / "tests")]).returncode
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2

    passes = passes_for(args.seconds, declaration["run_seconds"])
    selected = [args.workload] if args.workload else names
    if args.selfcheck:
        return selfcheck(selected, args.seed, passes, declaration)
    status = 0
    for name in selected:
        report = run_workload(name, args.seed, passes, bool(args.trace),
                              declaration, args.expect_committed)
        print_report(name, report, declaration)
        if not report["result"]["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
