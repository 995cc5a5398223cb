"""The ``python -m repro`` command line: one subcommand table.

* ``list-scenarios`` — enumerate the catalog grouped by family (filter by
  ``--tag`` / ``--contains`` / ``--family``, machine-readable with
  ``--json``);
* ``run`` — run one catalog scenario, print its summary, and optionally
  persist the :class:`RunResult` as a JSON artifact;
* ``sweep`` — run every scenario matching a filter and write one JSON
  artifact per run into an output directory;
* ``report`` — re-render saved :class:`RunResult` JSON artifacts as the
  standard summary table (plus a per-region breakdown for multi-region runs
  and a resilience breakdown for fault-injected runs), without re-running
  anything; ``--phases`` adds the per-phase latency percentiles of traced
  artifacts;
* ``trace`` — run one scenario with lifecycle tracing enabled and write the
  trace as a Chrome ``trace_event`` file (Perfetto-loadable) or JSONL;
* ``validate-trace PATH`` — parse a trace file written by ``trace`` and
  check its structural schema;
* ``profile SCENARIO`` — cProfile one scenario, built, run and packaged as
  a ``benchmarks/e2e`` batch pass is.  cProfile taxes every Python call and
  no native one, so it finds candidates; wall-clock numbers come from the
  harness (``make e2e``), profiling off;
* ``serve``, ``service inspect`` and ``prom-smoke`` — service mode
  (:mod:`repro.service.cli`).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Sequence

from ..analysis.report import render_table
from ..errors import ReproError
from ..obs.export import validate_trace_file
from ..service.cli import (add_prom_smoke_arguments, add_serve_arguments,
                           add_service_arguments, cmd_prom_smoke, cmd_serve,
                           cmd_service)
from .parallel import RunSpec, execute_spec, iter_spec_results, jobs_arg
from .results import SUMMARY_HEADERS, RunResult
from .session import Session


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run and inspect Setchain reproduction scenarios.")
    sub = parser.add_subparsers(dest="command", required=True)

    list_p = sub.add_parser("list-scenarios",
                            help="enumerate registered scenarios")
    list_p.add_argument("--tag", help="only scenarios carrying this tag")
    list_p.add_argument("--contains", help="only names containing this substring")
    list_p.add_argument("--family", help="only scenarios in this family "
                                         "(the name's first path segment)")
    list_p.add_argument("--json", action="store_true",
                        help="emit one JSON object per line")

    run_p = sub.add_parser("run", help="run one registered scenario")
    run_p.add_argument("name", help="registered scenario name (see list-scenarios)")
    _add_run_options(run_p)
    run_p.add_argument("--json", metavar="PATH",
                       help="write the RunResult JSON artifact here")

    sweep_p = sub.add_parser("sweep",
                             help="run every scenario matching a filter")
    sweep_p.add_argument("--tag", help="scenarios carrying this tag")
    sweep_p.add_argument("--contains", help="names containing this substring")
    sweep_p.add_argument("--family", help="only scenarios in this family "
                                          "(the name's first path segment)")
    _add_run_options(sweep_p)
    sweep_p.add_argument("--out", metavar="DIR", default="results",
                         help="directory for RunResult JSON artifacts "
                              "(default: results/)")
    sweep_p.add_argument("--limit", type=_non_negative_int, default=None,
                         help="run at most this many scenarios")
    sweep_p.add_argument("--jobs", type=jobs_arg, default=1, metavar="N|auto",
                         help="worker processes for the sweep "
                              "(default 1; 'auto' = all cores)")
    sweep_p.add_argument("--trace-sample", type=float, default=None,
                         metavar="F",
                         help="enable lifecycle tracing at this sample rate "
                              "(0 < F <= 1; off by default)")
    sweep_p.add_argument("--trace-dir", metavar="DIR", default=None,
                         help="write one trace file per scenario here "
                              "(requires --trace-sample)")
    sweep_p.add_argument("--trace-format", choices=("chrome", "jsonl"),
                         default="chrome",
                         help="trace file format (default chrome)")

    report_p = sub.add_parser("report",
                              help="summarise saved RunResult JSON files")
    report_p.add_argument("files", nargs="+", metavar="JSON",
                          help="RunResult artifacts produced by run/sweep")
    report_p.add_argument("--phases", action="store_true",
                          help="add per-phase latency percentiles "
                               "(traced artifacts only)")

    trace_p = sub.add_parser("trace",
                             help="run one scenario with lifecycle tracing "
                                  "and write a trace file")
    trace_p.add_argument("name",
                         help="registered scenario name (see list-scenarios)")
    _add_run_options(trace_p)
    trace_p.add_argument("--out", metavar="PATH", required=True,
                         help="trace file to write")
    trace_p.add_argument("--format", choices=("chrome", "jsonl"),
                         default="chrome",
                         help="trace file format (default chrome; load "
                              "chrome traces in Perfetto / about:tracing)")
    trace_p.add_argument("--sample", type=float, default=1.0,
                         help="element sampling rate in (0, 1] (default 1.0)")
    trace_p.add_argument("--json", metavar="PATH",
                         help="also write the RunResult JSON artifact here")

    check_p = sub.add_parser("validate-trace",
                             help="validate a trace file's schema")
    check_p.add_argument("path", help="trace file written by `repro trace`")
    check_p.add_argument("--format", choices=("auto", "chrome", "jsonl"),
                         default="auto", help="trace format (default: sniff)")
    check_p.add_argument("--min-tracks", type=int, default=1,
                         help="fail below this many named tracks (default 1)")

    prof_p = sub.add_parser(
        "profile", help="cProfile one scenario run and print the hottest functions")
    prof_p.add_argument("scenario", help="registered scenario name")
    prof_p.add_argument("--seed", type=int, default=1, help="run seed (default 1)")
    prof_p.add_argument("--scale", type=float, default=1.0,
                        help="scale factor passed to the runner (default 1.0)")
    prof_p.add_argument("--sort", default="tottime",
                        help="pstats sort key: tottime, cumulative, calls, ... "
                             "(default tottime)")
    prof_p.add_argument("--limit", type=int, default=25,
                        help="number of rows to print (default 25)")
    prof_p.add_argument("--out", metavar="PATH",
                        help="also dump raw pstats data here (for snakeviz etc.)")
    prof_p.add_argument("--out-collapsed", metavar="PATH",
                        help="also write caller;callee collapsed stacks here "
                             "(feed to flamegraph.pl / speedscope)")

    # Service mode (repro.service): the service package declares the
    # arguments and holds the handlers.
    serve_p = sub.add_parser("serve",
                             help="run a scenario as a long-lived service "
                                  "(streamed ingest, live /metrics)")
    add_serve_arguments(serve_p)
    service_p = sub.add_parser("service",
                               help="operate on persisted service ledgers")
    add_service_arguments(service_p)
    add_prom_smoke_arguments(sub.add_parser(
        "prom-smoke",
        help="end-to-end check of the service Prometheus endpoint"))

    return parser


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=1.0,
                        help="down-scale factor (divides rate/block size, "
                             "preserves ratios; default 1)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the simulator/workload seed")
    parser.add_argument("--to-completion", action="store_true",
                        help="run past the horizon until all elements commit")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the per-run summary")


def _run_one(name: str, args: argparse.Namespace) -> RunResult:
    from . import run
    return run(name, scale=args.scale, seed=args.seed,
               to_completion=args.to_completion)


def _print_summary(result: RunResult) -> None:
    print(f"scenario : {result.label}")
    print(f"  injected / committed : {result.injected} / {result.committed}"
          f" ({result.committed_fraction:.1%})")
    print(f"  avg throughput (50s) : {result.avg_throughput_50s:.1f} el/s")
    print(f"  analytical bound     : {result.analytical_throughput:.0f} el/s")
    print(f"  efficiency 50/75/100 : {result.efficiency['50s']:.3f} / "
          f"{result.efficiency['75s']:.3f} / {result.efficiency['100s']:.3f}")
    if result.first_commit is not None:
        print(f"  first commit         : {result.first_commit:.2f} s")


def _cmd_list(args: argparse.Namespace) -> int:
    from .catalog import SCENARIOS, select
    entries = select(args.tag, args.contains, args.family)
    if args.json:
        for entry in entries:
            print(json.dumps({"name": entry.name,
                              "family": entry.family,
                              "description": entry.description,
                              "tags": sorted(entry.tags)}))
        return 0
    if not entries:
        print("no scenarios match", file=sys.stderr)
        return 1
    families: dict[str, list] = {}
    for entry in entries:
        families.setdefault(entry.family, []).append(entry)
    blocks = []
    for family in sorted(families):
        members = families[family]
        rows = [[entry.name, ",".join(sorted(entry.tags)), entry.description]
                for entry in members]
        blocks.append(render_table(["name", "tags", "description"], rows,
                                   title=f"[{family}] ({len(members)})"))
    print("\n\n".join(blocks))
    tags = sorted(set().union(*(entry.tags for entry in SCENARIOS.values())))
    print(f"\n{len(entries)} scenarios in {len(families)} families; "
          f"tags: {', '.join(tags)}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    result = _run_one(args.name, args)
    if not args.quiet:
        _print_summary(result)
    if args.json:
        path = result.save(args.json)
        if not args.quiet:
            print(f"  wrote {path}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .catalog import SCENARIOS, select
    entries = select(args.tag, args.contains, args.family)
    if args.family and not entries:
        families = sorted({entry.family for entry in SCENARIOS.values()})
        print(f"no scenarios in family {args.family!r}; families: "
              f"{', '.join(families)}", file=sys.stderr)
        return 1
    if not entries:
        print("no scenarios match the sweep filter", file=sys.stderr)
        return 1
    if args.limit is not None:
        entries = entries[:args.limit]
    if not entries:
        print("nothing to run (--limit 0)", file=sys.stderr)
        return 0
    if args.trace_dir is not None and args.trace_sample is None:
        print("--trace-dir requires --trace-sample", file=sys.stderr)
        return 1
    out_dir = Path(args.out)
    suffix = ".trace.json" if args.trace_format == "chrome" else ".trace.jsonl"
    specs = [RunSpec(name=entry.name, scale=args.scale, seed=args.seed,
                     to_completion=args.to_completion,
                     trace_sample=args.trace_sample,
                     trace_out=(None if args.trace_dir is None else str(
                         Path(args.trace_dir)
                         / (entry.name.replace("/", "__") + suffix))),
                     trace_format=args.trace_format) for entry in entries]
    if not args.quiet and args.jobs > 1:
        print(f"running {len(specs)} scenarios on {args.jobs} workers")
    # Results stream back in input order and are persisted one by one, so an
    # interrupted sweep keeps every artifact completed so far.
    results = iter_spec_results(specs, jobs=args.jobs)
    for index, (entry, result) in enumerate(zip(entries, results), start=1):
        path = result.save(out_dir / (entry.name.replace("/", "__") + ".json"))
        if not args.quiet:
            print(f"[{index}/{len(entries)}] {entry.name}")
            _print_summary(result)
            print(f"  wrote {path}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    results = [RunResult.load(path) for path in args.files]
    rows = [[r.label] + r.summary_row()[1:] for r in results]
    headers = ("scenario",) + SUMMARY_HEADERS[1:]
    print(render_table(list(headers), rows))
    regional = [r for r in results if r.regions]
    if regional:
        region_rows = [
            [result.label, region, stats.get("servers", 0),
             stats.get("added", 0), stats.get("committed", 0),
             "-" if stats.get("first_commit") is None
             else f"{stats['first_commit']:.2f}"]
            for result in regional
            for region, stats in sorted(result.regions.items())]
        print()
        print(render_table(
            ["scenario", "region", "servers", "added", "committed",
             "first commit (s)"],
            region_rows, title="per-region breakdown"))
    faulted = [r for r in results if r.faults]
    if faulted:
        fault_rows = []
        for result in faulted:
            report = result.faults
            assert report is not None
            windows = report.get("availability", {}).get("windows", [])
            fractions = [w["availability"] for w in windows
                         if w.get("availability") is not None]
            recoveries = [entry["recovery_s"]
                          for entry in report.get("recovery", [])
                          if entry.get("recovery_s") is not None]
            fault_rows.append([
                result.label,
                len(report.get("events", [])),
                report.get("messages_dropped", 0),
                report.get("messages_duplicated", 0),
                report.get("rejected_while_crashed", 0),
                "-" if not fractions else f"{min(fractions):.3f}",
                "-" if not recoveries else f"{max(recoveries):.2f}",
            ])
        print()
        print(render_table(
            ["scenario", "faults", "dropped", "duplicated", "lost adds",
             "min avail", "recovery (s)"],
            fault_rows, title="resilience (fault-injected runs)"))
    adversarial = [r for r in results if r.faults and r.faults.get("byzantine")]
    if adversarial:
        byz_rows = []
        for result in adversarial:
            assert result.faults is not None
            block = result.faults["byzantine"]
            counters = block.get("counters", {})
            byz_rows.append([
                result.label,
                len(block.get("servers", [])),
                counters.get("withheld_requests", 0),
                counters.get("bogus_hash_batches", 0),
                counters.get("invalid_elements_appended", 0),
                counters.get("invalid_elements_refused", 0),
                counters.get("equivocating_proofs", 0),
                counters.get("suppressed_elements", 0),
            ])
        print()
        print(render_table(
            ["scenario", "byz servers", "withheld", "bogus hashes",
             "invalid appended", "invalid refused", "equivocations",
             "suppressed"],
            byz_rows, title="byzantine attribution (adversarial runs)"))
    sharded = [r for r in results if r.shards]
    if sharded:
        shard_rows = []
        for result in sharded:
            block = result.shards
            assert block is not None
            router = block.get("router", {})
            per_shard = block.get("per_shard", {})
            for shard, stats in sorted(per_shard.items(),
                                       key=lambda kv: int(kv[0])):
                shard_rows.append([
                    result.label, shard, len(stats.get("servers", [])),
                    stats.get("routed", 0), stats.get("added", 0),
                    stats.get("committed", 0),
                    f"{stats.get('avg_throughput_50s', 0.0):.1f}",
                ])
            skew = block.get("skew_ratio")
            shard_rows.append([
                result.label, "all", sum(len(s.get("servers", []))
                                         for s in per_shard.values()),
                router.get("routed", 0),
                f"defer={router.get('deferred', 0)}",
                f"reject={router.get('rejected', 0)}",
                "-" if skew is None else f"skew={skew:.2f}",
            ])
        print()
        print(render_table(
            ["scenario", "shard", "servers", "routed", "added", "committed",
             "el/s (50s)"],
            shard_rows, title="per-shard breakdown (sharded runs)"))
    elastic = [r for r in results if r.membership]
    if elastic:
        member_rows = []
        for result in elastic:
            block = result.membership
            assert block is not None
            current = block.get("current", {})
            catch_ups = [entry["catch_up_s"]
                         for entry in block.get("joins", [])
                         if entry.get("catch_up_s") is not None]
            first_commits = [entry["join_to_first_commit_s"]
                             for entry in block.get("joins", [])
                             if entry.get("join_to_first_commit_s") is not None]
            member_rows.append([
                result.label,
                len(block.get("epochs", [])),
                len(block.get("joins", [])),
                len(block.get("leaves", [])),
                f"{current.get('size', 0)} (q={current.get('quorum', 0)})",
                "-" if not catch_ups else f"{max(catch_ups):.2f}",
                "-" if not first_commits else f"{max(first_commits):.2f}",
            ])
        print()
        print(render_table(
            ["scenario", "epochs", "joins", "leaves", "final n",
             "catch-up (s)", "join→commit (s)"],
            member_rows, title="membership (elastic runs)"))
    if args.phases:
        from ..obs.trace import PHASES
        traced = [r for r in results if r.telemetry]
        if not traced:
            print()
            print("no traced artifacts (run with `repro trace` or "
                  "--trace-sample for --phases data)")
            return 0
        phase_rows = []
        for result in traced:
            assert result.telemetry is not None
            phases = result.telemetry.get("phases", {})
            for phase in PHASES[1:]:
                stats = phases.get(phase)
                if stats is None:
                    continue
                phase_rows.append([
                    result.label, phase, stats.get("count", 0),
                    f"{stats['p50']:.4f}", f"{stats['p95']:.4f}",
                    f"{stats['p99']:.4f}", f"{stats['max']:.4f}"])
        print()
        print(render_table(
            ["scenario", "phase", "count", "p50 (s)", "p95 (s)", "p99 (s)",
             "max (s)"],
            phase_rows, title="phase latency since injection (traced runs)"))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    # Routed through execute_spec — the exact code path sweep workers run —
    # so `repro trace` and `repro sweep --trace-dir` write byte-identical
    # files for the same (scenario, scale, seed, sample).
    spec = RunSpec(name=args.name, scale=args.scale, seed=args.seed,
                   to_completion=args.to_completion, trace_sample=args.sample,
                   trace_out=args.out, trace_format=args.format)
    result = execute_spec(spec)
    if not args.quiet:
        _print_summary(result)
        telemetry = result.telemetry or {}
        print(f"  trace                : {args.out} ({args.format}, "
              f"{telemetry.get('trace_events', 0)} events, "
              f"{telemetry.get('sampled_elements', 0)} sampled elements)")
    if args.json:
        path = result.save(args.json)
        if not args.quiet:
            print(f"  wrote {path}")
    return 0


def _cmd_validate_trace(args: argparse.Namespace) -> int:
    stats = validate_trace_file(args.path, fmt=args.format)
    tracks = stats.get("tracks", [])
    if len(tracks) < args.min_tracks:
        print(f"error: {args.path}: {len(tracks)} named tracks, "
              f"expected at least {args.min_tracks}", file=sys.stderr)
        return 1
    print(f"{args.path}: valid {stats['format']} trace — "
          f"{stats['events']} events on {len(tracks)} tracks "
          f"({', '.join(tracks)})")
    return 0


def _frame_name(func: tuple) -> str:
    """Render a pstats function key as one flamegraph frame.

    Semicolons separate frames in the collapsed format, so they (and spaces,
    which separate the frame stack from the sample count) must not appear
    inside a name.
    """
    filename, lineno, funcname = func
    if filename == "~":  # C builtins profile as ('~', 0, '<built-in ...>')
        label = funcname
    else:
        label = f"{Path(filename).name}:{lineno}:{funcname}"
    return label.replace(";", ",").replace(" ", "_")


def _write_collapsed(stats: Any, path: str) -> Path:
    """Write flamegraph-collapsed stacks (``caller;callee usec`` lines).

    cProfile keeps caller/callee edges, not full stacks, so the output is
    two frames deep: each line charges a callee's internal time (µs) to one
    caller edge; root frames (no recorded caller) appear alone.  That is
    enough for ``flamegraph.pl`` or speedscope to render a useful profile
    without any third-party tooling.
    """
    lines = []
    for func, (cc, nc, tt, ct, callers) in stats.stats.items():
        name = _frame_name(func)
        edges = [(f"{_frame_name(caller)};{name}", edge_tt)
                 for caller, (_, _, edge_tt, _) in callers.items()] or [(name, tt)]
        for stack, seconds in edges:
            usec = int(round(seconds * 1e6))
            if usec > 0:
                lines.append(f"{stack} {usec}")
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text("\n".join(sorted(lines)) + "\n")
    return target


def _cmd_profile(args: argparse.Namespace) -> int:
    import cProfile
    import pstats

    if args.sort not in pstats.Stats.sort_arg_dict_default:
        valid = ", ".join(sorted(pstats.Stats.sort_arg_dict_default))
        print(f"error: unknown --sort key {args.sort!r} (valid: {valid})",
              file=sys.stderr)
        return 1
    # cProfile's enable/disable and pstats.Stats (which disables again) each
    # drop the caller's profile hook: put it back, on error too.
    outer = sys.getprofile()
    profiler = cProfile.Profile()
    try:
        profiler.enable()
        session = Session(args.scenario, scale=args.scale, seed=args.seed).start().run()
        result = session.result()
        profiler.disable()
        stats = pstats.Stats(profiler).sort_stats(args.sort)
    finally:
        profiler.disable()
        sys.setprofile(outer)
    print(f"{args.scenario}: committed={result.committed} "
          f"events={session.deployment.sim.events_executed}")
    stats.print_stats(args.limit)
    if args.out:
        target = Path(args.out)
        target.parent.mkdir(parents=True, exist_ok=True)
        stats.dump_stats(str(target))
        print(f"wrote {target}")
    if args.out_collapsed:
        print(f"wrote {_write_collapsed(stats, args.out_collapsed)}")
    return 0


_COMMANDS = {
    "list-scenarios": _cmd_list,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "report": _cmd_report,
    "trace": _cmd_trace,
    "validate-trace": _cmd_validate_trace,
    "profile": _cmd_profile,
    "serve": cmd_serve,
    "service": cmd_service,
    "prom-smoke": cmd_prom_smoke,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
