"""``python -m repro.obs`` — validate observability artifacts, profile a run.

The small tool CLI behind ``make trace-smoke-core`` and ``make profile``:

* ``validate-trace PATH [--format auto|chrome|jsonl]`` — parse a trace file
  written by ``repro trace`` and check its structural schema;
* ``prom-smoke [--scenario service/smoke]`` — start an in-process service
  runtime with its HTTP endpoint, stream a little traffic, then validate the
  Prometheus exposition at ``/metrics?format=prometheus``, the JSON default
  at ``/metrics``, and the ``/healthz`` response headers;
* ``profile SCENARIO [--seed N] [--scale S] [--sort KEY] [--limit N]
  [--out PATH] [--out-collapsed PATH]`` — cProfile one registered scenario,
  built, run and packaged as a ``benchmarks/e2e`` batch pass is.  cProfile
  taxes every Python call and no native one, so it finds candidates;
  wall-clock numbers come from the harness (``make e2e``), profiling off.
"""

from __future__ import annotations

import argparse
import json
import sys
import urllib.error
import urllib.request
from pathlib import Path
from typing import Any, Sequence

from ..errors import ConfigurationError, ReproError
from .export import validate_trace_file
from .prom import parse_exposition


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Validate trace files and Prometheus exposition output; "
                    "profile one scenario run.")
    sub = parser.add_subparsers(dest="command", required=True)

    trace_p = sub.add_parser("validate-trace",
                             help="validate a trace file's schema")
    trace_p.add_argument("path", help="trace file written by `repro trace`")
    trace_p.add_argument("--format", choices=("auto", "chrome", "jsonl"),
                         default="auto", help="trace format (default: sniff)")
    trace_p.add_argument("--min-tracks", type=int, default=1,
                         help="fail below this many named tracks (default 1)")

    prom_p = sub.add_parser(
        "prom-smoke",
        help="end-to-end check of the service Prometheus endpoint")
    prom_p.add_argument("--scenario", default="service/smoke",
                        help="service scenario to run (default service/smoke)")
    prom_p.add_argument("--seed", type=int, default=7)
    prom_p.add_argument("--elements", type=int, default=200,
                        help="elements to stream before scraping (default 200)")
    prom_p.add_argument("--ticks", type=int, default=20,
                        help="service ticks to advance (default 20)")

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
    return parser


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


def _fetch(url: str) -> tuple[int, dict, bytes]:
    request = urllib.request.Request(url)
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:  # 4xx/5xx still carry a body
        return error.code, dict(error.headers), error.read()


def _cmd_prom_smoke(args: argparse.Namespace) -> int:
    from ..service.http import MetricsEndpoint
    from ..service.runtime import ServiceRuntime

    failures: list[str] = []
    with ServiceRuntime(args.scenario, seed=args.seed) as runtime:
        runtime.submit_many(args.elements)
        for _ in range(args.ticks):
            runtime.tick()
        with MetricsEndpoint(runtime) as endpoint:
            # 1. Prometheus exposition parses and carries the core families.
            status, headers, body = _fetch(
                endpoint.url + "/metrics?format=prometheus")
            if status != 200:
                failures.append(f"/metrics?format=prometheus returned {status}")
            if not headers.get("Content-Type", "").startswith("text/plain"):
                failures.append("prometheus reply is not text/plain")
            try:
                metrics = parse_exposition(body.decode())
            except ConfigurationError as error:
                failures.append(f"exposition invalid: {error}")
                metrics = {}
            for family in ("repro_injected_total", "repro_committed_total",
                           "repro_ingress_total", "repro_server_backlog"):
                if family not in metrics:
                    failures.append(f"exposition missing {family}")
            # 2. The JSON default is unchanged.
            status, headers, body = _fetch(endpoint.url + "/metrics")
            if status != 200 or not headers.get("Content-Type", "").startswith(
                    "application/json"):
                failures.append("/metrics JSON default broken")
            else:
                snapshot = json.loads(body)
                if snapshot.get("injected", 0) <= 0:
                    failures.append("JSON snapshot shows no injected elements")
            # 3. healthz carries the caching headers (and Retry-After on 503).
            status, headers, body = _fetch(endpoint.url + "/healthz")
            if headers.get("Cache-Control") != "no-store":
                failures.append("/healthz missing Cache-Control: no-store")
            if status == 503 and "Retry-After" not in headers:
                failures.append("/healthz 503 without Retry-After")
            if status == 200 and json.loads(body).get("status") != "ok":
                failures.append("/healthz 200 but status != ok")
    if failures:
        for failure in failures:
            print(f"error: {failure}", file=sys.stderr)
        return 1
    print(f"prom-smoke ok: {args.scenario} exposition valid "
          f"({len(metrics)} metric families)")
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

    from ..api.session import Session

    if args.sort not in pstats.Stats.sort_arg_dict_default:
        valid = ", ".join(sorted(pstats.Stats.sort_arg_dict_default))
        print(f"error: unknown --sort key {args.sort!r} (valid: {valid})",
              file=sys.stderr)
        return 1
    profiler = cProfile.Profile()
    profiler.enable()
    session = Session(args.scenario, scale=args.scale, seed=args.seed).start().run()
    result = session.result()
    profiler.disable()
    print(f"{args.scenario}: committed={result.committed} "
          f"events={session.deployment.sim.events_executed}")
    stats = pstats.Stats(profiler).sort_stats(args.sort)
    stats.print_stats(args.limit)
    if args.out:
        target = Path(args.out)
        target.parent.mkdir(parents=True, exist_ok=True)
        stats.dump_stats(str(target))
        print(f"wrote {target}")
    if args.out_collapsed:
        print(f"wrote {_write_collapsed(stats, args.out_collapsed)}")
    return 0


_COMMANDS = {"validate-trace": _cmd_validate_trace,
             "prom-smoke": _cmd_prom_smoke,
             "profile": _cmd_profile}


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
