"""CLI entry points for service mode: ``repro serve``, ``repro service`` and
``repro prom-smoke``.

``serve`` drives a :class:`~repro.service.runtime.ServiceRuntime` from the
command line: it streams elements at a fixed rate through the ingress queue,
ticks the simulation, serves live metrics over HTTP, and shuts down cleanly
on SIGINT/SIGTERM.  ``service inspect`` re-opens a persisted sqlite ledger
offline and audits the chain.  ``prom-smoke`` starts an in-process runtime
with its HTTP endpoint, streams a little traffic, then validates the
Prometheus exposition at ``/metrics?format=prometheus``, the JSON default at
``/metrics``, and the ``/healthz`` response headers.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import urllib.error
import urllib.request

from ..analysis.report import render_table
from ..errors import ConfigurationError, ReproError
from ..obs.prom import parse_exposition
from .http import MetricsEndpoint
from .persistence import audit_chain
from .runtime import ServiceRuntime


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("scenario", nargs="?", default="service/default",
                        help="registered scenario describing the deployment "
                             "(default: service/default)")
    parser.add_argument("--db", metavar="PATH",
                        help="persist the ledger to this sqlite database; "
                             "re-opening an existing database resumes it")
    parser.add_argument("--duration", type=float, default=10.0,
                        help="simulated seconds to stream elements for "
                             "(default 10)")
    parser.add_argument("--settle", type=float, default=5.0,
                        help="extra simulated seconds to run after streaming "
                             "ends, letting in-flight elements commit "
                             "(default 5)")
    parser.add_argument("--rate", type=float, default=200.0,
                        help="submissions per simulated second (default 200)")
    parser.add_argument("--tick", type=float, default=0.1,
                        help="simulated seconds per service tick (default 0.1)")
    parser.add_argument("--queue-limit", type=int, default=10_000,
                        help="ingress queue bound before submissions are "
                             "rejected (default 10000)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="metrics endpoint bind address")
    parser.add_argument("--port", type=int, default=0,
                        help="metrics endpoint port (default 0 = ephemeral)")
    parser.add_argument("--no-http", action="store_true",
                        help="run without the metrics endpoint")
    parser.add_argument("--min-availability", type=float, default=None,
                        metavar="FRACTION",
                        help="probe /metrics every tick and exit non-zero if "
                             "fewer than this fraction of probes succeed")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the simulator/workload seed")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="down-scale factor for the deployment config")
    parser.add_argument("--json", metavar="PATH",
                        help="write the final RunResult JSON artifact here")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the end-of-run summary")


def add_service_arguments(parser: argparse.ArgumentParser) -> None:
    sub = parser.add_subparsers(dest="service_command", required=True)
    inspect_p = sub.add_parser("inspect",
                               help="audit a persisted sqlite ledger")
    inspect_p.add_argument("db", help="sqlite database written by repro serve")
    inspect_p.add_argument("--json", action="store_true",
                           help="emit the audit as one JSON object")


def add_prom_smoke_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", default="service/smoke",
                        help="service scenario to run (default service/smoke)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--elements", type=int, default=200,
                        help="elements to stream before scraping (default 200)")
    parser.add_argument("--ticks", type=int, default=20,
                        help="service ticks to advance (default 20)")


def _fetch(url: str, timeout: float = 10.0) -> tuple[int, dict, bytes]:
    """``(status, headers, body)`` of a GET; 4xx/5xx replies still carry them."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


def _probe(url: str) -> bool:
    try:
        return _fetch(url + "/metrics", timeout=2.0)[0] == 200
    except (urllib.error.URLError, OSError):
        return False


def cmd_serve(args: argparse.Namespace) -> int:
    stop_requested = False

    def request_stop(signum: int, frame: object) -> None:
        nonlocal stop_requested
        stop_requested = True

    installed: list[int] = []
    try:
        for signum in (signal.SIGINT, signal.SIGTERM):
            signal.signal(signum, request_stop)
            installed.append(signum)
    except ValueError:
        pass  # not the main thread (e.g. under a test runner worker)

    runtime = ServiceRuntime(args.scenario, db=args.db, seed=args.seed,
                             scale=args.scale, tick=args.tick,
                             queue_limit=args.queue_limit)
    endpoint = None if args.no_http else MetricsEndpoint(
        runtime, host=args.host, port=args.port)
    probing = args.min_availability is not None and endpoint is not None
    probes_ok = probes_total = 0
    try:
        if not args.quiet:
            where = f"db {args.db}" if args.db else "in-memory ledger"
            listen = endpoint.url if endpoint else "no http endpoint"
            resumed = (f", resumed {runtime.recovered_blocks} blocks"
                       if runtime.recovered_blocks else "")
            print(f"serving {args.scenario} on {where} ({listen}){resumed}")
        carry = 0.0
        ticks = max(1, round(args.duration / args.tick))
        for _ in range(ticks):
            if stop_requested:
                break
            due = args.rate * args.tick + carry
            count = int(due)
            carry = due - count
            runtime.submit_many(count, client="serve")
            runtime.tick()
            if probing:
                probes_total += 1
                probes_ok += 1 if _probe(endpoint.url) else 0
        settle_ticks = max(0, round(args.settle / args.tick))
        for _ in range(settle_ticks):
            if stop_requested:
                break
            runtime.tick()
            if probing:
                probes_total += 1
                probes_ok += 1 if _probe(endpoint.url) else 0
        snapshot = runtime.metrics_snapshot()
        result = runtime.result()
        runtime.stop()
    finally:
        if endpoint is not None:
            endpoint.stop()
        if not runtime.stopped:
            runtime.stop()
        for signum in installed:
            signal.signal(signum, signal.SIG_DFL)

    availability = probes_ok / probes_total if probes_total else None
    if not args.quiet:
        ingress = snapshot["ingress"]
        print(f"  streamed {ingress['accepted'] + ingress['deferred']} "
              f"accepted+deferred / {ingress['rejected']} rejected "
              f"(queue limit {ingress['queue_limit']})")
        print(f"  injected / committed : {snapshot['injected']} / "
              f"{snapshot['committed_this_run']} "
              f"({snapshot['committed_fraction']:.1%})")
        if snapshot["recovered_commits"]:
            print(f"  recovered commits    : {snapshot['recovered_commits']} "
                  f"(from {snapshot['recovered_blocks']} persisted blocks)")
        ledger = snapshot["ledger"]
        if ledger.get("durable"):
            print(f"  ledger height        : {ledger['height']} "
                  f"-> {ledger['db']}")
        if availability is not None:
            print(f"  /metrics availability: {availability:.1%} "
                  f"({probes_ok}/{probes_total} probes)")
        if stop_requested:
            print("  stopped early on signal")
    if args.json:
        path = result.save(args.json)
        if not args.quiet:
            print(f"  wrote {path}")
    if (args.min_availability is not None and availability is not None
            and availability < args.min_availability):
        print(f"error: /metrics availability {availability:.1%} below "
              f"required {args.min_availability:.1%}", file=sys.stderr)
        return 1
    return 0


def cmd_service(args: argparse.Namespace) -> int:
    if args.service_command == "inspect":
        return _cmd_inspect(args)
    raise ReproError(f"unknown service command {args.service_command!r}")


def _cmd_inspect(args: argparse.Namespace) -> int:
    audit = audit_chain(args.db)
    if args.json:
        print(json.dumps(audit, indent=2))
        return 0
    rows = [
        ["height", audit["height"]],
        ["transactions", audit["transactions"]],
        ["contiguous", "yes" if audit["contiguous"] else "NO"],
        ["unique elements", audit["elements"]["unique"]],
        ["element bytes", audit["elements"]["total_bytes"]],
        ["batches journaled", audit["batches_journaled"]],
        ["opens", audit["opens"]],
        ["first block at", "-" if audit["first_timestamp"] is None
         else f"{audit['first_timestamp']:.2f} s"],
        ["last block at", "-" if audit["last_timestamp"] is None
         else f"{audit['last_timestamp']:.2f} s"],
    ]
    print(render_table(["field", "value"], rows,
                       title=f"ledger audit: {audit['path']}"))
    if audit["tx_kinds"]:
        kind_rows = [[kind, count]
                     for kind, count in audit["tx_kinds"].items()]
        print()
        print(render_table(["payload kind", "transactions"], kind_rows))
    membership = audit.get("membership")
    if membership:
        member_rows = [
            ["epochs", membership["epochs"]],
            ["joins / leaves", f"{membership['joins']} / "
                               f"{membership['leaves']}"],
            ["current members", ", ".join(membership["current_members"])],
            ["epoch contiguity", "yes" if membership["contiguous"] else "NO"],
        ]
        print()
        print(render_table(["field", "value"], member_rows,
                           title="membership journal"))
    return 0


def cmd_prom_smoke(args: argparse.Namespace) -> int:
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
