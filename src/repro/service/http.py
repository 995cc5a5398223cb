"""Live metrics over HTTP: ``GET /metrics`` and ``GET /healthz``.

A tiny stdlib ``http.server`` endpoint serving scrapes of a running
:class:`~repro.service.runtime.ServiceRuntime`.  The server runs in a daemon
thread; every scrape snapshots the runtime state under a *single* lock
acquisition and renders the reply outside it, so readings are consistent with
the tick loop without ever blocking it for long.

``/metrics`` serves the JSON snapshot by default and the Prometheus text
exposition with ``?format=prometheus`` (for a scraper's ``scrape_configs``).
``/healthz`` replies ``200`` while a commit quorum of servers is live and
``503`` (with ``Retry-After``) otherwise; health responses are marked
``Cache-Control: no-store`` so no intermediary ever serves a stale verdict.
"""

from __future__ import annotations

import json
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING

from ..obs.prom import CONTENT_TYPE as PROM_CONTENT_TYPE
from ..obs.prom import render_snapshot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runtime import ServiceRuntime


class MetricsEndpoint:
    """Serve ``/metrics`` and ``/healthz`` for one runtime (daemon thread)."""

    def __init__(self, runtime: "ServiceRuntime", host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.runtime = runtime
        endpoint = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                endpoint._handle(self)

            def log_message(self, *args: object) -> None:
                """Silence per-request stderr logging."""

        self._server = ThreadingHTTPServer((host, port), Handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name="repro-metrics", daemon=True)
        self._stopped = False
        self._thread.start()

    def _handle(self, request: BaseHTTPRequestHandler) -> None:
        parsed = urllib.parse.urlsplit(request.path)
        path = parsed.path
        query = urllib.parse.parse_qs(parsed.query)
        if path == "/metrics":
            if query.get("format", ["json"])[-1] == "prometheus":
                # One lock acquisition buys all three; the (allocation-heavy)
                # text rendering then runs without holding the runtime lock.
                snapshot, healthz, latencies = (
                    self.runtime.observability_snapshot())
                text = render_snapshot(snapshot, healthz=healthz,
                                       latencies=latencies)
                self._reply_text(request, 200, text, PROM_CONTENT_TYPE)
            else:
                self._reply(request, 200, self.runtime.metrics_snapshot())
        elif path == "/healthz":
            body = self.runtime.healthz()
            healthy = body["status"] == "ok"
            headers = {"Cache-Control": "no-store"}
            if not healthy:
                headers["Retry-After"] = "1"
            self._reply(request, 200 if healthy else 503, body,
                        extra_headers=headers)
        else:
            self._reply(request, 404, {"error": f"no route {path!r}",
                                       "routes": ["/metrics", "/healthz"]})

    @staticmethod
    def _reply(request: BaseHTTPRequestHandler, status: int, body: dict,
               extra_headers: dict[str, str] | None = None) -> None:
        payload = json.dumps(body).encode()
        request.send_response(status)
        request.send_header("Content-Type", "application/json")
        request.send_header("Content-Length", str(len(payload)))
        if extra_headers:
            for name, value in extra_headers.items():
                request.send_header(name, value)
        request.end_headers()
        request.wfile.write(payload)

    @staticmethod
    def _reply_text(request: BaseHTTPRequestHandler, status: int, text: str,
                    content_type: str) -> None:
        payload = text.encode()
        request.send_response(status)
        request.send_header("Content-Type", content_type)
        request.send_header("Content-Length", str(len(payload)))
        request.end_headers()
        request.wfile.write(payload)

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0`` for an ephemeral port)."""
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self) -> None:
        """Shut the endpoint down (idempotent)."""
        if self._stopped:
            return
        self._stopped = True
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "MetricsEndpoint":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
