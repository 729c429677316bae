"""The HTTP surface of ``python -m repro serve`` (stdlib only).

Endpoints (see ``docs/SERVE.md`` for the full reference):

====================  =====================================================
``GET /``             status page (HTML that reloads itself)
``GET /healthz``      liveness — 200 as long as the process serves
``GET /readyz``       readiness — 200 accepting jobs, 503 while draining
``GET /metrics``      whole metrics registry, Prometheus text format
``GET /jobs``         job table summary (JSON)
``POST /jobs``        submit ``{"kind": ..., "params": {...}}`` → 202
``GET /jobs/<id>``    one job incl. result, queue position, progress/ETA
``GET /jobs/<id>/trace``   stitched Chrome-trace JSON array (finished jobs)
``GET /jobs/<id>/report``  per-job RUN_REPORT (finished jobs)
====================  =====================================================

Built on :class:`http.server.ThreadingHTTPServer` with daemon threads:
each request runs on its own thread, so a slow client never blocks the
accept loop.
"""

from __future__ import annotations

import json
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlparse

from repro.errors import ReproError
from repro.obs.metrics import counter as _obs_counter
from repro.obs.promtext import render_prometheus
from repro.serve.jobs import JobManager
from repro.serve.page import render_page

_REQUESTS = _obs_counter("serve.requests")

#: Cap on accepted POST bodies (a params dict is tiny).
MAX_BODY_BYTES = 64 * 1024

#: ``serve_forever`` poll: ``shutdown()`` waits up to one poll, so the
#: stdlib's 0.5-s default would add up to half a second to every stop.
POLL_INTERVAL_S = 0.05


class ReproServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the service's shared state."""

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        manager: JobManager,
        quiet: bool = True,
    ) -> None:
        super().__init__(address, RequestHandler)
        self.manager = manager
        self.quiet = quiet
        self.started_ts = time.time()


class RequestHandler(BaseHTTPRequestHandler):
    """One request; ``self.server`` is the :class:`ReproServer`."""

    server: ReproServer
    protocol_version = "HTTP/1.1"

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if not self.server.quiet:
            super().log_message(format, *args)

    def _send(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, obj, status: int = 200) -> None:
        body = (json.dumps(obj, indent=2) + "\n").encode()
        self._send(status, body, "application/json")

    def _error(self, status: int, message: str) -> None:
        self._send_json({"error": message}, status=status)

    # -- GET ---------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        _REQUESTS.inc()
        route = urlparse(self.path).path.rstrip("/") or "/"
        try:
            if route == "/":
                body = render_page(
                    self.server.manager, self.server.started_ts
                ).encode()
                self._send(200, body, "text/html; charset=utf-8")
            elif route == "/healthz":
                self._send_json(
                    {
                        "status": "ok",
                        "uptime_s": round(
                            time.time() - self.server.started_ts, 1
                        ),
                    }
                )
            elif route == "/readyz":
                if self.server.manager.draining:
                    self._send_json({"status": "draining"}, status=503)
                else:
                    self._send_json({"status": "ready"})
            elif route == "/metrics":
                self._send(
                    200,
                    render_prometheus().encode(),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            elif route == "/jobs":
                self._send_json(
                    {
                        "stats": self.server.manager.stats(),
                        "jobs": [
                            job.to_dict()
                            for job in self.server.manager.jobs()
                        ],
                    }
                )
            elif route.startswith("/jobs/"):
                self._job_route(route)
            else:
                self._error(404, f"no such endpoint: {route}")
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response

    def _job_route(self, route: str) -> None:
        parts = route.split("/")[2:]  # ["job-0001"] or ["job-0001", "trace"]
        job = self.server.manager.job(parts[0])
        if job is None:
            self._error(404, f"no such job: {parts[0]}")
            return
        sub = parts[1] if len(parts) > 1 else None
        if sub is None:
            payload = job.to_dict(include_result=True)
            payload["queue_position"] = self.server.manager.queue_position(job)
            self._send_json(payload)
        elif sub == "trace":
            if not job.finished:
                self._error(409, f"job {job.id} is {job.status}; no trace yet")
                return
            events = [event.to_chrome() for event in job.spans]
            self._send_json(events)
        elif sub == "report":
            if not job.finished or job.report is None:
                self._error(
                    409, f"job {job.id} is {job.status}; no report yet"
                )
                return
            self._send_json(job.report)
        else:
            self._error(404, f"no such job endpoint: {sub}")

    # -- POST --------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        _REQUESTS.inc()
        try:
            self._submit()
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response

    def _submit(self) -> None:
        route = urlparse(self.path).path.rstrip("/")
        if route != "/jobs":
            self._error(404, f"no such endpoint: {route}")
            return
        header = self.headers.get("Content-Length", "0")
        try:
            length = int(header) if header.isdigit() else -1
        except ValueError:  # a non-ASCII digit, or too many digits
            length = -1
        if length < 0:
            # Where the body ends is unknown, so the connection cannot
            # carry another request.
            self.close_connection = True
            self._error(
                400,
                f"Content-Length must be a non-negative integer, "
                f"got {header!r}",
            )
            return
        if length > MAX_BODY_BYTES:
            self._error(413, "request body too large")
            return
        raw = self.rfile.read(length) if length else b"{}"
        try:
            payload = json.loads(raw or b"{}")
        except ValueError:
            self._error(400, "request body is not valid JSON")
            return
        if not isinstance(payload, dict) or "kind" not in payload:
            self._error(400, 'expected {"kind": ..., "params": {...}}')
            return
        try:
            job, deduped = self.server.manager.submit(
                payload["kind"], payload.get("params")
            )
        except ReproError as exc:
            self._error(400, str(exc))
            return
        except RuntimeError as exc:  # draining
            self._error(503, str(exc))
            return
        response = job.to_dict()
        response["deduped"] = deduped
        response["queue_position"] = self.server.manager.queue_position(job)
        self._send_json(response, status=202)
