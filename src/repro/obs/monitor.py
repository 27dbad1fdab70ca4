"""Live analysis monitor: a tiny stdlib HTTP server over the obs layer.

``repro check --monitor-port N`` (also ``profile`` and ``selfcheck``)
starts a :class:`MonitorServer` on a daemon thread next to the
analysis; ``--linger`` keeps it serving after the run.  Four endpoints,
all read-only:

``/healthz``
    Liveness probe — ``{"ok": true}`` plus the current stage.  Returns
    200 even while degraded; degradation is state, not ill health.
``/metrics``
    The process :class:`~repro.obs.metrics.MetricsRegistry` in
    Prometheus text exposition format.
``/status``
    JSON progress snapshot from the global
    :class:`~repro.obs.progress.ProgressTracker`: current stage,
    functions prepared/cached/quarantined, checkers done, degradation
    totals.
``/events``
    The progress event log.  Default is a Server-Sent-Events stream
    (``text/event-stream``) that follows the run live; ``?follow=0``
    dumps the buffered events as JSON lines and closes, which is what
    ``curl`` in CI wants.  ``?since=SEQ`` resumes after a known event.

The server binds ``127.0.0.1`` only — it is a local inspection hatch,
not a service — and port ``0`` picks an ephemeral port (``start()``
returns the bound port).  The analysis daemon (:mod:`repro.service`)
serves its ``/v1`` API through the same server lifecycle by passing a
handler class that extends :class:`_MonitorHandler`.
"""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.obs.metrics import get_registry
from repro.obs.progress import get_progress

#: Seconds an SSE stream waits for a new event before emitting a
#: keep-alive comment (also bounds shutdown latency of stream threads).
STREAM_POLL_SECONDS = 0.5


class _MonitorHandler(BaseHTTPRequestHandler):
    server_version = "repro-monitor/1"
    protocol_version = "HTTP/1.0"

    # The monitor is ancillary: never let request logging pollute the
    # analysis output on stdout/stderr.
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    # ------------------------------------------------------------------
    def _send(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, payload, status: int = 200) -> None:
        body = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
        self._send(status, "application/json; charset=utf-8", body)

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        parsed = urlparse(self.path)
        query = parse_qs(parsed.query)
        try:
            if parsed.path == "/healthz":
                self._healthz()
            elif parsed.path == "/metrics":
                self._metrics()
            elif parsed.path == "/status":
                self._send_json(get_progress().snapshot())
            elif parsed.path == "/events":
                self._events(query)
            else:
                self._send_json({"error": "not found", "path": parsed.path}, 404)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response; nothing to clean up

    def _healthz(self) -> None:
        snapshot = get_progress().snapshot()
        self._send_json(
            {
                "ok": True,
                # The bound port, so a scraper that found us via a
                # printed ephemeral-port line can confirm it has the
                # right process.
                "port": self.server.server_address[1],
                "stage": snapshot["stage"],
                "running": snapshot["running"],
                "degraded": snapshot["degraded"],
            }
        )

    def _metrics(self) -> None:
        text = get_registry().to_prometheus()
        self._send(200, "text/plain; version=0.0.4; charset=utf-8", text.encode("utf-8"))

    def _events(self, query) -> None:
        progress = get_progress()
        since = int(query.get("since", ["0"])[0])
        follow = query.get("follow", ["1"])[0] not in ("0", "false", "no")
        if not follow:
            events = progress.events_after(since)
            body = "".join(json.dumps(e, sort_keys=True) + "\n" for e in events)
            self._send(200, "application/x-ndjson; charset=utf-8", body.encode("utf-8"))
            return

        # SSE: stream until the run finishes or the client disconnects.
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream; charset=utf-8")
        self.send_header("Cache-Control", "no-cache")
        self.end_headers()
        monitor: "MonitorServer" = self.server.monitor  # type: ignore[attr-defined]
        last = since
        while monitor.running:
            events = progress.events_after(last)
            for event in events:
                last = event["seq"]
                chunk = "event: {kind}\ndata: {data}\n\n".format(
                    kind=event["kind"], data=json.dumps(event, sort_keys=True)
                )
                self.wfile.write(chunk.encode("utf-8"))
            if events:
                self.wfile.flush()
                if events[-1]["kind"] == "run.finish":
                    break
            elif not progress.wait_for_event(last, STREAM_POLL_SECONDS):
                self.wfile.write(b": keep-alive\n\n")
                self.wfile.flush()


class MonitorServer:
    """The monitor HTTP server on a daemon thread.

    ``handler`` builds the request handler (default: the four monitor
    endpoints); its ``/events`` stream ends when ``running`` drops."""

    def __init__(
        self,
        port: int = 0,
        host: str = "127.0.0.1",
        handler: Callable[..., BaseHTTPRequestHandler] = _MonitorHandler,
    ) -> None:
        self.host = host
        self.port = port
        self.handler = handler
        self.running = False
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> int:
        """Bind and begin serving; returns the bound port."""
        httpd = ThreadingHTTPServer((self.host, self.port), self.handler)
        httpd.daemon_threads = True
        httpd.monitor = self  # type: ignore[attr-defined]
        self._httpd = httpd
        self.port = httpd.server_address[1]
        self.running = True
        self._thread = threading.Thread(
            target=httpd.serve_forever,
            kwargs={"poll_interval": STREAM_POLL_SECONDS},
            name="repro-monitor",
            daemon=True,
        )
        self._thread.start()
        global _ACTIVE
        _ACTIVE = self
        return self.port

    def stop(self) -> None:
        """Stop serving and release the port (idempotent)."""
        if not self.running:
            return
        self.running = False
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        global _ACTIVE
        if _ACTIVE is self:
            _ACTIVE = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "MonitorServer":
        self.start()
        return self

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False


#: The monitor started by the current CLI run, if any — lets in-process
#: integration tests (and ``--linger`` teardown) find the ephemeral port.
_ACTIVE: Optional[MonitorServer] = None


def get_active_monitor() -> Optional[MonitorServer]:
    return _ACTIVE


def fetch(url: str, timeout: float = 5.0) -> Tuple[int, str]:
    """Minimal HTTP GET for tests/CLI (stdlib-only, no keep-alive).

    Returns ``(status_code, body_text)``.
    """
    parsed = urlparse(url)
    host = parsed.hostname or "127.0.0.1"
    port = parsed.port or 80
    path = parsed.path or "/"
    if parsed.query:
        path += "?" + parsed.query
    with socket.create_connection((host, port), timeout=timeout) as conn:
        request = f"GET {path} HTTP/1.0\r\nHost: {host}\r\n\r\n"
        conn.sendall(request.encode("ascii"))
        chunks = []
        while True:
            data = conn.recv(65536)
            if not data:
                break
            chunks.append(data)
    raw = b"".join(chunks).decode("utf-8", "replace")
    head, _, body = raw.partition("\r\n\r\n")
    status_line = head.splitlines()[0] if head else ""
    parts = status_line.split()
    status = int(parts[1]) if len(parts) > 1 and parts[1].isdigit() else 0
    return status, body
