"""Stdlib HTTP client for the analysis daemon.

Used by the ``repro client`` CLI subcommand, the load generator, tests
and CI — anything that talks to a running ``repro daemon``.  One class,
no dependencies beyond :mod:`http.client`.

``ServiceError`` carries the HTTP status and the server's JSON error
document; a 429 additionally exposes ``retry_after`` so callers can
implement the backoff the daemon asked for.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.trace import get_tracer


def _trace_context() -> Optional[Dict[str, Any]]:
    """The caller's trace context, when tracing is on.

    Attached to ``check``/``edit`` payloads so the daemon's
    ``service.job`` span joins the client's trace — the job's worker-side
    spans then parent under whatever span was open when the request was
    made (one trace reads end to end across the processes).
    """
    tracer = get_tracer()
    if not tracer.enabled:
        return None
    context: Dict[str, Any] = {"trace_id": tracer.trace_id}
    stack = tracer._stack()
    if stack:
        context["parent_span_id"] = stack[-1]
    return context


class ServiceError(Exception):
    """A non-2xx daemon response."""

    def __init__(self, status: int, payload: Dict[str, Any]) -> None:
        self.status = status
        self.payload = payload
        self.retry_after = int(payload.get("retry_after", 0) or 0)
        super().__init__(
            f"HTTP {status}: {payload.get('error', 'request failed')}"
        )

    @property
    def overloaded(self) -> bool:
        return self.status == 429


class ServiceClient:
    """Talks to one daemon at ``host:port`` (a new connection per
    request — the daemon is HTTP/1.0, no keep-alive)."""

    def __init__(
        self, port: int, host: str = "127.0.0.1", timeout: float = 600.0
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- raw transport -------------------------------------------------
    def request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            body = None
            headers = {}
            if payload is not None:
                body = json.dumps(payload).encode("utf-8")
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            raw = response.read().decode("utf-8", "replace")
            try:
                document = json.loads(raw) if raw.strip() else {}
            except json.JSONDecodeError:
                document = {"error": raw.strip()}
            if response.status == 429 and "retry_after" not in document:
                document["retry_after"] = response.getheader("Retry-After", "1")
            return response.status, document
        finally:
            conn.close()

    def _checked(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        status, document = self.request(method, path, payload)
        if status >= 400:
            raise ServiceError(status, document)
        return document

    # -- API surface ---------------------------------------------------
    def check(
        self,
        source: str,
        checkers: Any = "all",
        session: str = "",
        wait: bool = True,
        budget: Optional[Dict[str, Any]] = None,
        wait_seconds: Optional[float] = None,
    ) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "source": source,
            "checkers": checkers,
            "wait": wait,
        }
        if session:
            payload["session"] = session
        if budget:
            payload["budget"] = budget
        if wait_seconds is not None:
            payload["wait_seconds"] = wait_seconds
        context = _trace_context()
        if context:
            payload["trace"] = context
        return self._checked("POST", "/v1/check", payload)

    def edit(
        self,
        session: str,
        text: str,
        checkers: Any = "all",
        function: str = "",
        wait: bool = True,
        budget: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "session": session,
            "text": text,
            "checkers": checkers,
            "wait": wait,
        }
        if function:
            payload["function"] = function
        if budget:
            payload["budget"] = budget
        context = _trace_context()
        if context:
            payload["trace"] = context
        return self._checked("POST", "/v1/edit", payload)

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._checked("GET", f"/v1/jobs/{job_id}")

    def result(self, job_id: str) -> Dict[str, Any]:
        return self._checked("GET", f"/v1/results/{job_id}")

    def wait_result(
        self, job_id: str, timeout: float = 300.0, poll: float = 0.05
    ) -> Dict[str, Any]:
        """Poll ``/v1/results`` until the job reaches a terminal state."""
        deadline = time.monotonic() + timeout
        while True:
            status, document = self.request("GET", f"/v1/results/{job_id}")
            if status == 200:
                return document
            if status not in (202,):
                raise ServiceError(status, document)
            if time.monotonic() > deadline:
                raise TimeoutError(f"job {job_id} still pending after {timeout}s")
            time.sleep(poll)

    def health(self) -> Dict[str, Any]:
        return self._checked("GET", "/healthz")

    def sessions(self) -> List[Dict[str, Any]]:
        return self._checked("GET", "/v1/sessions").get("sessions", [])

    def metrics_text(self) -> str:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            return response.read().decode("utf-8", "replace")
        finally:
            conn.close()
