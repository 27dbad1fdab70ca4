"""The analysis daemon: a persistent HTTP service over the engine.

``repro daemon`` keeps one process resident so repeated checks pay the
interpreter/warm-up and preparation cost once.  The HTTP surface is
stdlib-only (:class:`ThreadingHTTPServer`), bound to ``127.0.0.1``:

``POST /v1/check``
    Full-program analysis.  Body: ``{"source": ..., "checkers":
    ["use-after-free", ...] | "all", "session": "name", "wait": true}``.
    Naming a session makes later requests *warm*: unchanged functions
    are served from the session's in-memory artifact cache.
``POST /v1/edit``
    Single-function delta re-check against a warm session.  Body:
    ``{"session": ..., "text": "<one function definition>"}``.  The
    daemon splices the re-parsed function over the session's current
    program and re-analyzes — the AST x interface fingerprints confine
    re-preparation to what the edit invalidated.
``GET /v1/jobs/<id>`` / ``GET /v1/results/<id>``
    Job status / full result document.
``GET /v1/sessions``
    Resident warm sessions.
``GET /healthz`` / ``/metrics`` / ``/status`` / ``/events``
    The monitor surface, inherited from :mod:`repro.obs.monitor`
    (healthz is extended with port, queue depth and job counts).  The
    HTTP front end is a :class:`~repro.obs.monitor.MonitorServer` run
    with the daemon's handler class.

Contracts:

- **Byte-identity** — a daemon result's ``reports`` and ``diagnostics``
  are exactly what one-shot ``repro check --json`` emits for the same
  program and checkers (both build on
  :func:`repro.core.report.report_as_dict`, on
  :func:`repro.core.report.aggregate_results` for the dedup and exit
  code, and on the same ``prepare_program``; see "The byte-identity contract"
  in ``docs/service.md``).
- **Overload degrades, never crashes** — admission control refuses
  excess work with ``429`` + ``Retry-After`` before it costs anything;
  accepted jobs always reach a terminal state, and worker crashes fail
  the one job, not the daemon.
- **Budgets are per request** — each job runs under its own
  :class:`~repro.robust.ResourceBudget` derived from daemon defaults
  (optionally tightened, never widened, by the request's ``budget``).
"""

from __future__ import annotations

import functools
import json
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.engine import EngineConfig
from repro.core.incremental import apply_function_edit
from repro.core.report import aggregate_results, report_as_dict
from repro.lang.parser import ParseError, parse_program
from repro.obs.metrics import get_registry
from repro.obs.monitor import STREAM_POLL_SECONDS, MonitorServer, _MonitorHandler
from repro.obs.trace import trace
from repro.robust import ResourceBudget
from repro.robust.heap import hold_full_collections
from repro.service.jobs import (
    STATUS_ABORTED,
    STATUS_DONE,
    STATUS_FAILED,
    AdmissionQueue,
    Job,
    JobTable,
)
from repro.service.session import Session, SessionCache, parse_single_function

#: Request bodies past this are refused with 413 before being parsed.
MAX_BODY_BYTES = 10 * 1024 * 1024

#: Default seconds a ``wait: true`` request blocks before falling back
#: to a 202 + job id (the client can keep polling ``/v1/results``).
DEFAULT_WAIT_SECONDS = 300.0


@dataclass
class ServiceConfig:
    """Daemon-level knobs (engine defaults + capacity limits)."""

    workers: int = 2
    queue_max: int = 16
    max_sessions: int = 32
    # Engine defaults, mirroring the `repro check` flags.
    depth: int = 6
    no_smt: bool = False
    verify: str = ""  # "" | off | fast | full (as `repro check --verify`)
    pta: str = "fi"
    # Per-request budget defaults (0 = unlimited, as on the CLI).
    deadline: float = 0.0
    smt_deadline: float = 0.0
    max_steps: int = 0
    # Persistence.
    cache_dir: str = ""
    history_dir: str = ""
    max_body_bytes: int = MAX_BODY_BYTES
    # Test hook: artificial seconds each worker sleeps per job, so
    # overload tests can fill the queue with deterministically slow work.
    worker_delay_seconds: float = 0.0

    def engine_config(self) -> EngineConfig:
        return EngineConfig(
            max_call_depth=self.depth,
            use_smt=not self.no_smt,
            verify=self.verify,
            pta_tier=self.pta,
        )


@dataclass
class _BudgetSpec:
    wall_seconds: float = 0.0
    smt_seconds: float = 0.0
    max_steps: int = 0

    @classmethod
    def from_payload(cls, raw: Any) -> "_BudgetSpec":
        if not isinstance(raw, dict):
            return cls()
        return cls(
            wall_seconds=float(raw.get("deadline", 0) or 0),
            smt_seconds=float(raw.get("smt_deadline", 0) or 0),
            max_steps=int(raw.get("max_steps", 0) or 0),
        )


def _tightest(request: float, default: float) -> Optional[float]:
    """Combine a request-supplied limit with the daemon default: the
    request can tighten the budget but never widen past the default."""
    values = [v for v in (request, default) if v and v > 0]
    return min(values) if values else None


class ServiceServer:
    """The daemon: HTTP front end, admission queue, worker pool."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        store = None
        if self.config.cache_dir:
            from repro.cache import open_store

            store = open_store(self.config.cache_dir)
        self.sessions = SessionCache(
            self.config.engine_config(),
            store=store,
            max_sessions=self.config.max_sessions,
        )
        self.jobs = JobTable()
        self.queue = AdmissionQueue(self.config.queue_max)
        self.running = False
        self.started_at = 0.0
        self.port = 0
        self.host = "127.0.0.1"
        self._http: Optional[MonitorServer] = None
        self._workers: List[threading.Thread] = []
        self._anon = 0
        self._anon_lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------
    def start(self, port: int = 0) -> int:
        """Bind (port 0 = ephemeral), start workers; returns the port."""
        self._http = MonitorServer(
            port, self.host, functools.partial(_ServiceHandler, service=self)
        )
        self.port = self._http.start()
        self.running = True
        self.started_at = time.monotonic()
        for index in range(self.config.workers):
            worker = threading.Thread(
                target=self._worker_loop,
                name=f"repro-service-worker-{index}",
                daemon=True,
            )
            worker.start()
            self._workers.append(worker)
        return self.port

    def stop(self) -> None:
        """Graceful shutdown: finish running jobs, abort queued ones."""
        if not self.running:
            return
        self.running = False
        for _ in self._workers:
            self.queue.push_sentinel()
        for worker in self._workers:
            worker.join(timeout=30.0)
        self._workers = []
        # Anything still queued never ran; give it a terminal state so
        # waiting clients unblock with a definite answer.
        while True:
            job = self.queue.pop(timeout=0.0)
            if job is None:
                break
            self.jobs.finish(job, STATUS_ABORTED, error="daemon shutting down")
        if self._http is not None:
            self._http.stop()
            self._http = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "ServiceServer":
        self.start()
        return self

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False

    # -- submission (called from handler threads) ----------------------
    def submit_check(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        source = payload.get("source")
        if not isinstance(source, str) or not source.strip():
            return {"http": 400, "error": "missing 'source'"}
        checkers = self._resolve_checkers(payload.get("checkers", "all"))
        if checkers is None:
            return {"http": 400, "error": "unknown checker in 'checkers'"}
        session = payload.get("session") or self._anon_session()
        if not isinstance(session, str):
            return {"http": 400, "error": "'session' must be a string"}
        job = self.jobs.create(
            kind="check",
            session=session,
            checkers=checkers,
            payload={
                "source": source,
                "budget": _BudgetSpec.from_payload(payload.get("budget")),
                "trace": payload.get("trace"),
            },
        )
        return self._admit(job)

    def submit_edit(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        session_name = payload.get("session")
        if not isinstance(session_name, str) or not session_name:
            return {"http": 400, "error": "missing 'session'"}
        text = payload.get("text")
        if not isinstance(text, str) or not text.strip():
            return {"http": 400, "error": "missing 'text'"}
        session = self.sessions.peek(session_name)
        if session is None or session.program is None:
            return {
                "http": 404,
                "error": f"no warm session {session_name!r} "
                "(run /v1/check with this session name first)",
            }
        try:
            func = parse_single_function(text, session.program)
        except (ParseError, ValueError) as exc:
            return {"http": 400, "error": f"bad edit payload: {exc}"}
        wanted = payload.get("function")
        if wanted and wanted != func.name:
            return {
                "http": 400,
                "error": f"edit names function {wanted!r} but text "
                f"defines {func.name!r}",
            }
        if not any(f.name == func.name for f in session.program.functions):
            return {
                "http": 404,
                "error": f"session {session_name!r} has no function "
                f"{func.name!r} (use /v1/check to add functions)",
            }
        checkers = self._resolve_checkers(payload.get("checkers", "all"))
        if checkers is None:
            return {"http": 400, "error": "unknown checker in 'checkers'"}
        job = self.jobs.create(
            kind="edit",
            session=session_name,
            checkers=checkers,
            payload={
                "func": func,
                "budget": _BudgetSpec.from_payload(payload.get("budget")),
                "trace": payload.get("trace"),
            },
        )
        return self._admit(job)

    def _admit(self, job: Job) -> Dict[str, Any]:
        if not self.running:
            self.jobs.finish(job, STATUS_ABORTED, error="daemon shutting down")
            return {"http": 503, "error": "daemon shutting down"}
        if not self.queue.submit(job):
            retry_after = self.queue.retry_after_seconds()
            self.jobs.finish(job, STATUS_ABORTED, error="queue full")
            return {
                "http": 429,
                "error": "queue full",
                "retry_after": retry_after,
                "queue_depth": self.queue.depth(),
            }
        return {"http": 202, "job": job}

    def _anon_session(self) -> str:
        with self._anon_lock:
            self._anon += 1
            return f"anon-{self._anon}"

    @staticmethod
    def _resolve_checkers(raw: Any) -> Optional[List[str]]:
        from repro.cli import CHECKERS

        if raw in ("all", None, ""):
            return list(CHECKERS)
        if isinstance(raw, str):
            raw = [raw]
        if not isinstance(raw, list) or not all(
            isinstance(name, str) and name in CHECKERS for name in raw
        ):
            return None
        # Canonical CHECKERS order, deduplicated — the same order
        # ``repro check --all`` runs in, which byte-identity relies on.
        wanted = set(raw)
        return [name for name in CHECKERS if name in wanted]

    # -- worker pool ---------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            job = self.queue.pop(timeout=STREAM_POLL_SECONDS)
            if job is None:
                if not self.running:
                    return
                continue
            try:
                with hold_full_collections():
                    self._run_job(job)
            except Exception:
                # A crash fails the one job, never the worker.
                self.jobs.finish(
                    job, STATUS_FAILED, error=traceback.format_exc(limit=8)
                )
            finally:
                self._observe(job)

    def _run_job(self, job: Job) -> None:
        self.jobs.start(job)
        if self.config.worker_delay_seconds:
            time.sleep(self.config.worker_delay_seconds)
        session = self.sessions.acquire(job.session)
        # The job joins the distributed trace of whoever submitted it:
        # trace_id/parent_span_id come from the request payload (or were
        # minted at accept time), so a client-side trace export shows the
        # daemon's work parented under the client's request span.
        with trace(
            "service.job",
            unit=job.kind,
            job_id=job.job_id,
            session=job.session,
            trace_id=job.trace_id,
            parent_span=job.parent_span_id,
        ):
            with session.lock:
                kind = self._resolve_kind(job, session)
                try:
                    program = self._job_program(job, session)
                except ParseError as exc:
                    self.jobs.finish(
                        job, STATUS_FAILED, error=f"parse error: {exc}"
                    )
                    return
                except KeyError as exc:
                    self.jobs.finish(
                        job,
                        STATUS_FAILED,
                        error=f"session has no function {exc.args[0]!r}",
                    )
                    return
                result = self._analyze(job, session, program, kind)
        self.jobs.finish(job, STATUS_DONE, result=result)

    @staticmethod
    def _resolve_kind(job: Job, session: Session) -> str:
        """cold | warm | edit, decided when the job actually runs (a
        queued-behind-first-check job on the same session is warm)."""
        if job.kind == "edit":
            return "edit"
        return "warm" if session.warm else "cold"

    @staticmethod
    def _job_program(job: Job, session: Session):
        if job.kind == "edit":
            if session.program is None:
                raise KeyError(job.payload["func"].name)
            return apply_function_edit(session.program, job.payload["func"])
        return parse_program(job.payload["source"])

    def _analyze(self, job: Job, session, program, kind: str) -> Dict[str, Any]:
        from repro.cli import CHECKERS

        spec: _BudgetSpec = job.payload.get("budget") or _BudgetSpec()
        budget = ResourceBudget(
            wall_seconds=_tightest(spec.wall_seconds, self.config.deadline),
            max_steps=int(
                _tightest(spec.max_steps, self.config.max_steps) or 0
            )
            or None,
            smt_seconds=_tightest(spec.smt_seconds, self.config.smt_deadline),
        )
        engine = session.analyzer.analyze_program(program, budget=budget)
        stats = session.analyzer.last_stats
        results = [engine.check(CHECKERS[name]()) for name in job.checkers]
        session.adopt(program)

        diagnostics, exit_code = aggregate_results(results)
        return {
            "job_id": job.job_id,
            "kind": kind,
            "session": job.session,
            "status": STATUS_DONE,
            "exit_code": exit_code,
            "findings": sum(len(result.reports) for result in results),
            "checkers": list(job.checkers),
            "reports": [report_as_dict(r) for result in results for r in result],
            "diagnostics": [diag.as_dict() for diag in diagnostics],
            "fingerprint": session.fingerprint,
            "incremental": {
                "analyzed": stats.analyzed,
                "reused": stats.reused,
                "functions": stats.total,
            },
            "findings_by_checker": {
                result.checker: len(result.reports) for result in results
            },
        }

    def _observe(self, job: Job) -> None:
        registry = get_registry()
        kind = job.result["kind"] if job.result else job.kind
        registry.counter(
            "service.requests", "Jobs finished by the daemon"
        ).inc(kind=kind, status=job.status)
        seconds = job.service_seconds
        if seconds:
            registry.histogram(
                "service.request_seconds",
                "Client-visible job latency (queue wait + analysis)",
            ).observe(seconds, kind=kind)
            self.queue.observe_service_seconds(seconds)

    # -- read side -----------------------------------------------------
    def health_doc(self) -> Dict[str, Any]:
        return {
            "ok": True,
            "service": "repro-daemon",
            "port": self.port,
            "running": self.running,
            "workers": self.config.workers,
            "queue_depth": self.queue.depth(),
            "queue_max": self.config.queue_max,
            "sessions": len(self.sessions),
            "jobs": self.jobs.counts(),
            "uptime_seconds": round(
                max(0.0, time.monotonic() - self.started_at), 3
            ),
        }


class _ServiceHandler(_MonitorHandler):
    """Monitor surface plus the ``/v1`` job API."""

    server_version = "repro-service/1"

    def __init__(self, *args, service: ServiceServer, **kwargs) -> None:
        # Set before the base constructor, which handles the request.
        self._service = service
        super().__init__(*args, **kwargs)

    # -- GET -----------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        path = self.path.split("?", 1)[0]
        try:
            if path.startswith("/v1/jobs/"):
                self._get_job(path[len("/v1/jobs/"):])
            elif path.startswith("/v1/results/"):
                self._get_result(path[len("/v1/results/"):])
            elif path == "/v1/sessions":
                self._send_json({"sessions": self._service.sessions.snapshot()})
            else:
                super().do_GET()
        except (BrokenPipeError, ConnectionResetError):
            pass

    def _healthz(self) -> None:
        self._send_json(self._service.health_doc())

    def _get_job(self, job_id: str) -> None:
        job = self._service.jobs.get(job_id)
        if job is None:
            self._send_json({"error": "no such job", "job_id": job_id}, 404)
            return
        self._send_json(job.as_dict())

    def _get_result(self, job_id: str) -> None:
        job = self._service.jobs.get(job_id)
        if job is None:
            self._send_json({"error": "no such job", "job_id": job_id}, 404)
            return
        self._respond_for(job, waited=job.done.is_set())

    # -- POST ----------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        try:
            payload = self._read_body()
            if payload is None:
                return  # error response already sent
            if self.path == "/v1/check":
                verdict = self._service.submit_check(payload)
            elif self.path == "/v1/edit":
                verdict = self._service.submit_edit(payload)
            else:
                self._send_json({"error": "not found", "path": self.path}, 404)
                return
            self._finish_submit(payload, verdict)
        except (BrokenPipeError, ConnectionResetError):
            pass

    def _read_body(self) -> Optional[Dict[str, Any]]:
        limit = self._service.config.max_body_bytes
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            self._send_json({"error": "bad Content-Length"}, 400)
            return None
        if length > limit:
            self._send_json(
                {"error": f"body exceeds {limit} bytes", "limit": limit}, 413
            )
            return None
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._send_json({"error": f"bad JSON body: {exc}"}, 400)
            return None
        if not isinstance(payload, dict):
            self._send_json({"error": "body must be a JSON object"}, 400)
            return None
        return payload

    def _finish_submit(self, payload: Dict[str, Any], verdict: Dict[str, Any]) -> None:
        status = verdict.pop("http")
        job = verdict.pop("job", None)
        if job is None:
            if status == 429:
                self.send_response(429)
                body = (json.dumps(verdict, sort_keys=True) + "\n").encode("utf-8")
                self.send_header("Retry-After", str(verdict["retry_after"]))
                self.send_header("Content-Type", "application/json; charset=utf-8")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
            else:
                self._send_json(verdict, status)
            return
        wait = payload.get("wait", True)
        if wait:
            timeout = float(payload.get("wait_seconds", DEFAULT_WAIT_SECONDS))
            waited = job.done.wait(timeout=timeout)
        else:
            waited = False
        self._respond_for(job, waited=waited)

    def _respond_for(self, job: Job, waited: bool) -> None:
        """202+job doc while pending, result doc when done, job doc with
        the error when failed/aborted."""
        if not waited and not job.done.is_set():
            self._send_json(job.as_dict(), 202)
            return
        if job.status == STATUS_DONE and job.result is not None:
            self._send_json(job.result)
        else:
            self._send_json(job.as_dict())
