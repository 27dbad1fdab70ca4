"""Job bookkeeping and admission control for the analysis daemon.

The daemon accepts more work than it can run at once; these two classes
keep that honest:

:class:`JobTable`
    Thread-safe registry of every accepted job — queued, running, and a
    bounded tail of finished ones (``/v1/jobs/<id>`` and
    ``/v1/results/<id>`` read from here).  Completed jobs beyond the
    retention cap are pruned oldest-first so a long-lived daemon's
    memory stays flat.

:class:`AdmissionQueue`
    A bounded FIFO in front of the worker pool.  ``submit`` either
    enqueues or refuses *immediately* — the daemon's overload contract
    is 429 + ``Retry-After``, never an unbounded backlog or a partial
    result.  The suggested retry delay is an EWMA of recent service
    times scaled by the current backlog, so clients back off harder the
    deeper the queue is.

Metrics (process registry): ``service.queue_depth`` gauge,
``service.rejected`` counter.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.metrics import get_registry

#: Finished jobs kept for ``/v1/results`` replay before pruning.
RETAINED_JOBS = 512

STATUS_QUEUED = "queued"
STATUS_RUNNING = "running"
STATUS_DONE = "done"
STATUS_FAILED = "failed"
STATUS_ABORTED = "aborted"

#: Terminal states (the job's ``done`` event is set).
FINISHED = (STATUS_DONE, STATUS_FAILED, STATUS_ABORTED)


@dataclass
class Job:
    """One accepted analysis request."""

    job_id: str
    kind: str  # cold | warm | edit (cold/warm resolved at run time)
    session: str
    checkers: List[str]
    payload: Dict[str, Any] = field(default_factory=dict)
    # Trace context carried from the submitting client (the request
    # payload's "trace" object), else minted at accept time: the job's
    # ``service.job`` span joins this trace id and parents under the
    # client's span, so a daemon-side run slots into the same distributed
    # trace as the caller's.
    trace_id: str = ""
    parent_span_id: Optional[int] = None
    status: str = STATUS_QUEUED
    enqueued_at: float = 0.0
    started_at: float = 0.0
    finished_at: float = 0.0
    result: Optional[Dict[str, Any]] = None
    error: str = ""
    done: threading.Event = field(default_factory=threading.Event)

    @property
    def queue_seconds(self) -> float:
        if not self.started_at:
            return 0.0
        return max(0.0, self.started_at - self.enqueued_at)

    @property
    def run_seconds(self) -> float:
        if not (self.started_at and self.finished_at):
            return 0.0
        return max(0.0, self.finished_at - self.started_at)

    @property
    def service_seconds(self) -> float:
        """What the client experienced: queue wait plus run time."""
        if not self.finished_at:
            return 0.0
        return max(0.0, self.finished_at - self.enqueued_at)

    def as_dict(self) -> Dict[str, Any]:
        """The ``/v1/jobs/<id>`` document (no result payload)."""
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "session": self.session,
            "checkers": list(self.checkers),
            "trace_id": self.trace_id,
            "status": self.status,
            "enqueued_at": round(self.enqueued_at, 6),
            "queue_seconds": round(self.queue_seconds, 6),
            "run_seconds": round(self.run_seconds, 6),
            "service_seconds": round(self.service_seconds, 6),
            "error": self.error,
        }


class JobTable:
    """Thread-safe job registry with bounded retention of finished jobs."""

    def __init__(self, retained: int = RETAINED_JOBS, clock=time.monotonic) -> None:
        self.retained = retained
        self.clock = clock
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._ids = itertools.count(1)

    def create(self, kind: str, session: str, checkers, payload) -> Job:
        payload = dict(payload)
        # Adopt the client's trace context when the request carries one
        # (a {"trace": {"trace_id", "parent_span_id"}} payload object);
        # mint a fresh trace id otherwise so every job is traceable.
        trace_id = ""
        parent_span: Optional[int] = None
        context = payload.get("trace")
        if isinstance(context, dict):
            trace_id = str(context.get("trace_id", "") or "")
            raw_parent = context.get("parent_span_id")
            if isinstance(raw_parent, int) and not isinstance(raw_parent, bool):
                parent_span = raw_parent
        if not trace_id:
            trace_id = uuid.uuid4().hex[:16]
        with self._lock:
            job = Job(
                job_id=f"j{next(self._ids):06d}",
                kind=kind,
                session=session,
                checkers=list(checkers),
                payload=payload,
                trace_id=trace_id,
                parent_span_id=parent_span,
                enqueued_at=self.clock(),
            )
            self._jobs[job.job_id] = job
            self._prune_locked()
            return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def start(self, job: Job) -> None:
        with self._lock:
            job.status = STATUS_RUNNING
            job.started_at = self.clock()

    def finish(
        self,
        job: Job,
        status: str,
        result: Optional[Dict[str, Any]] = None,
        error: str = "",
    ) -> None:
        with self._lock:
            job.status = status
            job.finished_at = self.clock()
            job.result = result
            job.error = error
            if result is not None:
                # Attach timings before ``done`` fires: a handler blocked
                # in ``wait`` serializes the result the moment it wakes.
                result["timings"] = {
                    "queue_seconds": round(job.queue_seconds, 6),
                    "run_seconds": round(job.run_seconds, 6),
                    "service_seconds": round(job.service_seconds, 6),
                }
        job.done.set()

    def counts(self) -> Dict[str, int]:
        with self._lock:
            out: Dict[str, int] = {}
            for job in self._jobs.values():
                out[job.status] = out.get(job.status, 0) + 1
            return out

    def _prune_locked(self) -> None:
        finished = [
            job_id
            for job_id, job in self._jobs.items()
            if job.status in FINISHED
        ]
        excess = len(finished) - self.retained
        # Insertion order is creation order, so the oldest finished jobs
        # come first — prune those.
        for job_id in finished[:excess]:
            del self._jobs[job_id]


class AdmissionQueue:
    """Bounded job queue with an overload verdict at submit time."""

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError(f"queue maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._queue: "queue.Queue[Optional[Job]]" = queue.Queue(maxsize=maxsize)
        self._lock = threading.Lock()
        # EWMA of recent service times, seeding the Retry-After estimate.
        self._avg_service_seconds = 0.5

    # ------------------------------------------------------------------
    def submit(self, job: Job) -> bool:
        """Enqueue, or refuse immediately when the queue is full."""
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            get_registry().counter(
                "service.rejected",
                "Requests refused by admission control (HTTP 429)",
            ).inc(reason="queue-full")
            return False
        self._publish_depth()
        return True

    def pop(self, timeout: float = 0.5) -> Optional[Job]:
        """Next job for a worker (None on timeout or shutdown sentinel)."""
        try:
            job = self._queue.get(timeout=timeout)
        except queue.Empty:
            return None
        self._publish_depth()
        return job

    def push_sentinel(self) -> None:
        """Unblock one worker for shutdown (bypasses admission)."""
        self._queue.put(None)

    def depth(self) -> int:
        return self._queue.qsize()

    # ------------------------------------------------------------------
    def observe_service_seconds(self, seconds: float) -> None:
        with self._lock:
            self._avg_service_seconds = (
                0.8 * self._avg_service_seconds + 0.2 * max(seconds, 0.001)
            )

    def retry_after_seconds(self) -> int:
        """Suggested client backoff: expected time to drain the backlog,
        floored at one second (the HTTP header wants whole seconds)."""
        with self._lock:
            avg = self._avg_service_seconds
        estimate = avg * (self.depth() + 1)
        return max(1, int(estimate + 0.999))

    def _publish_depth(self) -> None:
        get_registry().gauge(
            "service.queue_depth", "Jobs waiting for a daemon worker"
        ).set(self.depth())
