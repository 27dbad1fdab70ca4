"""Crash-contained process pool for the wave scheduler.

``ProcessPoolExecutor`` (not ``multiprocessing.Pool``): when a worker
process dies — segfault, OOM-kill, an injected ``sched``/``kill-worker``
fault calling ``os._exit`` — the executor breaks *promptly* with
``BrokenProcessPool`` instead of hanging on a lost result.

Failure handling runs on the unified supervision policy of
:mod:`repro.robust.retry` (capped exponential backoff, deterministic
jitter, per-function budgets) instead of the ad-hoc immediate
rebuild-and-resubmit this module used to hard-code.  The escalation
ladder per task:

1. **retry** — the task goes back into a (rebuilt) shared pool after a
   deterministic backoff; a task that merely shared a broken pool with
   a killer, or hit a transient stall, succeeds here;
2. **isolate** — the task runs in a fresh **single-worker** executor,
   so a deterministic killer takes down only its own pool;
3. **quarantine** — the task is reported as a :class:`WorkerCrash` for
   the scheduler's ``sched``-stage quarantine.

When the pool breaks, only the task whose future raised is charged a
failure; tasks that were merely queued behind it are resubmitted
uncharged, so an innocent can never exhaust its budget on someone
else's crashes.  A per-task ``timeout`` (seconds) walks the same
ladder; the pool is rebuilt first because the hung process still
occupies a slot.  The abandoned worker keeps running until it finishes
or the parent exits — Python offers no portable way to kill a pool
worker mid-task — so timeouts trade a leaked process for forward
progress.

Every retry and isolation shows up in the ``sched.retries`` counter
(labelled ``site=pool``, ``kind=crash|timeout``) alongside the existing
``sched.pool_rebuilds`` / ``sched.worker_crashes`` /
``sched.worker_timeouts`` counters, so supervised recovery is visible
in ``--stats`` and Prometheus output.

Results travel as opaque ``bytes`` (the worker pickles its own outcome)
so a result the pool cannot unpickle can never poison the parent; the
scheduler decodes them.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Tuple

from repro.obs.log import get_logger
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.robust.faults import active_plan
from repro.robust.retry import (
    ACTION_ISOLATE,
    ACTION_RETRY,
    RetryPolicy,
    RetrySupervisor,
)
from repro.sched import worker as _worker

_log = get_logger("sched.pool")

#: Executor exceptions that mean "the pool itself is dead".
_POOL_DEAD = (BrokenProcessPool, concurrent.futures.BrokenExecutor, OSError)


class WorkerCrash:
    """Marker result: the worker process died or timed out on this task."""

    __slots__ = ("detail", "timed_out")

    def __init__(self, detail: str, timed_out: bool = False) -> None:
        self.detail = detail
        self.timed_out = timed_out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WorkerCrash({self.detail!r})"


class WorkerPool:
    """A pool of worker processes running one task function.

    ``run_wave`` takes ``(name, payload)`` pairs and returns a dict
    mapping each name to either the task's ``bytes`` result or a
    :class:`WorkerCrash`.  It never raises for worker-side failures.
    """

    def __init__(
        self,
        jobs: int,
        task_fn=None,
        timeout: Optional[float] = None,
        policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.jobs = max(1, int(jobs))
        self.task_fn = task_fn or _worker.prepare_task
        self.timeout = timeout if timeout and timeout > 0 else None
        self.policy = policy or RetryPolicy()
        self._executor: Optional[concurrent.futures.ProcessPoolExecutor] = None

    # ------------------------------------------------------------------
    def _initargs(self) -> Tuple[str, bool, int]:
        plan = active_plan()
        spec = plan.spec if plan is not None else ""
        return (spec, get_tracer().enabled, os.getpid())

    def _make_executor(self, workers: int):
        # fork where available: workers inherit the parsed program and
        # installed fault plan for free.  The initializer re-installs
        # both trace enablement and faults so spawn platforms work too.
        method = (
            "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        )
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context(method),
            initializer=_worker.init_worker,
            initargs=self._initargs(),
        )

    def _ensure(self):
        if self._executor is None:
            self._executor = self._make_executor(self.jobs)
        return self._executor

    def _discard(self) -> None:
        executor = self._executor
        self._executor = None
        if executor is not None:
            get_registry().counter(
                "sched.pool_rebuilds", "Worker pools abandoned after crash/timeout"
            ).inc()
            try:
                executor.shutdown(wait=False, cancel_futures=True)
            except Exception:  # pragma: no cover - shutdown races
                pass

    def close(self) -> None:
        executor = self._executor
        self._executor = None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    def run_wave(self, tasks: List[Tuple[str, bytes]]) -> Dict[str, object]:
        """Run one wave; every task yields ``bytes`` or a WorkerCrash."""
        results: Dict[str, object] = {}
        queue = list(tasks)
        supervisor = RetrySupervisor(self.policy, site="pool")
        while queue:
            executor = self._ensure()
            try:
                batch = [
                    (name, payload, executor.submit(self.task_fn, payload))
                    for name, payload in queue
                ]
            except _POOL_DEAD:
                # Broken before we could even submit: charge every
                # queued task one failure and walk each up the ladder.
                self._discard()
                requeue: List[Tuple[str, bytes]] = []
                for name, payload in queue:
                    self._escalate(name, payload, "crash", supervisor,
                                   results, requeue)
                queue = requeue
                continue
            queue = []
            broken = False
            for index, (name, payload, future) in enumerate(batch):
                if broken:
                    # The pool died under an earlier task of this batch;
                    # everyone queued behind it is resubmitted uncharged.
                    queue.append((name, payload))
                    continue
                try:
                    results[name] = future.result(self.timeout)
                except concurrent.futures.TimeoutError:
                    # The hung worker still holds a slot; rebuild the
                    # pool before the ladder decides this task's fate.
                    get_registry().counter(
                        "sched.worker_timeouts",
                        "Worker tasks abandoned after timeout",
                    ).inc()
                    self._discard()
                    self._escalate(name, payload, "timeout", supervisor,
                                   results, queue)
                    queue.extend((n, p) for n, p, _ in batch[index + 1:])
                    break
                except _POOL_DEAD:
                    # Only the task whose future raised is charged — any
                    # worker's death breaks the whole pool, but walking
                    # the suspect up the ladder converges on the killer
                    # while innocents succeed on their uncharged resubmit
                    # or their own isolated attempt.
                    _log.warning("worker pool broke", task=name)
                    self._discard()
                    broken = True
                    self._escalate(name, payload, "crash", supervisor,
                                   results, queue)
        return results

    def _escalate(
        self,
        name: str,
        payload: bytes,
        kind: str,
        supervisor: RetrySupervisor,
        results: Dict[str, object],
        requeue: List[Tuple[str, bytes]],
    ) -> None:
        """Walk one failed task up the retry → isolate → quarantine
        ladder (the supervisor sleeps the backoff before returning)."""
        action = supervisor.record_failure(name, kind)
        if action == ACTION_RETRY:
            requeue.append((name, payload))
        elif action == ACTION_ISOLATE:
            results[name] = self._run_isolated(name, payload)
        else:
            results[name] = self._crash(name, kind)

    def _run_isolated(self, name: str, payload: bytes) -> object:
        executor = self._make_executor(1)
        try:
            return executor.submit(self.task_fn, payload).result(self.timeout)
        except concurrent.futures.TimeoutError:
            get_registry().counter(
                "sched.worker_timeouts", "Worker tasks abandoned after timeout"
            ).inc()
            return self._crash(name, "timeout")
        except _POOL_DEAD:
            return self._crash(name, "crash")
        finally:
            try:
                executor.shutdown(wait=False, cancel_futures=True)
            except Exception:  # pragma: no cover - shutdown races
                pass

    def _crash(self, name: str, kind: str) -> WorkerCrash:
        if kind == "timeout":
            return WorkerCrash(
                f"worker timed out after {self.timeout}s preparing {name!r}",
                timed_out=True,
            )
        get_registry().counter(
            "sched.worker_crashes", "Worker processes that died mid-task"
        ).inc()
        return WorkerCrash(f"worker process died preparing {name!r}")
