"""Forked wave workers: the process side of ``prepare_program(jobs=N)``.

At a wave barrier with store misses, :func:`run_wave` forks up to
``jobs`` children, one share of the wave each.  A child inherits the
parsed program and every connector signature published so far, so
nothing is pickled *to* it.  It prepares its share with the scheduler's
own per-function code (the ``prepare`` callable) and pipes back one
pickled ``(outcome, seconds, registry, spans)`` frame per function: the
outcome, its compute time, and the fresh metrics registry and tracer
spans it ran under.  The parent reads every child's pipe concurrently,
merges each registry into its own and re-parents the ``sched.worker``
spans under the wave span.

``gc.freeze()`` brackets the forks: the inherited heap then sits in the
permanent generation, so a child's collections never walk (and, through
reference counts, copy) the pages it shares with the parent.

Crash rules:

- a Python exception while preparing is the ``prepare`` callable's to
  turn into an outcome, exactly as in a serial run;
- ``sched:<fn>`` and ``kill-worker:<wave>`` fault sites fire in the
  child before each function and kill it with ``os._exit``, a real
  process death;
- a child that dies, or that delivers no outcome for ``timeout``
  seconds, is SIGKILLed and reaped.  The function it was preparing gets
  one more attempt, alone in a fresh child; the rest of its share is
  re-run uncharged.  A function that fails on that second attempt too
  is reported as *crashed*, for the scheduler's ``sched`` quarantine.

Children never return into the parent's code: each ends in
``os._exit``, ignores Ctrl-C (the parent owns it), and exits when the
parent dies.  Whatever way :func:`run_wave` is left, every child it
forked has been killed or has exited, and has been reaped.
"""

from __future__ import annotations

import gc
import math
import os
import pickle
import selectors
import signal
import struct
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.obs.trace import Tracer, get_tracer, set_tracer, trace
from repro.robust.faults import active_plan
from repro.robust.retry import count_retry

_log = get_logger("sched.worker")

#: How often a child checks that the process that forked it is alive.
_PARENT_POLL_SECONDS = 0.5

#: Frame header: the byte length of the pickled outcome that follows.
_FRAME = struct.Struct("<Q")

#: ``(name, FuncDef AST, usable callee signatures)``.
Task = Tuple[str, Any, Dict[str, Any]]


@dataclass
class _Child:
    """One forked worker and the share of the wave it prepares."""

    pid: int
    fd: int
    share: List[Task]
    deadline: float
    done: int = 0  # outcomes received, in share order
    buffer: bytearray = field(default_factory=bytearray)


def run_wave(
    tasks: List[Task],
    prepare: Callable[[str, Any, Dict[str, Any]], Any],
    *,
    jobs: int,
    timeout: float,
    wave_index: int,
    wave_span: Optional[int],
) -> Tuple[Dict[str, Tuple[Any, float]], Dict[str, str]]:
    """Prepare one wave's ``tasks`` in up to ``jobs`` forked children.

    Returns ``(finished, crashed)``: ``finished[name]`` is the
    ``(outcome, seconds)`` that ``prepare(name, func_ast, usable)``
    returned in a child, ``crashed[name]`` the reason a function's
    worker died or timed out on it twice.  ``timeout`` (seconds, 0 for
    none) bounds each function; ``wave_span`` is the uid of the wave's
    span, which worker spans re-parent under."""
    registry = get_registry()
    registry.counter(
        "sched.tasks", "Function tasks prepared by forked workers"
    ).inc(len(tasks))
    tracer = get_tracer()
    trace_id = tracer.trace_id if tracer.enabled else ""
    limit = timeout if timeout and timeout > 0 else None
    parent_pid = os.getpid()

    def deadline() -> float:
        return time.monotonic() + limit if limit is not None else math.inf

    finished: Dict[str, Tuple[Any, float]] = {}
    crashed: Dict[str, str] = {}
    attempts: Dict[str, int] = {}
    queue = [tasks[start::jobs] for start in range(min(jobs, len(tasks)))]
    running: Dict[int, _Child] = {}
    selector = selectors.DefaultSelector()
    result_bytes = 0
    decode_seconds = 0.0

    def fail(child: _Child, kind: str) -> None:
        """Charge the function ``child`` was preparing; requeue the rest."""
        task = child.share[child.done]
        name = task[0]
        rest = child.share[child.done + 1:]
        if rest:
            queue.append(rest)
        attempts[name] = attempts.get(name, 0) + 1
        if attempts[name] < 2:
            count_retry("sched", kind)
            queue.append([task])
        elif kind == "timeout":
            crashed[name] = f"worker timed out after {limit}s preparing {name!r}"
        else:
            crashed[name] = f"worker process died preparing {name!r}"

    def fork(share: List[Task]) -> None:
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            # A sibling's pipe must reach end-of-file when that sibling
            # exits, so no other child may hold its ends.
            os.close(read_fd)
            for fd in running:
                os.close(fd)
            _child_main(
                share, prepare, wave_index, write_fd, parent_pid, trace_id, tracer
            )
        os.close(write_fd)
        running[read_fd] = child = _Child(pid, read_fd, share, deadline())
        selector.register(read_fd, selectors.EVENT_READ, child)

    def reap(child: _Child, kill: bool) -> None:
        selector.unregister(child.fd)
        os.close(child.fd)
        del running[child.fd]
        if kill:
            os.kill(child.pid, signal.SIGKILL)
        os.waitpid(child.pid, 0)

    try:
        while queue or running:
            if queue and len(running) < jobs:
                starting = queue[: jobs - len(running)]
                del queue[: len(starting)]
                gc.freeze()
                try:
                    for share in starting:
                        fork(share)
                finally:
                    gc.unfreeze()

            soonest = min(c.deadline for c in running.values())
            wait = (
                None if soonest == math.inf else max(0.0, soonest - time.monotonic())
            )
            for key, _ in selector.select(wait):
                child = key.data
                data = os.read(child.fd, 1 << 16)
                if not data:
                    reap(child, kill=False)
                    if child.done < len(child.share):
                        registry.counter(
                            "sched.worker_crashes",
                            "Worker processes that died mid-task",
                        ).inc()
                        _log.warning(
                            "worker died",
                            function=child.share[child.done][0],
                            wave=wave_index,
                        )
                        fail(child, "crash")
                    continue
                child.buffer += data
                for blob in _frames(child.buffer):
                    started = time.perf_counter()
                    outcome, seconds, worker_registry, spans = pickle.loads(blob)
                    decode_seconds += time.perf_counter() - started
                    result_bytes += len(blob)
                    registry.merge(worker_registry)
                    if tracer.enabled and spans:
                        tracer.absorb(spans, parent=wave_span)
                    finished[child.share[child.done][0]] = (outcome, seconds)
                    child.done += 1
                    # A child with nothing left to prepare is only exiting.
                    child.deadline = (
                        deadline() if child.done < len(child.share) else math.inf
                    )

            now = time.monotonic()
            for child in [c for c in running.values() if c.deadline <= now]:
                reap(child, kill=True)
                registry.counter(
                    "sched.worker_timeouts",
                    "Workers killed after running past --worker-timeout",
                ).inc()
                fail(child, "timeout")
    finally:
        for child in list(running.values()):
            reap(child, kill=True)
        selector.close()
        registry.counter(
            "sched.dispatch.result_bytes", "Outcome bytes shipped back from workers"
        ).inc(result_bytes)
        registry.counter(
            "sched.dispatch.decode_seconds", "Parent-side outcome unpickling"
        ).inc(decode_seconds)
    return finished, crashed


def _frames(buffer: bytearray):
    """Pop every complete frame off the front of ``buffer``."""
    while len(buffer) >= _FRAME.size:
        (size,) = _FRAME.unpack_from(buffer)
        end = _FRAME.size + size
        if len(buffer) < end:
            return
        blob = bytes(buffer[_FRAME.size:end])
        del buffer[:end]
        yield blob


def _child_main(
    share: List[Task],
    prepare,
    wave_index: int,
    write_fd: int,
    parent_pid: int,
    trace_id: str,
    parent_tracer: Tracer,
) -> None:
    """Prepare ``share`` and write one frame per function; never returns."""
    code = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        threading.Thread(
            target=_exit_with_parent,
            args=(parent_pid,),
            name="repro-parent-watch",
            daemon=True,
        ).start()
        plan = active_plan()
        with open(write_fd, "wb") as out:
            for name, func_ast, usable in share:
                # Simulated hard crash: die the way a segfaulting worker
                # would, without unwinding.
                if plan is not None and (
                    plan.should_fire("sched", name)
                    or plan.should_fire("kill-worker", str(wave_index))
                ):
                    os._exit(3)
                registry = set_registry(MetricsRegistry())
                tracer = set_tracer(
                    Tracer(
                        clock=parent_tracer.clock,
                        enabled=parent_tracer.enabled,
                        trace_id=trace_id,
                    )
                )
                started = time.perf_counter()
                with trace(
                    "sched.worker", unit=name, pid=os.getpid(), trace_id=trace_id
                ):
                    outcome = prepare(name, func_ast, usable)
                blob = pickle.dumps(
                    (outcome, time.perf_counter() - started, registry, tracer.spans),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
                out.write(_FRAME.pack(len(blob)))
                out.write(blob)
                out.flush()
        code = 0
    except BaseException:
        # The parent reports the function this child was preparing.
        traceback.print_exc()
    finally:
        os._exit(code)


def _exit_with_parent(parent_pid: int) -> None:
    """Exit once the parent is gone.

    A SIGKILLed parent cannot kill its children.  An orphan is
    re-parented, so ``getppid`` tells.  ``PR_SET_PDEATHSIG`` cannot
    replace this poll: it fires when the *thread* that forked the child
    exits, not the process."""
    while os.getppid() == parent_pid:
        time.sleep(_PARENT_POLL_SECONDS)
    os._exit(1)
