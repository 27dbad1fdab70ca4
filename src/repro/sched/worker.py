"""Worker-process side of the parallel scheduler.

Each task prepares exactly one function (stage 1-3: connector
transformation, intraprocedural points-to, SEG build) from a pickled
``(name, FuncDef AST, usable callee signatures, wave index, pta tier,
trace context)`` payload — the trace context is a ``(trace_id,
parent_span_id, dispatched_at)`` triple naming the wave span that
submitted the task — and ships back a pickled outcome tuple:

- ``("ok", name, PreparedFunction, SEG | None, seg_error, registry,
  spans, timings)`` — the function prepared; ``seg_error`` is set (and
  the SEG ``None``) when SEG construction failed, in which case the
  parent rebuilds it under its own quarantine so serial semantics hold;
- ``("error", name, exc_type, message, line, registry, spans,
  timings)`` — the preparation itself raised; the parent converts this
  into the same ``prepare`` quarantine diagnostic a serial run records.

``timings`` attributes the dispatch overhead the parent cannot see:
``queue_seconds`` (submission to pickup, measured against
``dispatched_at`` — valid under ``fork``, where parent and child share
the ``perf_counter`` origin), ``deserialize_seconds`` (payload
unpickling), ``warmup_seconds`` (first-task import cost in this worker
process), and ``task_seconds`` (the actual compute).  The same values
land as ``sched.dispatch.*`` counters in the returned registry so the
parent's plain ``merge`` aggregates them across workers.

Python exceptions therefore *never* cross the process boundary as
exceptions — only process death (segfault, ``os._exit``, OOM-kill) is
left for the parent's broken-pool protocol to detect.

Each task runs under a fresh metrics registry and tracer; both are
returned in the outcome so the parent can merge worker-side counters
(``pta.*``, ``seg.*``) and spans (``prepare.fn``, ``seg.build``) into
the run's own registry — the per-process globals of ``repro.obs`` are
never shared between processes.

The ``sched`` fault site (``--fault sched:<fn>`` / ``REPRO_FAULTS``)
kills the worker process outright via ``os._exit`` — deliberately not a
Python exception — so tests and CI can prove the parent's crash
quarantine path fires on real process death.  ``kill-worker:<wave>``
does the same keyed by the call-graph wave index the payload carries,
so crash tests can take down every worker of one specific wave and
prove a rerun over the same artifact store recomputes only what was
lost.
"""

from __future__ import annotations

import os
import pickle
import time
from typing import Any, Dict, Tuple

from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.trace import Tracer, set_tracer, trace
from repro.robust.faults import active_plan, fault_point, install_faults
from repro.robust.quarantine import FATAL
from repro.smt.linear_solver import LinearSolver

#: Worker-process tracing switch, set by :func:`init_worker`.
_TRACE_ENABLED = False

#: Set once the heavy pipeline imports have been paid in this process;
#: the first task reports that cost as ``warmup_seconds``.
_WARMED = False


def init_worker(fault_spec: str, trace_enabled: bool) -> None:
    """Pool initializer: arm fault injection and tracing in this worker.

    With the ``fork`` start method the worker inherits the parent's
    globals anyway; with ``spawn`` (macOS/Windows default) this is what
    re-installs them."""
    global _TRACE_ENABLED
    _TRACE_ENABLED = bool(trace_enabled)
    if fault_spec:
        install_faults(fault_spec)


def prepare_task(payload: bytes) -> bytes:
    """Prepare one function; see the module docstring for the protocol."""
    global _WARMED

    picked_up = time.perf_counter()
    warmup_seconds = 0.0
    if not _WARMED:
        warm_start = time.perf_counter()
        from repro.core import pipeline as _pipeline  # noqa: F401
        from repro.seg import builder as _builder  # noqa: F401

        warmup_seconds = time.perf_counter() - warm_start
        _WARMED = True
    from repro.core.pipeline import prepare_function
    from repro.seg.builder import build_seg

    deser_start = time.perf_counter()
    task = pickle.loads(payload)
    deserialize_seconds = time.perf_counter() - deser_start
    name, func_ast, usable, wave_index, pta_tier, ctx = task
    trace_id, parent_span_id, dispatched_at = ctx
    queue_seconds = 0.0
    if dispatched_at:
        # Only meaningful when parent and worker share a clock origin
        # (``fork``); under ``spawn`` the delta can go negative — drop it.
        queue_seconds = max(0.0, picked_up - dispatched_at)

    # Simulated hard crash: die like a segfaulting worker would, without
    # unwinding — the parent must survive via the broken-pool protocol.
    # ``sched`` is keyed by function name, ``kill-worker`` by wave index.
    plan = active_plan()
    if plan is not None and (
        plan.should_fire("sched", name)
        or plan.should_fire("kill-worker", str(wave_index))
    ):
        os._exit(3)

    registry = set_registry(MetricsRegistry())
    set_tracer(Tracer(enabled=_TRACE_ENABLED, trace_id=trace_id))
    outcome: Tuple[Any, ...]
    task_start = time.perf_counter()
    try:
        with trace(
            "sched.worker",
            unit=name,
            pid=os.getpid(),
            trace_id=trace_id,
            parent_span=parent_span_id,
        ) as span:
            fault_point("prepare", name)
            with trace("prepare.fn", unit=name):
                prepared = prepare_function(
                    func_ast, usable, LinearSolver(), pta_tier=pta_tier
                )
            seg = None
            seg_error = ""
            try:
                seg = build_seg(prepared)
            except FATAL:
                raise
            except Exception as error:
                seg_error = f"{type(error).__name__}: {error}"
            span.set(queue_seconds=round(queue_seconds, 6))
        timings = _timings(
            registry,
            task_seconds=time.perf_counter() - task_start,
            queue_seconds=queue_seconds,
            warmup_seconds=warmup_seconds,
            deserialize_seconds=deserialize_seconds,
        )
        outcome = ("ok", name, prepared, seg, seg_error, registry, _spans(), timings)
    except FATAL:
        raise
    except Exception as error:
        timings = _timings(
            registry,
            task_seconds=time.perf_counter() - task_start,
            queue_seconds=queue_seconds,
            warmup_seconds=warmup_seconds,
            deserialize_seconds=deserialize_seconds,
        )
        outcome = (
            "error",
            name,
            type(error).__name__,
            str(error),
            getattr(error, "line", 0) or 0,
            registry,
            _spans(),
            timings,
        )
    try:
        return pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as error:  # unpicklable artifact: degrade to error
        fallback = (
            "error",
            name,
            type(error).__name__,
            f"result not picklable: {error}",
            0,
            MetricsRegistry(),
            [],
            dict(timings),
        )
        return pickle.dumps(fallback, protocol=pickle.HIGHEST_PROTOCOL)


def _timings(
    registry: MetricsRegistry,
    *,
    task_seconds: float,
    queue_seconds: float,
    warmup_seconds: float,
    deserialize_seconds: float,
) -> Dict[str, float]:
    """Assemble the per-task timing dict and mirror it into counters.

    The counters ride the registry the parent already merges, so the
    run-wide ``sched.dispatch.*`` totals aggregate across workers with
    no extra protocol.
    """
    timings = {
        "task_seconds": task_seconds,
        "queue_seconds": queue_seconds,
        "warmup_seconds": warmup_seconds,
        "deserialize_seconds": deserialize_seconds,
    }
    registry.counter(
        "sched.dispatch.queue_seconds", "Task wait between submission and pickup"
    ).inc(queue_seconds)
    registry.counter(
        "sched.dispatch.warmup_seconds", "First-task import cost per worker process"
    ).inc(warmup_seconds)
    registry.counter(
        "sched.dispatch.deserialize_seconds", "Worker-side payload unpickling"
    ).inc(deserialize_seconds)
    return timings


def _spans():
    from repro.obs.trace import get_tracer

    tracer = get_tracer()
    return list(tracer.spans) if tracer.enabled else []
