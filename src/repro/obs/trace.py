"""Hierarchical span tracing with Chrome ``trace_event`` export.

A *span* is one timed region of the pipeline — ``parse``, ``seg.build``
for one function, one SMT query.  Spans nest: a per-thread stack links
each span to its parent, so the profiler can compute self-time and the
Chrome trace viewer (``chrome://tracing`` / Perfetto) renders the flame
graph directly.

Usage::

    from repro.obs import trace

    with trace("seg.build", unit=function.name):
        ...                       # timed region

    with trace("smt.check") as span:
        answer = solve(term)
        span.set(result=answer.value)   # attach attributes at exit

    @traced("pipeline.prepare")
    def prepare(...): ...               # decorator form

Overhead discipline: tracing is **disabled by default**.  When disabled,
``trace(...)`` returns a shared no-op handle — the cost is one attribute
load and one truth test, so instrumented hot paths stay hot.  The
collector is thread-safe (one lock around id allocation and the append;
the clock is read outside the lock).
"""

from __future__ import annotations

import functools
import json
import threading
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.clock import DEFAULT_CLOCK, Clock


@dataclass
class Span:
    """One completed timed region."""

    uid: int  # allocated at span entry; parents have smaller uids
    name: str  # dotted pass name, e.g. "seg.build"
    start: float  # seconds, tracer-clock origin
    duration: float
    unit: str = ""  # function/checker the span is about, if any
    thread_id: int = 0
    parent: Optional[int] = None  # uid of the enclosing span, same thread
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.start + self.duration


class _NullSpan:
    """Shared no-op handle returned while tracing is disabled."""

    __slots__ = ()

    uid: Optional[int] = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **args) -> None:
        pass


NULL_SPAN = _NullSpan()


class _SpanHandle:
    """Context manager recording one span into a tracer."""

    __slots__ = ("_tracer", "name", "unit", "args", "_start", "_parent", "_uid")

    def __init__(self, tracer: "Tracer", name: str, unit: str, args: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.unit = unit
        self.args = args

    def set(self, **args) -> None:
        """Attach attributes to the span (visible in export/profile)."""
        self.args.update(args)

    @property
    def uid(self) -> Optional[int]:
        """This span's uid, once entered (``None`` before ``__enter__``).

        Exposed so dispatch code can hand the uid across a process
        boundary as the ``parent_span_id`` of a trace context.
        """
        return getattr(self, "_uid", None)

    def __enter__(self) -> "_SpanHandle":
        tracer = self._tracer
        stack = tracer._stack()
        self._parent = stack[-1] if stack else None
        self._uid = tracer._next_uid()
        stack.append(self._uid)
        self._start = tracer.clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = self._tracer.clock()
        if exc_type is not None:
            self.args.setdefault("error", exc_type.__name__)
        stack = self._tracer._stack()
        if stack and stack[-1] == self._uid:
            stack.pop()
        self._tracer._record(
            Span(
                uid=self._uid,
                name=self.name,
                start=self._start,
                duration=end - self._start,
                unit=self.unit,
                thread_id=threading.get_ident(),
                parent=self._parent,
                args=self.args,
            )
        )
        return False


class Tracer:
    """Thread-safe in-process span collector.

    Spans land in :attr:`spans` in *completion* order (inner spans close
    before the pass that contains them); sort by ``start`` or follow
    ``parent`` uids to recover the hierarchy.
    """

    def __init__(
        self,
        clock: Clock = DEFAULT_CLOCK,
        enabled: bool = False,
        trace_id: str = "",
    ) -> None:
        self.clock = clock
        self.enabled = enabled
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._uid = 0
        self._trace_id = trace_id

    @property
    def trace_id(self) -> str:
        """Stable id naming this run's trace, allocated on first use.

        Propagated to daemon jobs so all spans of one request share a
        single trace identity.
        """
        if not self._trace_id:
            self._trace_id = uuid.uuid4().hex[:16]
        return self._trace_id

    # ------------------------------------------------------------------
    def span(self, name: str, unit: str = "", **args):
        """Start a span (context manager); no-op while disabled."""
        if not self.enabled:
            return NULL_SPAN
        return _SpanHandle(self, name, unit, args)

    def clear(self) -> None:
        with self._lock:
            self.spans = []

    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _next_uid(self) -> int:
        with self._lock:
            self._uid += 1
            return self._uid

    def _record(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    # ------------------------------------------------------------------
    def to_chrome_trace(self, process_name: str = "repro") -> Dict[str, Any]:
        """Render collected spans as a Chrome ``trace_event`` object.

        Complete ("X") events with microsecond timestamps, one row per
        thread, loadable in ``chrome://tracing`` and Perfetto.
        """
        events: List[Dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "tid": 0,
                "args": {"name": process_name},
            }
        ]
        with self._lock:
            spans = sorted(self.spans, key=lambda s: (s.start, s.uid))
        for span in spans:
            args: Dict[str, Any] = dict(span.args)
            if span.unit:
                args["unit"] = span.unit
            events.append(
                {
                    "name": span.name,
                    "cat": span.name.split(".", 1)[0],
                    "ph": "X",
                    "ts": round(span.start * 1e6, 3),
                    "dur": round(span.duration * 1e6, 3),
                    "pid": 1,
                    "tid": span.thread_id,
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def to_chrome_json(self, process_name: str = "repro", indent: int = 2) -> str:
        return json.dumps(self.to_chrome_trace(process_name), indent=indent)

    def write_chrome_trace(self, path: str, process_name: str = "repro") -> None:
        """Atomic export (temp file + rename, parent dirs created), so a
        viewer reloading the path never sees a half-written JSON."""
        from repro.obs.export import atomic_write

        atomic_write(path, self.to_chrome_json(process_name))

    def summary(self) -> Dict[str, Any]:
        """Small machine-readable digest (for JSON/SARIF payloads)."""
        with self._lock:
            spans = list(self.spans)
        by_name: Dict[str, Dict[str, float]] = {}
        for span in spans:
            entry = by_name.setdefault(span.name, {"count": 0, "seconds": 0.0})
            entry["count"] += 1
            entry["seconds"] += span.duration
        return {
            "spans": len(spans),
            "passes": {
                name: {"count": int(entry["count"]), "seconds": round(entry["seconds"], 6)}
                for name, entry in sorted(by_name.items())
            },
        }


# ----------------------------------------------------------------------
# Global tracer
# ----------------------------------------------------------------------
_TRACER = Tracer()


def get_tracer() -> Tracer:
    return _TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the process-global tracer (tests; CLI with injected clock)."""
    global _TRACER
    _TRACER = tracer
    return tracer


def enable_tracing(enabled: bool = True) -> Tracer:
    _TRACER.enabled = enabled
    return _TRACER


def trace(name: str, unit: str = "", **args):
    """Start a span on the global tracer; shared no-op when disabled."""
    tracer = _TRACER
    if not tracer.enabled:
        return NULL_SPAN
    return _SpanHandle(tracer, name, unit, args)


def traced(name: str, unit: str = ""):
    """Decorator form of :func:`trace`.

    Enablement is checked per call, so decorating a function costs
    nothing until tracing is switched on.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*fargs, **fkwargs):
            with trace(name, unit=unit):
                return fn(*fargs, **fkwargs)

        return wrapper

    return decorate
