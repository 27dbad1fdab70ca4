"""Layer spans for the traced benchmark run, recorded from outside repro.

:func:`install` wraps the public entry points of each repro layer (the
table below) so that every call records a span: layer name, start, end
and parent span.  Each layer's *self time* is its spans' duration minus
the time their direct child spans cover, so the self times of one
process never add up to more than the wall time they were measured in.

Very hot leaves (the DD/PC/CD condition builders, ``clone_term`` and the
linear filter) are aggregated into a call count and a self time without
keeping one span per call.

Worker processes of the wave scheduler are forked from the rep process
and inherit the wrappers.  A worker cannot hand spans back, so after
each outermost call it folds its self times into the task's metrics
registry, which the scheduler already merges into the parent's; see
:meth:`LayerTracer.worker_totals`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

#: (layer, module, attribute, hot).  ``attribute`` may be ``Class.method``.
LAYER_TARGETS: Tuple[Tuple[str, str, str, bool], ...] = (
    ("lang.parse", "repro.lang.parser", "parse_program", False),
    ("lang.parse", "repro.lang.parser", "parse_program_tolerant", False),
    ("ir.lower", "repro.ir.lower", "lower_program", False),
    ("ir.lower", "repro.ir.lower", "lower_function", False),
    ("ir.ssa", "repro.ir.ssa", "to_ssa", False),
    ("ir.gating", "repro.ir.gating", "GateInfo.__init__", False),
    ("ir.controldep", "repro.ir.controldep", "control_dependence", False),
    ("ir.dominance", "repro.ir.dominance", "dominators", False),
    ("ir.dominance", "repro.ir.dominance", "post_dominators", False),
    ("ir.callgraph", "repro.ir.callgraph", "CallGraph.__init__", False),
    ("ir.callgraph", "repro.ir.callgraph", "CallGraph.sccs", False),
    ("ir.callgraph", "repro.ir.callgraph", "CallGraph.bottom_up_order", False),
    ("transform.modref", "repro.transform.modref", "compute_modref", False),
    ("transform.connectors", "repro.transform.connectors", "transform_call_sites", False),
    (
        "transform.connectors",
        "repro.transform.connectors",
        "transform_function_interface",
        False,
    ),
    ("pta.local", "repro.pta.intraproc", "PointsToAnalysis.run", False),
    ("pipeline.prepare", "repro.core.pipeline", "prepare_module", False),
    ("pipeline.prepare", "repro.sched.scheduler", "prepare_program", False),
    (
        "pipeline.prepare",
        "repro.core.incremental",
        "IncrementalAnalyzer.analyze_program",
        False,
    ),
    ("seg.build", "repro.seg.builder", "build_seg", False),
    ("seg.cond_dd", "repro.seg.conditions", "ConditionBuilder.dd", True),
    ("seg.cond_pc", "repro.seg.conditions", "ConditionBuilder.pc", True),
    ("seg.cond_cd", "repro.seg.conditions", "ConditionBuilder.cd", True),
    ("core.engine_init", "repro.core.engine", "Pinpoint.__init__", False),
    ("core.check", "repro.core.engine", "Pinpoint.check", False),
    ("core.search", "repro.core.engine", "_CheckerRun._search", False),
    ("core.clone", "repro.core.context", "clone_term", True),
    ("smt.solve", "repro.smt.solver", "SMTSolver.check", False),
    ("smt.linear", "repro.smt.linear_solver", "LinearSolver.is_obviously_unsat", True),
)

#: Spans the benchmark itself opens around each operation.  They parent
#: the layer spans in the trace but are not a layer: their self time is
#: what no layer span covers.
BENCH_PREFIX = "rep."

_WORKER_SELF = "perfbench.layer_self_seconds"
_WORKER_CALLS = "perfbench.layer_calls"


class LayerTracer:
    """Span recorder and per-layer self-time accumulator for one process."""

    def __init__(self, trace_id: str, keep_spans: bool) -> None:
        self.trace_id = trace_id
        self.keep_spans = keep_spans
        self.pid = os.getpid()
        self.in_worker = False
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        # Open spans, innermost last: [layer, start, child seconds, span id].
        self._stack: List[list] = []
        # Closed spans: (layer, start, end, parent id); hot leaves skip this.
        self.spans: List[Optional[Tuple[str, float, float, int]]] = []
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        # A worker starts from a copy of the parent's open stack and
        # totals; it must report only its own calls.
        self.in_worker = True
        self.keep_spans = False
        self._stack = []
        self.spans = []
        self.self_s.clear()
        self.calls.clear()

    # ------------------------------------------------------------------
    def _open(self, layer: str, hot: bool) -> list:
        span_id = -1
        if self.keep_spans and not hot:
            span_id = len(self.spans)
            self.spans.append(None)
        frame = [layer, time.perf_counter(), 0.0, span_id]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        layer, start, children, span_id = frame
        duration = end - start
        self.self_s[layer] += duration - children
        self.calls[layer] += 1
        if stack:
            stack[-1][2] += duration
        elif self.in_worker:
            self._flush_worker()
        if span_id >= 0:
            parent = next((f[3] for f in reversed(stack) if f[3] >= 0), -1)
            self.spans[span_id] = (layer, start, end, parent)

    def wrap(self, layer: str, fn, hot: bool):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._open(layer, hot)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame)

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """A benchmark-level span (``rep.*``) around one operation."""
        frame = self._open(name, False)
        try:
            yield
        finally:
            self._close(frame)

    # ------------------------------------------------------------------
    def _flush_worker(self) -> None:
        """Move this worker's totals into the task's metrics registry,
        which the scheduler merges into the parent's on return."""
        from repro.obs.metrics import get_registry

        registry = get_registry()
        seconds = registry.counter(_WORKER_SELF, "Benchmark layer self time in workers")
        calls = registry.counter(_WORKER_CALLS, "Benchmark layer calls in workers")
        for layer, value in self.self_s.items():
            seconds.inc(max(0.0, value), layer=layer)
        for layer, count in self.calls.items():
            calls.inc(count, layer=layer)
        self.self_s.clear()
        self.calls.clear()

    def worker_totals(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Self seconds and calls that scheduler workers reported back."""
        from repro.obs.metrics import get_registry

        registry = get_registry()
        seconds: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        for name, target, cast in (
            (_WORKER_SELF, seconds, float),
            (_WORKER_CALLS, calls, int),
        ):
            metric = registry.get(name)
            if metric is not None:
                for labels, value in metric.items():
                    target[labels["layer"]] = cast(value)
        return seconds, calls

    def layer_self_s(self) -> Dict[str, float]:
        """This process's self seconds per layer (benchmark spans excluded)."""
        return {
            layer: value
            for layer, value in self.self_s.items()
            if not layer.startswith(BENCH_PREFIX)
        }

    # ------------------------------------------------------------------
    def chrome_events(self, min_seconds: float = 0.0) -> List[dict]:
        """Closed spans lasting at least ``min_seconds``, as Chrome trace
        'complete' events in microseconds from the first span."""
        closed = [s for s in self.spans if s is not None]
        if not closed:
            return []
        origin = min(start for _, start, _, _ in closed)
        events = []
        for span_id, span in enumerate(self.spans):
            if span is None or span[2] - span[1] < min_seconds:
                continue
            layer, start, end, parent = span
            events.append(
                {
                    "name": layer,
                    "cat": layer.split(".")[0],
                    "ph": "X",
                    "ts": round((start - origin) * 1e6, 1),
                    "dur": round((end - start) * 1e6, 1),
                    "pid": self.pid,
                    "tid": 0,
                    "args": {"id": span_id, "parent": parent, "trace_id": self.trace_id},
                }
            )
        return events


def _resolve(module_name: str, attribute: str):
    module = importlib.import_module(module_name)
    owner_name, _, member = attribute.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    return owner, member


def install(tracer: LayerTracer) -> None:
    """Wrap every entry point in :data:`LAYER_TARGETS` for ``tracer``.

    Module-level functions are also replaced wherever another repro
    module imported them by name, so ``from x import f`` call sites are
    covered too.  Must run after every module that binds a target has
    been imported."""
    replacements = {}
    for layer, module_name, attribute, hot in LAYER_TARGETS:
        owner, member = _resolve(module_name, attribute)
        original = owner.__dict__[member]
        wrapped = tracer.wrap(layer, original, hot)
        setattr(owner, member, wrapped)
        if owner is sys.modules[module_name]:
            replacements[id(original)] = (original, wrapped)
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
