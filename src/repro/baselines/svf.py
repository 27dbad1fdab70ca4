"""The "layered" SVF baseline (paper Sections 1-2, evaluation §5.1).

Design replicated from SVF (Sui & Xue, CC'16), the strongest layered
competitor the paper evaluates:

1. **Independent global points-to analysis** — flow-, context- and
   path-insensitive Andersen inclusion analysis over the whole program
   (:mod:`repro.pta.andersen`).
2. **Global sparse value-flow graph (FSVFG)** — one graph for the whole
   program: direct def-use edges, plus memory edges from *every* store
   that may write an object to *every* load that may read it (per the
   points-to results), plus context-insensitive call/return bindings.
3. **Bug detection** — graph reachability from checker sources to sinks,
   with no path conditions and no context sensitivity.

The imprecision is the point of the comparison: one spurious points-to
target creates many spurious SVFG edges, each of which manufactures
warnings ("the pointer trap").  The baseline also *materializes* the
whole graph up front, which is what blows up its time and memory on the
paper's larger subjects (Figs. 7-9).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.checkers.base import Checker
from repro.core.report import BugReport, Location
from repro.ir import cfg
from repro.ir.lower import lower_program
from repro.ir.ssa import to_ssa
from repro.lang import ast
from repro.lang.parser import parse_program
from repro.pta.andersen import AndersenAnalysis
from repro.pta.memory import MemObject

Node = Tuple[str, str]  # (function, ssa var) — global value-flow node


@dataclass
class SVFGStats:
    functions: int = 0
    nodes: int = 0
    edges: int = 0
    pts_size: int = 0
    seconds_pta: float = 0.0
    seconds_svfg: float = 0.0
    seconds_check: float = 0.0


class SVFBaseline:
    """Layered SVFA: Andersen -> global SVFG -> reachability."""

    def __init__(self, module: cfg.Module) -> None:
        self.module = module
        self.stats = SVFGStats(functions=len(list(module)))
        self.succ: Dict[Node, List[Node]] = {}
        self.andersen: Optional[AndersenAnalysis] = None
        self._built = False

    # ------------------------------------------------------------------
    @classmethod
    def from_source(cls, source: str) -> "SVFBaseline":
        return cls.from_program(parse_program(source))

    @classmethod
    def from_program(cls, program: ast.Program) -> "SVFBaseline":
        module = lower_program(program)
        for function in module:
            to_ssa(function)
        return cls(module)

    # ------------------------------------------------------------------
    def build(self) -> "SVFBaseline":
        """Run the points-to analysis and materialize the global SVFG."""
        if self._built:
            return self
        start = time.perf_counter()
        self.andersen = AndersenAnalysis(self.module).run()
        self.stats.seconds_pta = time.perf_counter() - start
        self.stats.pts_size = self.andersen.total_pts_size()

        start = time.perf_counter()
        self._build_svfg()
        self.stats.seconds_svfg = time.perf_counter() - start
        self.stats.nodes = len(self.succ)
        self.stats.edges = sum(len(v) for v in self.succ.values())
        self._built = True
        return self

    def _add_edge(self, src: Node, dst: Node) -> None:
        self.succ.setdefault(src, []).append(dst)
        self.succ.setdefault(dst, [])

    def _build_svfg(self) -> None:
        andersen = self.andersen
        assert andersen is not None
        # Memory edges: store site writing object o -> load site reading o.
        stores_by_object: Dict[MemObject, List[Tuple[str, cfg.Store]]] = {}
        loads_by_object: Dict[MemObject, List[Tuple[str, cfg.Load]]] = {}

        for function in self.module:
            name = function.name
            for instr in function.all_instrs():
                if isinstance(instr, cfg.Assign) and isinstance(instr.src, cfg.Var):
                    self._add_edge((name, instr.src.name), (name, instr.dest))
                elif isinstance(instr, cfg.Phi):
                    for _, operand in instr.incomings:
                        if isinstance(operand, cfg.Var):
                            self._add_edge((name, operand.name), (name, instr.dest))
                elif isinstance(instr, cfg.Store):
                    for obj in andersen.sorted_points_to(name, instr.pointer.name):
                        stores_by_object.setdefault(obj, []).append((name, instr))
                elif isinstance(instr, cfg.Load):
                    for obj in andersen.sorted_points_to(name, instr.pointer.name):
                        loads_by_object.setdefault(obj, []).append((name, instr))
                elif isinstance(instr, cfg.Call) and instr.callee in self.module:
                    callee = self.module[instr.callee]
                    for actual, formal in zip(instr.args, callee.params):
                        if isinstance(actual, cfg.Var):
                            self._add_edge((name, actual.name), (callee.name, formal))
                    receivers = instr.all_receivers()
                    values: List[cfg.Operand] = []
                    for ret in callee.return_instrs():
                        if ret.value is not None:
                            values.append(ret.value)
                        values.extend(ret.extra_values)
                    for receiver, value in zip(receivers, values):
                        if isinstance(value, cfg.Var):
                            self._add_edge((callee.name, value.name), (name, receiver))

        # The quadratic blow-up: every store of o feeds every load of o,
        # with no flow, path, or context filtering.
        for obj, loads in loads_by_object.items():
            for store_fn, store in stores_by_object.get(obj, ()):  # noqa: B909
                if not isinstance(store.value, cfg.Var):
                    continue
                for load_fn, load in loads:
                    self._add_edge(
                        (store_fn, store.value.name), (load_fn, load.dest)
                    )

    # ------------------------------------------------------------------
    def check(self, checker: Checker) -> List[BugReport]:
        """Condition-free source-to-sink traversal: from each source the
        whole value-flow slice (backward to aliases, then forward) is
        swept, with no ordering, path, or context filtering."""
        self.build()
        start = time.perf_counter()
        reports: Dict[tuple, BugReport] = {}
        sources, sinks = self._anchors(checker)
        pred = self._reverse_adjacency()
        for src_fn, src_var, src_line in sources:
            # Backward closure: every node whose value flows into the
            # source (the freed value's aliases), then forward from all.
            roots = self._closure((src_fn, src_var), pred)
            reachable = set()
            for root in roots:
                reachable |= self._reachable(root)
            for sink_fn, sink_var, sink_line, sink_uid in sinks:
                if (sink_fn, sink_var) in reachable:
                    report = BugReport(
                        checker=checker.name,
                        source=Location(src_fn, src_line, src_var),
                        sink=Location(sink_fn, sink_line, sink_var),
                        condition="unknown (path-insensitive)",
                    )
                    reports.setdefault(report.key(), report)
        self.stats.seconds_check += time.perf_counter() - start
        return list(reports.values())

    def _anchors(self, checker: Checker):
        """Source/sink tuples reusing the checker's callee-name specs."""
        from repro.core.checkers.use_after_free import FREE_NAMES

        source_names = getattr(checker, "source_calls", FREE_NAMES)
        sink_is_deref = not hasattr(checker, "sink_calls")
        sink_names = getattr(checker, "sink_calls", FREE_NAMES)
        sources = []
        sinks = []
        for function in self.module:
            name = function.name
            for instr in function.all_instrs():
                if isinstance(instr, cfg.Call) and instr.callee in source_names:
                    if checker.name in ("use-after-free", "double-free"):
                        for arg in instr.args:
                            if isinstance(arg, cfg.Var):
                                sources.append((name, arg.name, instr.line))
                    elif instr.dest is not None:
                        sources.append((name, instr.dest, instr.line))
                if sink_is_deref and isinstance(instr, (cfg.Load, cfg.Store)):
                    sinks.append((name, instr.pointer.name, instr.line, instr.uid))
                elif (
                    not sink_is_deref
                    and isinstance(instr, cfg.Call)
                    and instr.callee in sink_names
                ):
                    for arg in instr.args:
                        if isinstance(arg, cfg.Var):
                            sinks.append((name, arg.name, instr.line, instr.uid))
        return sources, sinks

    def _reachable(self, start: Node) -> Set[Node]:
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for succ in self.succ.get(node, ()):  # noqa: B909
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return seen

    def _reverse_adjacency(self) -> Dict[Node, List[Node]]:
        pred: Dict[Node, List[Node]] = {}
        for node, succs in self.succ.items():
            for succ in succs:
                pred.setdefault(succ, []).append(node)
        return pred

    def _closure(self, start: Node, pred: Dict[Node, List[Node]]) -> Set[Node]:
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for previous in pred.get(node, ()):  # noqa: B909
                if previous not in seen:
                    seen.add(previous)
                    stack.append(previous)
        return seen
