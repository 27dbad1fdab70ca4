"""Pinpoint's local, quasi path-sensitive points-to analysis (§3.1.1).

Per function, flow-sensitive over SSA, tracking for every abstract memory
object its possible contents *with the condition under which each content
holds*.  Conditions come from two places:

- heap states merging at join blocks: entries arriving from a predecessor
  are guarded by that edge's gate condition (the same condition a phi
  operand from the predecessor carries), and
- pointer variables with conditional points-to sets (phis of pointers).

No SMT solver runs here.  Every constructed condition passes through the
linear-time contradiction solver; "easy" unsatisfiable entries (the
``a & !a`` kind, >90% of unsatisfiable conditions per the paper) are
pruned immediately, everything else is *memorized* — stored on the
resulting data-dependence edges for the bug-detection phase to solve.

Non-local memory behind formal parameters is modeled by
:class:`~repro.pta.memory.AuxObject`.  Reading such an object before any
local store records a REF side-effect; writing one records a MOD
side-effect (the Mod/Ref analysis of the paper's Fig. 6).  The connector
transformation consumes these sets to insert Aux formal parameters and
Aux return values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.ir import cfg
from repro.ir.gating import GateInfo
from repro.ir.ssa import base_name
from repro.obs.metrics import get_registry
from repro.obs.trace import trace
from repro.pta.memory import (
    AllocObject,
    AuxObject,
    MemObject,
    aux_param_name,
    parse_aux_param,
)
from repro.smt import terms as T
from repro.smt.linear_solver import LinearSolver
from repro.smt.terms import Term

# Entries: (value operand, condition).  Tuples keep states hashable-ish
# and cheap to copy.
Entry = Tuple[cfg.Operand, Term]
Heap = Dict[MemObject, Tuple[Entry, ...]]

MAX_AUX_DEPTH = 4


@dataclass
class PointsToResult:
    """Outcome of the local analysis, consumed by Mod/Ref, the connector
    transformation, and the SEG builder."""

    function: str
    points_to: Dict[str, Tuple[Tuple[MemObject, Term], ...]] = field(default_factory=dict)
    load_values: Dict[int, List[Entry]] = field(default_factory=dict)
    load_targets: Dict[int, List[Tuple[MemObject, Term]]] = field(default_factory=dict)
    store_targets: Dict[int, List[Tuple[MemObject, Term]]] = field(default_factory=dict)
    ref: Set[Tuple[str, int]] = field(default_factory=set)
    mod: Set[Tuple[str, int]] = field(default_factory=set)
    conditions_built: int = 0
    conditions_pruned: int = 0
    # True when the resource budget ran out mid-analysis and conditions
    # were degraded to TRUE (sound, path-insensitive).
    degraded: bool = False
    # Precision tier this result was computed under ("fi" or "fs").
    tier: str = "fi"
    # Store-update accounting.  ``strong_uids`` lists only the stores
    # strong-updated *because of* a flow-sensitive must-alias proof —
    # i.e. the fi/fs behavioural delta; syntactic strong updates (single
    # target under TRUE) happen on both tiers and are only counted.
    strong_updates: int = 0
    weak_updates: int = 0
    strong_uids: Tuple[int, ...] = ()

    def pts(self, var: str) -> Tuple[Tuple[MemObject, Term], ...]:
        return self.points_to.get(var, ())

    def fact_count(self) -> int:
        """Points-to facts: (variable, object, condition) entries."""
        return sum(len(entries) for entries in self.points_to.values())

    def publish(self) -> None:
        """Count this result in the ``pta.*`` counters.  The prepare
        driver calls it once per admitted function, so the counters
        cover the results the run keeps — served from a store or not —
        and neither Mod/Ref's analysis nor the fs audit's fi reference."""
        registry = get_registry()
        registry.counter(
            "pta.facts", "Points-to facts (variable, object, condition)"
        ).inc(self.fact_count())
        if self.strong_updates:
            registry.counter(
                "pta.strong_updates",
                "Stores strong-updated (syntactic or proof-driven)",
            ).inc(self.strong_updates, tier=self.tier)
        if self.weak_updates:
            registry.counter("pta.weak_updates", "Stores weak-updated").inc(
                self.weak_updates, tier=self.tier
            )


class PointsToAnalysis:
    """Runs the quasi path-sensitive analysis on one SSA function."""

    def __init__(
        self,
        function: cfg.Function,
        gates: Optional[GateInfo] = None,
        linear: Optional[LinearSolver] = None,
        budget=None,
        flow=None,
    ) -> None:
        if not function.is_ssa:
            raise ValueError("PointsToAnalysis requires SSA form")
        self.function = function
        self.gates = gates or GateInfo(function)
        self.linear = linear or LinearSolver()
        # Cooperative resource budget (repro.robust).  When exhausted,
        # conditions degrade to TRUE: the heap states stay sound but
        # path-insensitive, and downstream clients see `degraded`.
        self.budget = budget
        # Must-alias proofs from the sparse flow-sensitive pass
        # (repro.pta.flowsense.FlowSenseResult).  When present, stores
        # with a proof are strong-updated even if their target condition
        # is not syntactically TRUE — the fs precision tier.
        self.flow = flow
        self.degraded = False
        self.result = PointsToResult(
            function.name, tier="fs" if flow is not None else "fi"
        )
        self._defs: Dict[str, cfg.Instr] = {}
        for instr in function.all_instrs():
            dest = instr.defined_var()
            if dest is not None:
                self._defs[dest] = instr
        self._param_bases = {base_name(p) for p in function.params}
        self._pts_cache: Dict[str, Tuple[Tuple[MemObject, Term], ...]] = {}
        self._pts_in_progress: Set[str] = set()
        self.heap_out: Dict[str, Heap] = {}

    # ------------------------------------------------------------------
    # Condition helpers
    # ------------------------------------------------------------------
    def _conj(self, *conds: Term) -> Optional[Term]:
        if self.degraded:
            # Budget exhausted: stop building path conditions.  TRUE
            # over-approximates every guard, keeping the heap states
            # sound at reduced precision.
            return T.TRUE
        combined = T.and_(*conds)
        self.result.conditions_built += 1
        if self.linear.is_obviously_unsat(combined):
            self.result.conditions_pruned += 1
            return None
        return combined

    # ------------------------------------------------------------------
    # Points-to sets of SSA variables
    # ------------------------------------------------------------------
    def pts(self, var: str) -> Tuple[Tuple[MemObject, Term], ...]:
        cached = self._pts_cache.get(var)
        if cached is not None:
            return cached
        if var in self._pts_in_progress:
            return ()  # loop-carried pointer: unroll-once cut
        self._pts_in_progress.add(var)
        try:
            computed = self._compute_pts(var)
        finally:
            self._pts_in_progress.discard(var)
        self._pts_cache[var] = computed
        self.result.points_to[var] = computed
        return computed

    def _compute_pts(self, var: str) -> Tuple[Tuple[MemObject, Term], ...]:
        instr = self._defs.get(var)
        func = self.function
        if instr is None:
            base = base_name(var)
            aux = parse_aux_param(base)
            if aux is not None:
                param, depth = aux
                if depth + 1 <= MAX_AUX_DEPTH:
                    return ((AuxObject(func.name, param, depth + 1), T.TRUE),)
                return ()
            if base in self._param_bases:
                return ((AuxObject(func.name, base, 1), T.TRUE),)
            return ()
        if isinstance(instr, cfg.Malloc):
            return ((AllocObject(instr.uid, instr.line), T.TRUE),)
        if isinstance(instr, cfg.Assign):
            if isinstance(instr.src, cfg.Var):
                return self.pts(instr.src.name)
            return ()
        if isinstance(instr, cfg.Phi):
            merged: Dict[MemObject, Term] = {}
            for index, (_, operand) in enumerate(instr.incomings):
                if not isinstance(operand, cfg.Var):
                    continue
                gate = self.gates.gate(instr, index)
                for obj, cond in self.pts(operand.name):
                    combined = self._conj(cond, gate)
                    if combined is None:
                        continue
                    existing = merged.get(obj)
                    merged[obj] = combined if existing is None else T.or_(existing, combined)
            return tuple(merged.items())
        if isinstance(instr, cfg.Load):
            merged = {}
            for value, cond in self.result.load_values.get(instr.uid, ()):  # noqa: B909
                if not isinstance(value, cfg.Var):
                    continue
                for obj, cond2 in self.pts(value.name):
                    combined = self._conj(cond, cond2)
                    if combined is None:
                        continue
                    existing = merged.get(obj)
                    merged[obj] = combined if existing is None else T.or_(existing, combined)
            return tuple(merged.items())
        # Calls, BinOps, UnOps: opaque (no pointer arithmetic modeled).
        return ()

    # ------------------------------------------------------------------
    # Heap contents
    # ------------------------------------------------------------------
    def _contents(self, obj: MemObject, heap: Heap) -> Tuple[Entry, ...]:
        entries = heap.get(obj)
        if entries:
            return entries
        if isinstance(obj, AuxObject) and obj.func == self.function.name:
            # Initial (caller-provided) content: record the REF side
            # effect and hand back the phantom aux-parameter value so
            # deeper dereference levels keep resolving.
            self.result.ref.add((obj.param, obj.depth))
            return ((cfg.Var(aux_param_name(obj.param, obj.depth)), T.TRUE),)
        return ()

    def _resolve_targets(
        self, pointer: cfg.Var, depth: int, heap: Heap
    ) -> List[Tuple[MemObject, Term]]:
        """Objects designated by ``*(pointer, depth)`` with conditions."""
        frontier: List[Tuple[MemObject, Term]] = list(self.pts(pointer.name))
        for _ in range(1, depth):
            next_frontier: List[Tuple[MemObject, Term]] = []
            for obj, cond in frontier:
                for value, cond2 in self._contents(obj, heap):
                    if not isinstance(value, cfg.Var):
                        continue  # null or integer: not a location
                    for obj2, cond3 in self.pts(value.name):
                        combined = self._conj(cond, cond2, cond3)
                        if combined is not None:
                            next_frontier.append((obj2, combined))
            frontier = next_frontier
        return frontier

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------
    def run(self) -> PointsToResult:
        with trace("pta.run", unit=self.function.name) as span:
            result = self._run()
            span.set(facts=result.fact_count(), degraded=self.degraded)
            return result

    def _run(self) -> PointsToResult:
        function = self.function
        order = function.block_order()
        back = self.gates.back
        budget = self.budget
        for label in order:
            if budget is not None and not self.degraded:
                if not budget.spend_steps(1):
                    self.degraded = True
            block = function.blocks[label]
            heap = self._merge_heaps(label, back)
            for instr in block.instrs:
                if isinstance(instr, cfg.Load):
                    self._do_load(instr, heap)
                elif isinstance(instr, cfg.Store):
                    self._do_store(instr, heap)
                elif isinstance(instr, cfg.Call):
                    self._do_call_models(instr, heap)
            self.heap_out[label] = heap
        # Force points-to computation for every defined variable so the
        # result is complete for clients that inspect sets directly.
        for var in self._defs:
            self.pts(var)
        for param in function.params + function.aux_params:
            self.pts(param)
        self.result.degraded = self.degraded
        return self.result

    def _merge_heaps(self, label: str, back) -> Heap:
        function = self.function
        preds = [
            p
            for p in function.blocks[label].preds
            if (p, label) not in back and p in self.heap_out
        ]
        if not preds:
            return {}
        if len(preds) == 1:
            return dict(self.heap_out[preds[0]])
        # Objects with an entry on at least one incoming path.  For aux
        # objects, a path *without* any entry means the caller-provided
        # initial value survives there; substitute the phantom aux value
        # so the merged state keeps that possibility (e.g. bar() in the
        # paper's Fig. 2, where *q retains X when neither store runs).
        all_objs = set()
        for pred in preds:
            all_objs.update(self.heap_out[pred])
        merged: Dict[MemObject, Dict[cfg.Operand, Term]] = {}
        for pred in preds:
            gate = self.gates.merge_gate(pred, label)
            pred_heap = self.heap_out[pred]
            for obj in all_objs:
                entries = pred_heap.get(obj)
                if not entries:
                    if isinstance(obj, AuxObject) and obj.func == self.function.name:
                        phantom = cfg.Var(aux_param_name(obj.param, obj.depth))
                        entries = ((phantom, T.TRUE),)
                    else:
                        continue
                bucket = merged.setdefault(obj, {})
                for value, cond in entries:
                    combined = self._conj(cond, gate)
                    if combined is None:
                        continue
                    existing = bucket.get(value)
                    bucket[value] = (
                        combined if existing is None else T.or_(existing, combined)
                    )
        return {
            obj: tuple(bucket.items())
            for obj, bucket in merged.items()
            if bucket
        }

    def _do_load(self, instr: cfg.Load, heap: Heap) -> None:
        targets = self._resolve_targets(instr.pointer, instr.depth, heap)
        self.result.load_targets[instr.uid] = targets
        values: Dict[cfg.Operand, Term] = {}
        for obj, cond in targets:
            for value, cond2 in self._contents(obj, heap):
                combined = self._conj(cond, cond2)
                if combined is None:
                    continue
                existing = values.get(value)
                values[value] = combined if existing is None else T.or_(existing, combined)
        self.result.load_values[instr.uid] = list(values.items())

    def _do_call_models(self, instr: cfg.Call, heap: Heap) -> None:
        """Models of standard C library routines that matter for the
        points-to analysis (the paper's §4.2 models memset/memcpy).

        - ``memcpy(dst, src)`` / ``memmove``: the contents reachable from
          ``src`` flow into the objects ``dst`` points to;
        - ``memset(dst, v)``: ``v`` (usually 0) is stored into the
          objects ``dst`` points to.

        Both record Mod/Ref side effects exactly like explicit stores and
        loads, so the connector transformation sees through them.
        """
        callee = instr.callee
        if callee in ("memcpy", "memmove"):
            if len(instr.args) < 2:
                return
            dst, src = instr.args[0], instr.args[1]
            if not isinstance(dst, cfg.Var) or not isinstance(src, cfg.Var):
                return
            values: Dict[cfg.Operand, Term] = {}
            for obj, cond in self._resolve_targets(src, 1, heap):
                for value, cond2 in self._contents(obj, heap):
                    combined = self._conj(cond, cond2)
                    if combined is None:
                        continue
                    existing = values.get(value)
                    values[value] = (
                        combined if existing is None else T.or_(existing, combined)
                    )
            targets = self._resolve_targets(dst, 1, heap)
            for obj, cond in targets:
                if isinstance(obj, AuxObject) and obj.func == self.function.name:
                    self.result.mod.add((obj.param, obj.depth))
                extra = tuple(
                    (value, combined)
                    for value, value_cond in values.items()
                    if (combined := self._conj(cond, value_cond)) is not None
                )
                heap[obj] = heap.get(obj, ()) + extra
        elif callee in ("memset", "bzero"):
            if not instr.args or not isinstance(instr.args[0], cfg.Var):
                return
            dst = instr.args[0]
            fill: cfg.Operand = (
                instr.args[1]
                if len(instr.args) > 1 and callee == "memset"
                else cfg.Const(0)
            )
            targets = self._resolve_targets(dst, 1, heap)
            for obj, _ in targets:
                if isinstance(obj, AuxObject) and obj.func == self.function.name:
                    self.result.mod.add((obj.param, obj.depth))
            if len(targets) == 1 and targets[0][1] is T.TRUE:
                heap[targets[0][0]] = ((fill, T.TRUE),)
            else:
                for obj, cond in targets:
                    heap[obj] = heap.get(obj, ()) + ((fill, cond),)

    def _do_store(self, instr: cfg.Store, heap: Heap) -> None:
        targets = self._resolve_targets(instr.pointer, instr.depth, heap)
        self.result.store_targets[instr.uid] = targets
        for obj, _ in targets:
            if isinstance(obj, AuxObject) and obj.func == self.function.name:
                self.result.mod.add((obj.param, obj.depth))
        if len(targets) == 1 and targets[0][1] is T.TRUE:
            # Strong update: the single unconditional target's old
            # contents are definitely overwritten.
            self.result.strong_updates += 1
            heap[targets[0][0]] = ((instr.value, T.TRUE),)
            return
        proof = self.flow.proofs.get(instr.uid) if self.flow is not None else None
        if (
            proof is not None
            and targets
            and all(obj == proof.obj for obj, _ in targets)
        ):
            # Flow-sensitive strong update: the sparse pass proved the
            # pointer must-aliases this single singular cell, so the
            # conditional/duplicated target entries all denote one
            # overwritten location.
            self.result.strong_updates += 1
            self.result.strong_uids = self.result.strong_uids + (instr.uid,)
            heap[proof.obj] = ((instr.value, T.TRUE),)
            return
        if targets:
            self.result.weak_updates += 1
        for obj, cond in targets:
            heap[obj] = heap.get(obj, ()) + ((instr.value, cond),)


def analyze(function: cfg.Function, linear: Optional[LinearSolver] = None) -> PointsToResult:
    """Convenience wrapper: run the local analysis on an SSA function."""
    return PointsToAnalysis(function, linear=linear).run()
