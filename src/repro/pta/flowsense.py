"""Sparse flow-sensitive points-to: the must-alias pass of the
``--pta=fs`` precision tier.

The quasi path-sensitive local analysis (:mod:`repro.pta.intraproc`)
only strong-updates a store when its single target carries the
*syntactic* condition TRUE.  A store through a pointer whose points-to
set is conditional — a phi with a null branch, a cell reached through
two aliasing values, a guard structure whose gates don't collapse —
gets a weak update even when, flow-sensitively, the pointer always
designates exactly one concrete cell.  The stale value survives the
store and leaks into the SEG as a false data-dependence edge.

Following "Flow Sensitivity without Control Flow Graph" (Zhang/Cheng/
Lei; see PAPERS.md), this pass recovers those strong updates *sparsely*:
instead of iterating transfer functions in CFG order, it walks SSA
def-use chains directly.  Each SSA variable has one definition, so its
points-to set — computed by chasing the defining instruction's operands
— is valid at every use; no per-program-point states are kept at all.

Per function it computes:

- ``var_objects`` — an unconditional, over-approximate points-to set per
  SSA variable (``None`` encodes ⊤/unknown: loop-carried cycles, call
  results, reads the heap summary cannot vouch for);
- a flow-insensitive heap summary ``object -> {value variables ever
  stored}`` (fixpoint over stores/memcpy, with aux-object cells seeded
  like the local analysis's phantom aux parameters);
- a :class:`MustAliasProof` for every store whose target chain resolves,
  through the :class:`~repro.pta.memory.MustAlias` lattice, to a
  *singleton* set over a *singular* object.

An object is singular — one abstract object, one concrete cell — when
it is an allocation site outside every CFG cycle (a loop allocation
summarizes one cell per iteration, so overwriting "the" cell is not a
kill), or an aux object (one non-local cell per invocation under the
paper's no-parameter-alias assumption, §4.2).

The consumer is :class:`~repro.pta.intraproc.PointsToAnalysis`: given a
proof for a store's uid it replaces the weak update with a strong one.
That is the entire fi/fs delta, which is what makes the fs tier's
points-to and load-value sets subsets of the fi tier's by construction
(the ``pta-tier-subset`` verify rule checks this, and
``pta-strong-update-proof`` checks that every extra strong update names
a proof this pass actually issued).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.ir import cfg
from repro.ir.ssa import base_name
from repro.pta.memory import (
    AllocObject,
    AuxObject,
    MemObject,
    MustAlias,
    parse_aux_param,
)

#: Mirrors intraproc.MAX_AUX_DEPTH; past it the chain is ⊤, not empty —
#: a must-alias claim needs over-approximation, never truncation.
MAX_AUX_DEPTH = 4

#: Object set of one variable: a frozenset, or None for ⊤ (unknown).
ObjSet = Optional[FrozenSet[MemObject]]


@dataclass(frozen=True)
class MustAliasProof:
    """Why one store may be strong-updated: the pointer chain resolved
    to exactly ``obj``, and ``obj`` is one concrete cell."""

    store_uid: int
    obj: MemObject
    reason: str  # "singleton-alloc" | "singleton-aux"


@dataclass
class FlowSenseResult:
    """Sparse pass outcome, attached to the PreparedFunction of an
    fs-tier preparation (and pickled into the artifact cache with it)."""

    function: str
    # SSA variable -> sorted object tuple, or None for ⊤.
    var_objects: Dict[str, Optional[Tuple[MemObject, ...]]] = field(
        default_factory=dict
    )
    # Store uid -> proof justifying a strong update at that store.
    proofs: Dict[int, MustAliasProof] = field(default_factory=dict)
    # Malloc uids on a CFG cycle (their objects are never singular).
    cyclic_alloc_sites: Tuple[int, ...] = ()
    # True when a store through an unresolvable pointer forced the heap
    # summary to ⊤ (all proofs chaining through memory were withheld).
    heap_unknown: bool = False

    def must_target(self, var: str) -> MustAlias:
        """The must-alias lattice value of one SSA pointer variable."""
        objs = self.var_objects.get(var)
        if objs is None:
            return MustAlias.top()
        if len(objs) == 1:
            return MustAlias.singleton(objs[0])
        if not objs:
            return MustAlias.bottom()
        return MustAlias.top()


class FlowSensitivePTA:
    """Runs the sparse must-alias analysis on one SSA function."""

    def __init__(self, function: cfg.Function) -> None:
        if not function.is_ssa:
            raise ValueError("FlowSensitivePTA requires SSA form")
        self.function = function
        self._defs: Dict[str, cfg.Instr] = {}
        for instr in function.all_instrs():
            dest = instr.defined_var()
            if dest is not None:
                self._defs[dest] = instr
        self._param_bases = {base_name(p) for p in function.params}
        self._cache: Dict[str, ObjSet] = {}
        self._in_progress: Set[str] = set()
        # Flow-insensitive heap summary: object -> value variables ever
        # stored into its cell (grown to a fixpoint by run()).
        self._contents: Dict[MemObject, Set[str]] = {}
        self._contents_unknown: Set[MemObject] = set()
        self._heap_unknown = False
        self._block_of_uid: Dict[int, str] = {}
        for label in function.block_order():
            for instr in function.blocks[label].all_instrs():
                self._block_of_uid[instr.uid] = label
        self._cyclic_blocks = self._find_cyclic_blocks()

    # ------------------------------------------------------------------
    # CFG cycles (for the singularity judgement)
    # ------------------------------------------------------------------
    def _find_cyclic_blocks(self) -> Set[str]:
        blocks = self.function.blocks
        cyclic: Set[str] = set()
        for label in blocks:
            seen: Set[str] = set()
            stack = list(blocks[label].succs)
            while stack:
                current = stack.pop()
                if current == label:
                    cyclic.add(label)
                    break
                if current in seen or current not in blocks:
                    continue
                seen.add(current)
                stack.extend(blocks[current].succs)
        return cyclic

    def _singular(self, obj: MemObject) -> Optional[str]:
        """The proof reason when ``obj`` is one concrete cell, else None."""
        if isinstance(obj, AllocObject):
            if self._block_of_uid.get(obj.site) in self._cyclic_blocks:
                return None  # one abstract object, many loop cells
            return "singleton-alloc"
        if isinstance(obj, AuxObject):
            # One non-local cell per invocation: the paper's assumption
            # that distinct parameters do not alias (§4.2).
            return "singleton-aux"
        return None

    # ------------------------------------------------------------------
    # Per-variable object sets over def-use chains
    # ------------------------------------------------------------------
    def var_objects(self, var: str) -> ObjSet:
        cached = self._cache.get(var)
        if cached is not None or var in self._cache:
            return cached
        if var in self._in_progress:
            # Loop-carried def-use cycle: unlike the may-analysis (which
            # cuts to the empty set), must-alias needs ⊤ here — a value
            # we cannot finish resolving could be anything.
            return None
        self._in_progress.add(var)
        try:
            computed = self._compute(var)
        finally:
            self._in_progress.discard(var)
        self._cache[var] = computed
        return computed

    def _compute(self, var: str) -> ObjSet:
        instr = self._defs.get(var)
        func = self.function
        if instr is None:
            base = base_name(var)
            aux = parse_aux_param(base)
            if aux is not None:
                param, depth = aux
                if depth + 1 <= MAX_AUX_DEPTH:
                    return frozenset({AuxObject(func.name, param, depth + 1)})
                return None  # past the modeled depth: unknown, not empty
            if base in self._param_bases:
                return frozenset({AuxObject(func.name, base, 1)})
            return None  # undefined non-parameter variable
        if isinstance(instr, cfg.Malloc):
            return frozenset({AllocObject(instr.uid, instr.line)})
        if isinstance(instr, cfg.Assign):
            if isinstance(instr.src, cfg.Var):
                return self.var_objects(instr.src.name)
            return frozenset()  # constant (null): no pointee
        if isinstance(instr, cfg.Phi):
            merged: Set[MemObject] = set()
            for _, operand in instr.incomings:
                if not isinstance(operand, cfg.Var):
                    continue  # null/constant operand contributes nothing
                objs = self.var_objects(operand.name)
                if objs is None:
                    return None
                merged.update(objs)
            return frozenset(merged)
        if isinstance(instr, cfg.Load):
            targets = self._resolve_chain(instr.pointer.name, instr.depth)
            return self._content_hop(targets)
        # Calls, BinOps, UnOps: values the sparse pass cannot vouch for.
        return None

    # ------------------------------------------------------------------
    # Heap summary hops
    # ------------------------------------------------------------------
    def _content_hop(self, objs: ObjSet) -> ObjSet:
        """Objects pointed to by the contents of ``objs``' cells."""
        if objs is None or self._heap_unknown:
            return None
        out: Set[MemObject] = set()
        for obj in objs:
            if obj in self._contents_unknown:
                return None
            for value_var in self._contents.get(obj, ()):
                pointees = self.var_objects(value_var)
                if pointees is None:
                    return None
                out.update(pointees)
            if isinstance(obj, AuxObject):
                # Initial caller-provided content, like the local
                # analysis's phantom aux parameter.
                if obj.depth + 1 > MAX_AUX_DEPTH:
                    return None
                out.add(AuxObject(obj.func, obj.param, obj.depth + 1))
        return frozenset(out)

    def _resolve_chain(self, pointer: str, depth: int) -> ObjSet:
        """Objects designated by ``*(pointer, depth)``."""
        objs = self.var_objects(pointer)
        for _ in range(1, depth):
            objs = self._content_hop(objs)
            if objs is None:
                return None
        return objs

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------
    def run(self) -> FlowSenseResult:
        function = self.function
        # Fixpoint over the heap summary: store targets depend on
        # variable sets, which (through loads) depend on the summary.
        # Everything is monotone toward ⊤, so this terminates.
        while True:
            self._cache = {}
            if not self._grow_contents():
                break

        result = FlowSenseResult(function.name, heap_unknown=self._heap_unknown)
        self._cache = {}
        for var in sorted(self._defs):
            result.var_objects[var] = self._as_sorted(self.var_objects(var))
        for param in function.params + function.aux_params:
            result.var_objects[param] = self._as_sorted(self.var_objects(param))

        cyclic_sites: List[int] = []
        for label in function.block_order():
            for instr in function.blocks[label].all_instrs():
                if isinstance(instr, cfg.Malloc) and label in self._cyclic_blocks:
                    cyclic_sites.append(instr.uid)
                if isinstance(instr, cfg.Store):
                    proof = self._prove(instr)
                    if proof is not None:
                        result.proofs[instr.uid] = proof
        result.cyclic_alloc_sites = tuple(sorted(cyclic_sites))
        return result

    def _grow_contents(self) -> bool:
        """One fixpoint round: fold every store and memcpy into the heap
        summary; returns True when the summary changed."""
        changed = False
        for instr in self.function.all_instrs():
            if isinstance(instr, cfg.Store):
                targets = self._resolve_chain(instr.pointer.name, instr.depth)
                changed |= self._record_store(targets, instr.value)
            elif isinstance(instr, cfg.Call) and instr.callee in (
                "memcpy",
                "memmove",
            ):
                if len(instr.args) < 2:
                    continue
                dst, src = instr.args[0], instr.args[1]
                if not isinstance(dst, cfg.Var) or not isinstance(src, cfg.Var):
                    continue
                targets = self.var_objects(dst.name)
                sources = self.var_objects(src.name)
                if targets is None:
                    changed |= self._taint_heap()
                    continue
                for obj in targets:
                    if sources is None:
                        changed |= self._taint_object(obj)
                        continue
                    for src_obj in sources:
                        if src_obj in self._contents_unknown:
                            changed |= self._taint_object(obj)
                            continue
                        for value_var in tuple(self._contents.get(src_obj, ())):
                            bucket = self._contents.setdefault(obj, set())
                            if value_var not in bucket:
                                bucket.add(value_var)
                                changed = True
        return changed

    def _record_store(self, targets: ObjSet, value: cfg.Operand) -> bool:
        if targets is None:
            # A store through a pointer the pass cannot resolve could
            # hit any cell: every content set becomes unknown.  Proofs
            # that do not chain through memory are unaffected.
            return self._taint_heap()
        if not isinstance(value, cfg.Var):
            return False  # null/constant: no pointer-level content
        changed = False
        for obj in targets:
            bucket = self._contents.setdefault(obj, set())
            if value.name not in bucket:
                bucket.add(value.name)
                changed = True
        return changed

    def _taint_heap(self) -> bool:
        if self._heap_unknown:
            return False
        self._heap_unknown = True
        return True

    def _taint_object(self, obj: MemObject) -> bool:
        if obj in self._contents_unknown:
            return False
        self._contents_unknown.add(obj)
        return True

    # ------------------------------------------------------------------
    def _prove(self, instr: cfg.Store) -> Optional[MustAliasProof]:
        targets = self._resolve_chain(instr.pointer.name, instr.depth)
        if targets is None or len(targets) != 1:
            return None
        must = MustAlias.singleton(next(iter(targets)))
        reason = self._singular(must.obj)
        if reason is None:
            return None
        return MustAliasProof(instr.uid, must.obj, reason)

    @staticmethod
    def _as_sorted(objs: ObjSet) -> Optional[Tuple[MemObject, ...]]:
        if objs is None:
            return None
        return tuple(sorted(objs, key=lambda obj: obj.sort_key()))


def analyze(function: cfg.Function) -> FlowSenseResult:
    """Convenience wrapper: run the sparse pass on an SSA function."""
    return FlowSensitivePTA(function).run()
