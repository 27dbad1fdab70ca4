"""Whole-program Andersen (inclusion-based) points-to analysis.

This is the substrate of the "layered" baseline the paper compares
against: flow-insensitive, context-insensitive, path-insensitive.  Its
imprecision is the point — it produces the inflated points-to sets that
blow up the baseline's global SVFG with false edges (the "pointer trap",
Section 1).

Constraint forms over SSA variables of *all* functions at once:

- ``p = malloc()``      →  ``loc(o) ∈ pts(p)``
- ``p = q`` / phi       →  ``pts(q) ⊆ pts(p)``
- ``p = *q``            →  for each ``o ∈ pts(q)``: ``pts(content(o)) ⊆ pts(p)``
- ``*p = q``            →  for each ``o ∈ pts(p)``: ``pts(q) ⊆ pts(content(o))``
- call / return         →  actuals ⊆ formals, callee return ⊆ receiver

Deep loads/stores (``depth > 1``) are pre-lowered into chains of synthetic
depth-1 operations.  Each abstract object ``o`` has one content variable
``content(o)`` (field-insensitive).  Parameters of entry-point-reachable
functions with no binding receive a per-parameter synthetic object so
dereferences of dead-code parameters still resolve (soundy, matching the
paper's assumption that distinct parameters do not alias).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.ir import cfg
from repro.ir.ssa import base_name
from repro.pta.memory import AllocObject, AuxObject, MemObject


class AndersenAnalysis:
    """Runs on a module of SSA functions (no connector transform)."""

    def __init__(self, module: cfg.Module) -> None:
        self.module = module
        # Node ids: "func::var" for variables, content nodes per object.
        self.pts: Dict[str, Set[MemObject]] = {}
        self._copy_edges: Dict[str, Set[str]] = {}
        self._load_constraints: List[Tuple[str, str]] = []  # dest ⊇ *src
        self._store_constraints: List[Tuple[str, str]] = []  # *dest ⊇ src
        self._object_content: Dict[MemObject, str] = {}
        self._synth_counter = 0
        self.iterations = 0

    # ------------------------------------------------------------------
    # Node helpers
    # ------------------------------------------------------------------
    @staticmethod
    def node(func: str, var: str) -> str:
        return f"{func}::{var}"

    def content_node(self, obj: MemObject) -> str:
        name = self._object_content.get(obj)
        if name is None:
            name = f"@content::{len(self._object_content)}::{obj!r}"
            self._object_content[obj] = name
        return name

    def _fresh(self, func: str) -> str:
        self._synth_counter += 1
        return self.node(func, f"%and{self._synth_counter}")

    # ------------------------------------------------------------------
    # Constraint generation
    # ------------------------------------------------------------------
    def _add_copy(self, src: str, dst: str) -> None:
        self._copy_edges.setdefault(src, set()).add(dst)

    def _add_object(self, node: str, obj: MemObject) -> None:
        self.pts.setdefault(node, set()).add(obj)

    def generate(self) -> None:
        for function in self.module:
            name = function.name
            for param in function.params:
                # Each parameter without any caller binding still gets a
                # synthetic pointee so local dereferences resolve.
                self._add_object(
                    self.node(name, param),
                    AuxObject(name, base_name(param), 1),
                )
            for instr in function.all_instrs():
                self._gen_instr(name, instr)
        # Aux objects' contents recursively point to deeper aux objects.
        for obj in list(self._object_content):
            self._seed_aux(obj)

    def _seed_aux(self, obj: MemObject) -> None:
        if isinstance(obj, AuxObject) and obj.depth < 3:
            deeper = AuxObject(obj.func, obj.param, obj.depth + 1)
            self._add_object(self.content_node(obj), deeper)

    def _gen_instr(self, func: str, instr: cfg.Instr) -> None:
        if isinstance(instr, cfg.Malloc):
            self._add_object(self.node(func, instr.dest), AllocObject(instr.uid, instr.line))
        elif isinstance(instr, cfg.Assign):
            if isinstance(instr.src, cfg.Var):
                self._add_copy(self.node(func, instr.src.name), self.node(func, instr.dest))
        elif isinstance(instr, cfg.Phi):
            for _, operand in instr.incomings:
                if isinstance(operand, cfg.Var):
                    self._add_copy(self.node(func, operand.name), self.node(func, instr.dest))
        elif isinstance(instr, cfg.Load):
            src = self.node(func, instr.pointer.name)
            for _ in range(instr.depth - 1):
                mid = self._fresh(func)
                self._load_constraints.append((mid, src))
                src = mid
            self._load_constraints.append((self.node(func, instr.dest), src))
        elif isinstance(instr, cfg.Store):
            dst = self.node(func, instr.pointer.name)
            for _ in range(instr.depth - 1):
                mid = self._fresh(func)
                self._load_constraints.append((mid, dst))
                dst = mid
            if isinstance(instr.value, cfg.Var):
                self._store_constraints.append((dst, self.node(func, instr.value.name)))
        elif isinstance(instr, cfg.Call):
            callee = instr.callee
            if callee in self.module:
                target = self.module[callee]
                for actual, formal in zip(instr.args, target.params):
                    if isinstance(actual, cfg.Var):
                        self._add_copy(
                            self.node(func, actual.name), self.node(callee, formal)
                        )
                receivers = instr.all_receivers()
                ret_values: List[cfg.Operand] = []
                for ret in target.return_instrs():
                    if ret.value is not None:
                        ret_values.append(ret.value)
                    ret_values.extend(ret.extra_values)
                for receiver, value in zip(receivers, ret_values):
                    if isinstance(value, cfg.Var):
                        self._add_copy(
                            self.node(callee, value.name), self.node(func, receiver)
                        )

    # ------------------------------------------------------------------
    # Solving (worklist with dynamic complex-constraint expansion)
    # ------------------------------------------------------------------
    # Every loop below iterates points-to sets and copy-edge sets in
    # *sorted* order (MemObject.sort_key / node-name order), never raw
    # set order.  Set iteration depends on PYTHONHASHSEED; sorted
    # iteration makes content-node naming, copy-edge discovery order,
    # and therefore everything downstream (baseline SVFG shape, report
    # order) byte-identical across processes and runs.

    def solve(self, max_iterations: int = 100) -> None:
        changed = True
        while changed and self.iterations < max_iterations:
            self.iterations += 1
            changed = False
            # Expand load/store constraints into copy edges.
            for dest, pointer in self._load_constraints:
                for obj in self._sorted_pts(pointer):
                    self._seed_aux(obj)
                    content = self.content_node(obj)
                    if dest not in self._copy_edges.get(content, set()):
                        self._add_copy(content, dest)
                        changed = True
            for pointer, value in self._store_constraints:
                for obj in self._sorted_pts(pointer):
                    content = self.content_node(obj)
                    if content not in self._copy_edges.get(value, set()):
                        self._add_copy(value, content)
                        changed = True
            # Propagate along copy edges to a fixpoint.
            if self._propagate():
                changed = True

    def _sorted_pts(self, node: str) -> List[MemObject]:
        return sorted(self.pts.get(node, ()), key=lambda obj: obj.sort_key())

    def _propagate(self) -> bool:
        changed_any = False
        worklist = sorted(node for node in self.pts if self.pts[node])
        seen = set(worklist)
        while worklist:
            node = worklist.pop()
            seen.discard(node)
            objs = self.pts.get(node, set())
            for succ in sorted(self._copy_edges.get(node, ())):
                target = self.pts.setdefault(succ, set())
                before = len(target)
                target.update(objs)
                if len(target) != before:
                    changed_any = True
                    if succ not in seen:
                        worklist.append(succ)
                        seen.add(succ)
        return changed_any

    def run(self) -> "AndersenAnalysis":
        self.generate()
        self.solve()
        return self

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def points_to(self, func: str, var: str) -> Set[MemObject]:
        return self.pts.get(self.node(func, var), set())

    def sorted_points_to(self, func: str, var: str) -> List[MemObject]:
        """Points-to set in the stable :meth:`MemObject.sort_key` order —
        what clients building output from these sets should iterate."""
        return self._sorted_pts(self.node(func, var))

    def total_pts_size(self) -> int:
        return sum(len(objs) for objs in self.pts.values())
