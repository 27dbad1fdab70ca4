"""Mod/Ref analysis: which non-local locations a function reads/writes.

This is the first box of the paper's architecture (Fig. 6).  It runs the
local points-to analysis on the function's own SSA form (with call sites
already connector-transformed, so callee side effects appear as explicit
loads/stores), before its interface is transformed, and collects:

- ``ref``: locations ``*(p, k)`` whose *incoming* value may be read —
  each needs an Aux formal parameter;
- ``mod``: locations that may be written — each needs an Aux return
  value.

Two closure rules keep the connector insertion well-formed:

1. A modified location whose initial value may survive to the return
   (not strongly updated on every path) is also ``ref``: the surviving
   value must flow in through an Aux formal parameter to flow back out
   through the Aux return value (the ``X``/``Y`` pair of Fig. 2's bar).
2. Accessing ``*(p, k)`` requires resolving ``*(p, j)`` for every
   ``j < k``, so ``ref``/``mod`` at depth ``k`` imply ``ref`` at all
   shallower depths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Set, Tuple

from repro.ir import cfg
from repro.ir.gating import GateInfo
from repro.ir.ssa import base_name
from repro.pta.intraproc import PointsToAnalysis
from repro.pta.memory import AuxObject, aux_param_name
from repro.smt.linear_solver import LinearSolver


@dataclass
class ModRefSummary:
    function: str
    ref: Set[Tuple[str, int]] = field(default_factory=set)
    mod: Set[Tuple[str, int]] = field(default_factory=set)

    def ordered_ref(self):
        """Deterministic interface order: by parameter name, then depth."""
        return sorted(self.ref)

    def ordered_mod(self):
        return sorted(self.mod)

    def is_pure(self) -> bool:
        return not self.ref and not self.mod


def compute_modref(
    ssa_function: cfg.Function,
    linear: Optional[LinearSolver] = None,
    gates: Optional[GateInfo] = None,
) -> ModRefSummary:
    """Compute the Mod/Ref summary of an SSA function whose call sites
    have already been connector-transformed and whose interface has not.
    The analysis is Mod/Ref's own: the final points-to analysis runs
    again once the interface edit has made the entry stores explicit."""
    analysis = PointsToAnalysis(ssa_function, gates=gates, linear=linear)
    result = analysis.run()
    ref = set(result.ref)
    mod = set(result.mod)

    # Rule 1: initial value survival.  Inspect the heap at the return
    # block: a modified aux location whose content may still be the
    # phantom initial value (or that has no entry at all there) needs the
    # incoming value, hence ref.
    ret_blocks = [
        block
        for block in ssa_function.blocks.values()
        if isinstance(block.terminator, cfg.Ret)
    ]
    exit_heap = {}
    if ret_blocks:
        exit_heap = analysis.heap_out.get(ret_blocks[0].label, {})
    for param, depth in mod:
        obj = AuxObject(ssa_function.name, param, depth)
        entries = exit_heap.get(obj)
        phantom = cfg.Var(aux_param_name(param, depth))
        if not entries or any(value == phantom for value, _ in entries):
            ref.add((param, depth))

    # Rule 2: downward depth closure.
    for param, depth in list(ref) + list(mod):
        for shallower in range(1, depth):
            ref.add((param, shallower))

    # Only parameters of this function can carry connectors.
    param_bases = {base_name(p) for p in ssa_function.params}
    ref = {(p, k) for p, k in ref if p in param_bases}
    mod = {(p, k) for p, k in mod if p in param_bases}
    return ModRefSummary(ssa_function.name, ref, mod)
