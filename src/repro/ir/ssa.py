"""SSA construction (Cytron-style).

Phi nodes are placed at iterated dominance frontiers of each variable's
definition blocks, then variables are renamed with per-variable version
stacks.  Versioned names are ``name.N``; parameters enter as ``name.0``.
Temporaries introduced by lowering (``%tN``) are already single-assignment
but are renamed uniformly for consistency.  Phis nothing uses are pruned
last; a caller that will still add uses (the connector interface edit,
:func:`repro.transform.connectors.transform_function_interface`) keeps
them with ``prune=False`` and prunes after its edit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.ir import cfg
from repro.ir.dominance import DomInfo, dominators


def base_name(ssa_name: str) -> str:
    """Strip the SSA version suffix: ``x.3`` -> ``x``."""
    dot = ssa_name.rfind(".")
    return ssa_name[:dot] if dot > 0 else ssa_name


def to_ssa(
    function: cfg.Function, dom: Optional[DomInfo] = None, prune: bool = True
) -> cfg.Function:
    """Convert ``function`` to SSA form in place and return it.  ``dom``
    is its dominator tree, when the caller already has one; ``prune=False``
    keeps the phis nothing uses (see :func:`prune_dead_phis`)."""
    if function.is_ssa:
        return function
    dom = dom or dominators(function)
    _place_phis(function, dom)
    _rename(function, dom)
    function.is_ssa = True
    if prune:
        prune_dead_phis(function)
    return function


def reaching_version(
    function: cfg.Function, dom: DomInfo, label: str, var: str
) -> str:
    """The SSA version of parameter ``var`` live at the end of block
    ``label``: its last definition in the block, else its phi there, else
    the same lookup in the immediate dominator, ending at the entry
    version ``var.0``.  This is the version renaming would have given a
    use of ``var`` appended to the block.  (Connector receivers of calls
    are never parameters, so only ``defined_var`` is read.)"""
    node: Optional[str] = label
    while node is not None:
        block = function.blocks[node]
        for instr in reversed(block.instrs):
            dest = instr.defined_var()
            if dest is not None and base_name(dest) == var:
                return dest
        for phi in block.phis:
            if base_name(phi.dest) == var:
                return phi.dest
        node = dom.idom.get(node)
    return f"{var}.0"


def _place_phis(function: cfg.Function, dom: DomInfo) -> None:
    # Collect definition sites per variable.
    def_blocks: Dict[str, Set[str]] = {}
    for label in dom.order:
        block = function.blocks[label]
        for instr in block.all_instrs():
            dest = instr.defined_var()
            if dest is not None:
                def_blocks.setdefault(dest, set()).add(label)
            if isinstance(instr, cfg.Call):
                for receiver in instr.extra_receivers:
                    def_blocks.setdefault(receiver, set()).add(label)
    for param in function.params + function.aux_params:
        def_blocks.setdefault(param, set()).add(function.entry)

    # Liveness-free pruning: only insert a phi where the variable is used
    # in or after the block (semi-pruned would need liveness; simple
    # iterated-DF insertion plus later dead-phi cleanup is adequate here).
    for var, blocks in def_blocks.items():
        worklist = list(blocks)
        has_phi: Set[str] = set()
        while worklist:
            block_label = worklist.pop()
            for frontier_label in dom.frontiers.get(block_label, ()):  # noqa: B909
                if frontier_label in has_phi:
                    continue
                has_phi.add(frontier_label)
                frontier = function.blocks[frontier_label]
                incomings = [(pred, cfg.Var(var)) for pred in frontier.preds]
                phi = cfg.Phi(var, incomings)
                phi.block = frontier_label
                frontier.phis.append(phi)
                if frontier_label not in blocks:
                    worklist.append(frontier_label)


def _rename(function: cfg.Function, dom: DomInfo) -> None:
    counters: Dict[str, int] = {}
    stacks: Dict[str, List[str]] = {}

    def new_version(var: str) -> str:
        count = counters.get(var, 0)
        counters[var] = count + 1
        name = f"{var}.{count}"
        stacks.setdefault(var, []).append(name)
        return name

    def current(var: str) -> Optional[str]:
        stack = stacks.get(var)
        return stack[-1] if stack else None

    new_params = [new_version(p) for p in function.params]
    new_aux = [new_version(p) for p in function.aux_params]

    def rename_block(label: str) -> None:
        block = function.blocks[label]
        pushed: List[str] = []
        for phi in block.phis:
            original = phi.dest
            phi.dest = new_version(original)
            pushed.append(original)
        for instr in block.instrs:
            mapping = {}
            for used in instr.used_vars():
                version = current(used)
                if version is not None:
                    mapping[used] = cfg.Var(version)
            if mapping:
                instr.replace_uses(mapping)
            dest = instr.defined_var()
            if dest is not None:
                if isinstance(instr, cfg.Call):
                    instr.dest = new_version(dest)
                else:
                    instr.dest = new_version(dest)  # type: ignore[attr-defined]
                pushed.append(dest)
            if isinstance(instr, cfg.Call) and instr.extra_receivers:
                renamed = []
                for receiver in instr.extra_receivers:
                    renamed.append(new_version(receiver))
                    pushed.append(receiver)
                instr.extra_receivers = renamed
        terminator = block.terminator
        if terminator is not None:
            mapping = {}
            for used in terminator.used_vars():
                version = current(used)
                if version is not None:
                    mapping[used] = cfg.Var(version)
            if mapping:
                terminator.replace_uses(mapping)
        # Fill phi operands of successors.
        for succ_label in block.succs:
            succ = function.blocks[succ_label]
            for phi in succ.phis:
                original = base_name(phi.dest) if phi.dest else phi.dest
                for i, (pred_label, operand) in enumerate(phi.incomings):
                    if pred_label != label:
                        continue
                    assert isinstance(operand, cfg.Var)
                    version = current(operand.name)
                    if version is None:
                        # Use before any def on this path: undefined value.
                        phi.incomings[i] = (pred_label, cfg.Var(f"{operand.name}.undef"))
                    else:
                        phi.incomings[i] = (pred_label, cfg.Var(version))
        for child in dom.children.get(label, ()):  # noqa: B909
            rename_block(child)
        for var in reversed(pushed):
            stacks[var].pop()

    rename_block(function.entry)
    function.params = new_params
    function.aux_params = new_aux


def prune_dead_phis(function: cfg.Function) -> None:
    """Remove phis whose value is never used (iterate to fixpoint)."""
    changed = True
    while changed:
        changed = False
        used: Set[str] = set()
        for block in function.blocks.values():
            for instr in block.all_instrs():
                for var in instr.used_vars():
                    used.add(var)
        for block in function.blocks.values():
            kept = []
            for phi in block.phis:
                if phi.dest in used:
                    kept.append(phi)
                else:
                    changed = True
            block.phis = kept
