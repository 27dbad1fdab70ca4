"""The connector transformation (paper Fig. 3).

Two semantics-preserving rewrites of one function's CFG:

- :func:`transform_call_sites` (Fig. 3(b)), on the lowered CFG before
  SSA: at every call to a transformed callee, load the actual values
  ``A <- *(u_j, k)`` of the callee's Aux formal parameters and pass them
  as extra arguments; receive the callee's Aux return values into fresh
  receivers ``C`` and store them back, ``*(u_q, r) <- C``.

- :func:`transform_function_interface` (Fig. 3(a)), an edit of the same
  function's SSA form once Mod/Ref has run on it: for each referenced
  location ``*(p, k)`` insert ``*(p.0, k) <- F$p$k.0`` at the entry and
  add ``F$p$k.0`` as an Aux formal parameter; for each modified location
  insert ``R$p$k.0 <- *(p_exit, k)`` before the return, where ``p_exit``
  is the version of ``p`` that reaches it, and add ``R$p$k`` as an Aux
  return value.

The functions named here (``F``/``A``/``C``/``R``) are the connectors of
Fig. 2: ``K``/``L`` at the call site, ``X``/``Y`` in the callee.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.ir import cfg
from repro.ir.dominance import DomInfo, dominators
from repro.ir.ssa import base_name, prune_dead_phis, reaching_version
from repro.pta.memory import aux_param_name, aux_return_name
from repro.transform.modref import ModRefSummary


@dataclass
class ConnectorSignature:
    """A transformed function's extended interface, as callers see it.

    ``params`` are the original formal parameter base names in order;
    ``aux_params``/``aux_returns`` are ``(param, depth)`` pairs in the
    interface order used both by the callee and by call sites.
    """

    function: str
    params: List[str] = field(default_factory=list)
    aux_params: List[Tuple[str, int]] = field(default_factory=list)
    aux_returns: List[Tuple[str, int]] = field(default_factory=list)


def transform_function_interface(
    function: cfg.Function,
    summary: ModRefSummary,
    dom: Optional[DomInfo] = None,
) -> ConnectorSignature:
    """Apply Fig. 3(a) to ``function`` as an in-place SSA edit.

    ``function`` still holds the phis nothing used when it was put in
    SSA form (``to_ssa(function, prune=False)``): the version of ``p``
    reaching the return may be a phi only an Aux return load uses.  The
    edit prunes the phis still unused after it.  ``dom`` is the
    function's dominator tree, when the caller has one."""
    if not function.is_ssa:
        raise ValueError("interface transformation edits SSA form")
    signature = ConnectorSignature(
        function.name, [base_name(p) for p in function.params]
    )
    signature.aux_params = summary.ordered_ref()
    signature.aux_returns = summary.ordered_mod()

    # Entry stores.  The (param, depth) interface order also ascends in
    # depth within each parameter, so deeper locations resolve through the
    # already-stored shallower values.
    entry = function.blocks[function.entry]
    stores: List[cfg.Instr] = []
    for param, depth in signature.aux_params:
        name = f"{aux_param_name(param, depth)}.0"
        function.aux_params.append(name)
        store = cfg.Store(cfg.Var(f"{param}.0"), depth, cfg.Var(name))
        store.block = entry.label
        store.synthetic = True
        stores.append(store)
    entry.instrs[:0] = stores

    # Exit loads before each return (lowering guarantees exactly one).
    if signature.aux_returns:
        dom = dom or dominators(function)
        for block in function.blocks.values():
            terminator = block.terminator
            if not isinstance(terminator, cfg.Ret):
                continue
            for param, depth in signature.aux_returns:
                name = f"{aux_return_name(param, depth)}.0"
                pointer = reaching_version(function, dom, block.label, param)
                load = cfg.Load(name, cfg.Var(pointer), depth)
                load.block = block.label
                load.synthetic = True
                block.instrs.append(load)
                terminator.extra_values.append(cfg.Var(name))
    function.aux_returns = [
        aux_return_name(p, k) for p, k in signature.aux_returns
    ]
    prune_dead_phis(function)
    return signature


def transform_call_sites(
    function: cfg.Function, signatures: Dict[str, ConnectorSignature]
) -> None:
    """Apply Fig. 3(b) to every call in ``function`` (pre-SSA, in place)."""
    if function.is_ssa:
        raise ValueError("call-site transformation must run before SSA")
    for block in function.blocks.values():
        new_instrs: List[cfg.Instr] = []
        for instr in block.instrs:
            if not isinstance(instr, cfg.Call) or instr.callee not in signatures:
                new_instrs.append(instr)
                continue
            signature = signatures[instr.callee]
            if not signature.aux_params and not signature.aux_returns:
                new_instrs.append(instr)
                continue
            param_index = {name: i for i, name in enumerate(signature.params)}
            # The call's uid names its connectors: unique in the function
            # and, under cfg.scoped_uids, independent of what else this
            # process has prepared (so two tiers' artifacts compare).
            site = instr.uid

            # A_i <- *(u_j, k): actual values for the callee's aux params.
            for param, depth in signature.aux_params:
                actual = _actual_for(instr, param_index, param)
                arg_name = f"A${site}${param}${depth}"
                if isinstance(actual, cfg.Var):
                    load = cfg.Load(arg_name, actual, depth, line=instr.line)
                    load.block = block.label
                    load.synthetic = True
                    new_instrs.append(load)
                    instr.args.append(cfg.Var(arg_name))
                else:
                    # Constant (e.g. null) actual: nothing to load; pass
                    # an undefined placeholder value.
                    instr.args.append(cfg.Const(0))
            new_instrs.append(instr)

            # {u0, C1, ...} <- call; *(u_q, r) <- C_p.
            for param, depth in signature.aux_returns:
                receiver = f"C${site}${param}${depth}"
                instr.extra_receivers.append(receiver)
                actual = _actual_for(instr, param_index, param)
                if isinstance(actual, cfg.Var):
                    store = cfg.Store(actual, depth, cfg.Var(receiver), line=instr.line)
                    store.block = block.label
                    store.synthetic = True
                    new_instrs.append(store)
        block.instrs = new_instrs


def _actual_for(call: cfg.Call, param_index: Dict[str, int], param: str) -> cfg.Operand:
    index = param_index.get(param)
    if index is None or index >= len(call.args):
        return cfg.Const(0)
    return call.args[index]
