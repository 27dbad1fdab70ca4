"""IR verifier: CFG shape, SSA form, dominance, control dependence.

This is the moral equivalent of LLVM's ``-verify`` pass for the repo's
IR.  It runs after per-function preparation (lowering, connector
transformation, SSA construction), so it checks the *final* artifact
later stages consume.  Checks are staged: SSA/dominance invariants are
only meaningful on a structurally sound CFG, so when a structural rule
fires the later passes are skipped — both to avoid crashing on garbage
and so a mutation corrupting one invariant trips exactly one rule.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Dict, List, Optional, Tuple

from repro.ir import cfg
from repro.ir.dominance import DomInfo, dominators
from repro.verify.violation import Violation

_TERMINATORS = (cfg.Branch, cfg.Jump, cfg.Ret)


def instr_defs(instr: cfg.Instr) -> List[str]:
    """All SSA variables an instruction defines (``defined_var`` plus a
    Call's Aux-return receivers)."""
    defs = []
    dest = instr.defined_var()
    if dest is not None:
        defs.append(dest)
    if isinstance(instr, cfg.Call):
        defs.extend(instr.extra_receivers)
    return defs


def _terminator_targets(term: cfg.Instr) -> List[str]:
    if isinstance(term, cfg.Branch):
        return [term.then_label, term.else_label]
    if isinstance(term, cfg.Jump):
        return [term.target]
    return []


def verify_function_ir(
    function: cfg.Function,
    control_deps: Optional[Dict[str, list]] = None,
    dom: Optional[DomInfo] = None,
) -> List[Violation]:
    """Check one (transformed, SSA) function; return all violations.

    Never raises on corrupt input — a verifier that crashes on the
    malformed IR it exists to detect would be useless.
    """
    unit = function.name
    violations: List[Violation] = []
    blocks = function.blocks

    # ---------------------------------------------------------- ir-entry
    structural_ok = True
    if function.entry not in blocks:
        violations.append(
            Violation("ir-entry", unit, f"entry block {function.entry!r} missing")
        )
        structural_ok = False
    elif blocks[function.entry].preds:
        violations.append(
            Violation(
                "ir-entry",
                unit,
                f"entry block has predecessors {blocks[function.entry].preds}",
            )
        )
        structural_ok = False

    # ------------------------------------- ir-terminator / ir-edge-symmetry
    for label, block in blocks.items():
        term = block.terminator
        if not isinstance(term, _TERMINATORS):
            violations.append(
                Violation(
                    "ir-terminator",
                    unit,
                    f"block {label!r} terminator is {type(term).__name__}",
                )
            )
            structural_ok = False
        else:
            targets = _terminator_targets(term)
            missing = [t for t in targets if t not in blocks]
            if missing:
                violations.append(
                    Violation(
                        "ir-edge-symmetry",
                        unit,
                        f"block {label!r} branches to unknown block(s) {missing}",
                        line=term.line,
                    )
                )
                structural_ok = False
            elif sorted(targets) != sorted(block.succs):
                violations.append(
                    Violation(
                        "ir-edge-symmetry",
                        unit,
                        f"block {label!r} succs {block.succs} do not match "
                        f"terminator targets {targets}",
                        line=term.line,
                    )
                )
                structural_ok = False
        for instr in chain(block.phis, block.instrs):
            if isinstance(instr, _TERMINATORS):
                violations.append(
                    Violation(
                        "ir-terminator",
                        unit,
                        f"terminator {instr!r} appears mid-block in {label!r}",
                        line=instr.line,
                    )
                )
                structural_ok = False

    # Pred/succ symmetry as edge multisets.
    succ_edges = [
        (label, succ) for label, block in blocks.items() for succ in block.succs
    ]
    pred_edges = [
        (pred, label) for label, block in blocks.items() for pred in block.preds
    ]
    if sorted(succ_edges) != sorted(pred_edges):
        succ_count, pred_count = Counter(succ_edges), Counter(pred_edges)
        diff = (succ_count - pred_count) + (pred_count - succ_count)
        violations.append(
            Violation(
                "ir-edge-symmetry",
                unit,
                f"pred/succ lists disagree on edge(s) {sorted(diff)}",
            )
        )
        structural_ok = False

    if not structural_ok or not function.is_ssa:
        # SSA and dominance are undefined on a broken CFG; reporting
        # derived failures would only bury the root cause.
        return violations

    # ------------------------------------------------------ ssa-single-def
    params = set(function.params) | set(function.aux_params)
    def_site: Dict[str, Tuple[str, int]] = {}
    duplicated = set()
    for label, block in blocks.items():
        for index, instr in enumerate(block.all_instrs()):
            for var in instr_defs(instr):
                if var in def_site or var in params:
                    duplicated.add(var)
                    violations.append(
                        Violation(
                            "ssa-single-def",
                            unit,
                            f"{var!r} redefined in block {label!r}",
                            line=instr.line,
                        )
                    )
                else:
                    def_site[var] = (label, index)

    # ---------------------------------------------------------- phi-arity
    for label, block in blocks.items():
        preds = sorted(block.preds)
        for phi in block.phis:
            if sorted(pred for pred, _ in phi.incomings) != preds:
                labels = Counter(pred for pred, _ in phi.incomings)
                violations.append(
                    Violation(
                        "phi-arity",
                        unit,
                        f"phi {phi.dest!r} incomings {sorted(labels)} do not "
                        f"match preds {preds} of {label!r}",
                        line=phi.line,
                    )
                )

    # ------------------------------------------------------- ssa-dominance
    dom = dom or dominators(function)
    reachable = set(dom.order)

    def defined_ok(var: str) -> bool:
        # Bare (unversioned) names are source-level undefined variables:
        # SSA renaming deliberately leaves them free.  ``x.undef`` marks
        # a path with no definition (also deliberate).
        return (
            var in params
            or var in def_site
            or "." not in var
            or var.endswith(".undef")
        )

    def check_use(var: str, use_block: str, use_index: int, line: int) -> None:
        if var in params or var in duplicated:
            return
        site = def_site.get(var)
        if site is None:
            if not defined_ok(var):
                violations.append(
                    Violation(
                        "ssa-dominance",
                        unit,
                        f"use of undefined SSA variable {var!r}",
                        line=line,
                    )
                )
            return
        def_block, def_index = site
        if def_block == use_block:
            if def_index >= use_index:
                violations.append(
                    Violation(
                        "ssa-dominance",
                        unit,
                        f"{var!r} used before its definition in {use_block!r}",
                        line=line,
                    )
                )
        elif not dom.dominates(def_block, use_block):
            violations.append(
                Violation(
                    "ssa-dominance",
                    unit,
                    f"definition of {var!r} in {def_block!r} does not "
                    f"dominate its use in {use_block!r}",
                    line=line,
                )
            )

    for label in reachable:
        block = blocks[label]
        for index, instr in enumerate(block.all_instrs()):
            if isinstance(instr, cfg.Phi):
                # A phi operand must be available at the end of the
                # corresponding predecessor — the definition block must
                # dominate the predecessor (self-loops included: the
                # whole block runs before its own back edge is taken).
                for pred, operand in instr.incomings:
                    if not isinstance(operand, cfg.Var):
                        continue
                    var = operand.name
                    if var in params or var in duplicated:
                        continue
                    site = def_site.get(var)
                    if site is None:
                        if not defined_ok(var):
                            violations.append(
                                Violation(
                                    "ssa-dominance",
                                    unit,
                                    f"phi {instr.dest!r} uses undefined "
                                    f"variable {var!r}",
                                    line=instr.line,
                                )
                            )
                        continue
                    if pred in reachable and not dom.dominates(site[0], pred):
                        violations.append(
                            Violation(
                                "ssa-dominance",
                                unit,
                                f"phi operand {var!r} (defined in "
                                f"{site[0]!r}) does not dominate "
                                f"predecessor {pred!r}",
                                line=instr.line,
                            )
                        )
            else:
                for var in instr.used_vars():
                    check_use(var, label, index, instr.line)

    # ----------------------------------------------------------- cd-branch
    if control_deps:
        for label, deps in control_deps.items():
            if label not in blocks:
                violations.append(
                    Violation(
                        "cd-branch",
                        unit,
                        f"control dependence recorded for unknown block {label!r}",
                    )
                )
                continue
            for branch_label, _taken in deps:
                branch_block = blocks.get(branch_label)
                if branch_block is None or not isinstance(
                    branch_block.terminator, cfg.Branch
                ):
                    violations.append(
                        Violation(
                            "cd-branch",
                            unit,
                            f"block {label!r} claims control dependence on "
                            f"{branch_label!r}, which is not a Branch block",
                        )
                    )

    return violations
