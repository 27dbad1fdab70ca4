"""Gating functions: the condition under which each phi operand is chosen.

The paper (Section 3.2.1) labels conditional data-dependence edges with
the gated-function condition of the corresponding phi operand, computable
in almost linear time per Tu & Padua (cited as [48]).  We compute gates by
propagating reaching conditions from the phi block's immediate dominator
through the acyclic region between them:

- the edge leaving a :class:`Branch` contributes the branch variable (or
  its negation) as a term;
- conditions of converging paths are OR'd.

For phis at loop headers the back-edge operand's gate is a fresh
unconstrained boolean (``loop.<uid>``): the paper unrolls loops once
(Section 4.2), so the two operands are simply treated as an
uncorrelated nondeterministic choice.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.ir import cfg
from repro.ir.dominance import DomInfo, dominators
from repro.smt import terms as T
from repro.smt.terms import Term


def back_edges(
    function: cfg.Function, dom: Optional[DomInfo] = None
) -> Set[Tuple[str, str]]:
    """Edges (src, dst) where dst dominates src — loop back edges.
    ``dom`` is the function's dominator tree, when the caller has one."""
    dom = dom or dominators(function)
    result: Set[Tuple[str, str]] = set()
    for label in dom.order:
        for succ in function.blocks[label].succs:
            if dom.dominates(succ, label):
                result.add((label, succ))
    return result


def _edge_condition(function: cfg.Function, src: str, dst: str) -> Term:
    terminator = function.blocks[src].terminator
    if isinstance(terminator, cfg.Branch):
        cond = terminator.cond
        if isinstance(cond, cfg.Const):
            literal = T.TRUE if cond.value else T.FALSE
            return literal if terminator.then_label == dst else T.not_(literal)
        var = T.bool_var(cond.name)
        if terminator.then_label == dst and terminator.else_label == dst:
            return T.TRUE
        return var if terminator.then_label == dst else T.not_(var)
    return T.TRUE


class GateInfo:
    """Per-function gate conditions for phi operands.

    ``gates[phi.uid]`` is a list parallel to ``phi.incomings`` holding the
    gate condition Term of each operand.  ``dom`` is the function's
    dominator tree, when the caller already has one.
    """

    def __init__(self, function: cfg.Function, dom: Optional[DomInfo] = None) -> None:
        self.function = function
        self.dom: DomInfo = dom or dominators(function)
        self.back = back_edges(function, self.dom)
        self.gates: Dict[int, List[Term]] = {}
        self._reach_cache: Dict[Tuple[str, str], Term] = {}
        self._compute()

    # ------------------------------------------------------------------
    def _reaching_condition(self, root: str, target: str) -> Term:
        """Condition for control to reach ``target`` from ``root`` along
        forward (non-back) edges, relative to ``root`` being reached."""
        if target == root:
            return T.TRUE
        key = (root, target)
        hit = self._reach_cache.get(key)
        if hit is not None:
            return hit
        # Guard against irreducible/odd shapes: mark in-progress.
        self._reach_cache[key] = T.TRUE
        parts: List[Term] = []
        for pred in self.function.blocks[target].preds:
            if (pred, target) in self.back:
                continue
            if not self.dom.dominates(root, pred):
                # A path bypassing root; treat as unconditional reach.
                parts.append(T.TRUE)
                continue
            pred_cond = self._reaching_condition(root, pred)
            parts.append(T.and_(pred_cond, _edge_condition(self.function, pred, target)))
        result = T.or_(*parts) if parts else T.TRUE
        self._reach_cache[key] = result
        return result

    def _compute(self) -> None:
        function = self.function
        for label in function.block_order():
            block = function.blocks[label]
            if not block.phis:
                continue
            idom = self.dom.idom.get(label) or function.entry
            for phi in block.phis:
                # Loop-header phis (mu functions): the back-edge operand
                # gets a fresh unconstrained selector, and the forward
                # operands are guarded by its negation — both iteration
                # counts stay possible (the soundy unroll-once treatment),
                # but neither operand is forced.
                selectors: List[Term] = [
                    T.bool_var(f"loop.{phi.uid}.{pred}")
                    for pred, _ in phi.incomings
                    if (pred, label) in self.back
                ]
                not_carried = T.and_(*(T.not_(s) for s in selectors))
                selector_iter = iter(selectors)
                gates: List[Term] = []
                for pred_label, _ in phi.incomings:
                    if (pred_label, label) in self.back:
                        gates.append(next(selector_iter))
                        continue
                    pred_cond = self._reaching_condition(idom, pred_label)
                    edge_cond = _edge_condition(function, pred_label, label)
                    gates.append(T.and_(not_carried, pred_cond, edge_cond))
                self.gates[phi.uid] = gates

    def gate(self, phi: cfg.Phi, index: int) -> Term:
        return self.gates[phi.uid][index]

    def merge_gate(self, pred_label: str, join_label: str) -> Term:
        """Gate condition for control entering ``join_label`` via
        ``pred_label`` — the same condition a phi operand from that pred
        would carry.  Used for conditional heap merging in the local
        points-to analysis."""
        if (pred_label, join_label) in self.back:
            return T.bool_var(f"loop.edge.{pred_label}.{join_label}")
        idom = self.dom.idom.get(join_label) or self.function.entry
        pred_cond = self._reaching_condition(idom, pred_label)
        return T.and_(pred_cond, _edge_condition(self.function, pred_label, join_label))
