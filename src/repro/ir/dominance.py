"""Dominator trees and dominance frontiers.

Uses the iterative algorithm of Cooper, Harvey & Kennedy ("A Simple, Fast
Dominance Algorithm") over reverse postorder.  The same routine computes
post-dominators when run on the reversed CFG (with a virtual exit joining
all Ret blocks), which control-dependence computation needs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.ir import cfg


class DomInfo:
    """Immediate dominators, dominator-tree children, dominance frontiers."""

    def __init__(
        self,
        order: List[str],
        idom: Dict[str, Optional[str]],
        frontiers: Dict[str, List[str]],
    ) -> None:
        self.order = order  # reverse postorder
        self.idom = idom
        self.frontiers = frontiers
        self.children: Dict[str, List[str]] = {label: [] for label in order}
        for label, parent in idom.items():
            if parent is not None and parent != label:
                self.children[parent].append(label)

    def dominates(self, a: str, b: str) -> bool:
        """Whether ``a`` dominates ``b`` (reflexive)."""
        node: Optional[str] = b
        while node is not None:
            if node == a:
                return True
            parent = self.idom.get(node)
            if parent == node:
                return False
            node = parent
        return False


def _compute(
    order: List[str], preds: Dict[str, Sequence[str]], entry: str
) -> DomInfo:
    index = {label: i for i, label in enumerate(order)}
    idom: Dict[str, Optional[str]] = {label: None for label in order}
    idom[entry] = entry

    def intersect(a: str, b: str) -> str:
        while a != b:
            while index[a] > index[b]:
                a = idom[a]  # type: ignore[assignment]
            while index[b] > index[a]:
                b = idom[b]  # type: ignore[assignment]
        return a

    changed = True
    while changed:
        changed = False
        for label in order:
            if label == entry:
                continue
            candidates = [p for p in preds[label] if idom.get(p) is not None]
            if not candidates:
                continue
            new_idom = candidates[0]
            for other in candidates[1:]:
                new_idom = intersect(new_idom, other)
            if idom[label] != new_idom:
                idom[label] = new_idom
                changed = True

    frontiers: Dict[str, List[str]] = {label: [] for label in order}
    for label in order:
        pred_list = [p for p in preds[label] if p in index]
        if len(pred_list) < 2:
            continue
        for pred in pred_list:
            runner: Optional[str] = pred
            while runner is not None and runner != idom[label]:
                if label not in frontiers[runner]:
                    frontiers[runner].append(label)
                next_runner = idom[runner]
                runner = None if next_runner == runner else next_runner

    final_idom = dict(idom)
    final_idom[entry] = None
    return DomInfo(order, final_idom, frontiers)


def dominators(function: cfg.Function) -> DomInfo:
    """Dominator info for a function's CFG."""
    # A list of its own: the tree is pickled with the prepared function,
    # whose stored form keeps its shape.
    order = list(function.block_order())
    preds = {label: function.blocks[label].preds for label in order}
    return _compute(order, preds, function.entry)


VIRTUAL_EXIT = "__exit__"


def post_dominators(function: cfg.Function) -> DomInfo:
    """Post-dominator info, computed on the reversed CFG.

    A virtual exit node named :data:`VIRTUAL_EXIT` is appended, with edges
    from every Ret block (and from every block with no successors, so
    infinite loops do not break the computation).
    """
    order = function.block_order()
    reachable = set(order)
    rev_succs: Dict[str, List[str]] = {label: [] for label in order}
    rev_preds: Dict[str, List[str]] = {label: [] for label in order}
    rev_succs[VIRTUAL_EXIT] = []
    rev_preds[VIRTUAL_EXIT] = []
    exits = [
        label
        for label in order
        if isinstance(function.blocks[label].terminator, cfg.Ret)
        or not any(s in reachable for s in function.blocks[label].succs)
    ]
    for label in order:
        for succ in function.blocks[label].succs:
            if succ in reachable:
                # reversed edge succ -> label
                rev_succs[succ].append(label)
                rev_preds[label].append(succ)
    for label in exits:
        rev_succs[VIRTUAL_EXIT].append(label)
        rev_preds[label].append(VIRTUAL_EXIT)

    # Reverse postorder on the reversed graph from the virtual exit.
    visited = set()
    rpo: List[str] = []

    def visit(start: str) -> None:
        stack = [(start, iter(rev_succs[start]))]
        visited.add(start)
        while stack:
            current, successors = stack[-1]
            advanced = False
            for succ in successors:
                if succ not in visited:
                    visited.add(succ)
                    stack.append((succ, iter(rev_succs[succ])))
                    advanced = True
                    break
            if not advanced:
                rpo.append(current)
                stack.pop()

    visit(VIRTUAL_EXIT)
    rpo.reverse()
    return _compute(rpo, rev_preds, VIRTUAL_EXIT)
