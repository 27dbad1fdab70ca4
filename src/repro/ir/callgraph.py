"""Call graph construction and bottom-up ordering.

Pinpoint analyzes functions bottom-up (callees before callers, Section 2),
so callee SEGs and summaries exist when a caller is processed.  Calls are
syntactic (the language has no function pointers), so the edges are read
off the AST by :func:`repro.ir.lower.called_names`.  Recursive cycles are
collapsed into SCCs (Tarjan); within an SCC we follow the paper's soundy
policy of unrolling call-graph cycles once — calls to functions in the
same SCC are treated as external calls (no summary) on the second
encounter.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Set

from repro.ir.lower import called_names
from repro.lang import ast


class CallGraph:
    """``callees`` maps each defined function to the defined functions it
    calls; Tarjan runs once, for ``sccs()`` and each function's index in
    it, ``scc_of``.  A later definition of a name replaces an earlier one."""

    def __init__(self, program: ast.Program) -> None:
        functions = {func.name: func for func in program.functions}
        self.callees: Dict[str, Set[str]] = {
            name: called_names(func) & functions.keys()
            for name, func in functions.items()
        }
        self._sccs = _tarjan(self.callees)
        self.scc_of: Dict[str, int] = {
            member: index for index, scc in enumerate(self._sccs) for member in scc
        }

    def sccs(self) -> List[List[str]]:
        """Tarjan SCCs in reverse topological (bottom-up) order."""
        return self._sccs

    def bottom_up_order(self) -> List[str]:
        """Function names, callees before callers."""
        return [name for scc in self._sccs for name in sorted(scc)]

    @cached_property
    def callers(self) -> Dict[str, Set[str]]:
        """Each defined function's defined callers, the reverse of
        ``callees``; built on first use."""
        callers: Dict[str, Set[str]] = {name: set() for name in self.callees}
        for name, targets in self.callees.items():
            for callee in targets:
                callers[callee].add(name)
        return callers


def _tarjan(callees: Dict[str, Set[str]]) -> List[List[str]]:
    """Tarjan SCCs of ``callees`` in reverse topological order; nodes and
    successors are visited in sorted order, so the result is reproducible."""
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    stack: List[str] = []
    on_stack: Set[str] = set()
    result: List[List[str]] = []

    def visit(node: str):
        index[node] = lowlink[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        return node, iter(sorted(callees[node]))

    for root in sorted(callees):
        if root in index:
            continue
        # Iterative, to survive deep synthetic call chains.
        work = [visit(root)]
        while work:
            current, successors = work[-1]
            for succ in successors:
                if succ not in index:
                    work.append(visit(succ))
                    break
                if succ in on_stack:
                    lowlink[current] = min(lowlink[current], index[succ])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[current])
                if lowlink[current] == index[current]:
                    scc = []
                    while True:
                        member = stack.pop()
                        on_stack.remove(member)
                        scc.append(member)
                        if member == current:
                            break
                    result.append(scc)
    return result
