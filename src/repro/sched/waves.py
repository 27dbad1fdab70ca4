"""Call-graph condensation into waves.

A function's stage 1-3 artifacts depend only on its own AST plus the
connector signatures of its (non-recursive) callees, so once every
callee SCC is prepared, every SCC whose dependencies are satisfied can
be prepared next.

``scc_waves`` reads the call graph's one SCC condensation (Tarjan SCCs,
computed bottom-up once by :class:`~repro.ir.callgraph.CallGraph`) and
assigns each SCC a *wave*: ``wave(S) = 1 + max(wave(T) for callee SCCs
T)``, leaves at wave 0.  Every function in wave *k* can be prepared as
soon as waves ``< k`` are published — that is the wave barrier.

Determinism: SCCs within a wave keep their bottom-up (Tarjan) order and
members within an SCC are sorted, so flattening the waves visits
functions in a reproducible order.  This *wave order* is only the
preparation order; the prepared module always presents functions in the
exact serial ``bottom_up_order``, so downstream passes (and reports)
do not depend on it.
"""

from __future__ import annotations

from typing import Dict, List

from repro.ir.callgraph import CallGraph


def scc_waves(callgraph: CallGraph) -> List[List[List[str]]]:
    """Waves of SCCs: ``waves[k]`` lists the SCCs whose callee SCCs all
    live in waves ``< k``.  Each SCC is a sorted list of member names."""
    sccs = callgraph.sccs()  # bottom-up: callees before callers
    level: Dict[int, int] = {}
    for index, scc in enumerate(sccs):
        depth = 0
        for member in scc:
            for callee in callgraph.callees[member]:
                target = callgraph.scc_of[callee]
                if target != index:  # a same-SCC call is recursion
                    # Bottom-up order guarantees callee SCCs come earlier.
                    depth = max(depth, level[target] + 1)
        level[index] = depth

    if not sccs:
        return []
    waves: List[List[List[str]]] = [[] for _ in range(max(level.values()) + 1)]
    for index, scc in enumerate(sccs):
        waves[level[index]].append(sorted(scc))
    return waves


def wave_sizes(waves: List[List[List[str]]]) -> List[int]:
    """Functions per wave (for metrics and the docs' examples)."""
    return [sum(len(scc) for scc in wave) for wave in waves]
