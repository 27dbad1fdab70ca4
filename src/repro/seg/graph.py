"""SEG data structure (paper Definition 3.2).

Vertices are identified by lightweight tuple keys:

- ``('def', var)`` — the unique SSA definition of ``var`` (the paper's
  abbreviation of ``v@s`` when ``v`` is defined at ``s``);
- ``('use', var, stmt_uid)`` — a use of ``var`` at a specific statement,
  needed to anchor sources and sinks (``c@free(c)``);
- ``('const', value, stmt_uid)`` — a constant operand occurrence;
- ``('op', stmt_uid)`` — an operator vertex representing the symbolic
  expression computed by the statement.

Edges:

- *data-dependence* edges carry a condition label (a Term; ``TRUE`` for
  unconditional dependence).  Copy-like edges (assignment, phi operand,
  memory load, use-at-statement) are marked ``is_copy`` — value-flow path
  search follows exactly these, while operator edges participate only in
  symbolic-expression/condition construction;
- *control-dependence* edges from a statement to the branch-condition
  variables governing it, labeled true/false.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.ir import cfg
from repro.smt.terms import Term

VertexKey = Tuple  # ('def', var) | ('use', var, uid) | ('const', val, uid) | ('op', uid)


def def_key(var: str) -> VertexKey:
    return ("def", var)


def use_key(var: str, stmt_uid: int) -> VertexKey:
    return ("use", var, stmt_uid)


def const_key(value: int, stmt_uid: int) -> VertexKey:
    return ("const", value, stmt_uid)


def op_key(stmt_uid: int) -> VertexKey:
    return ("op", stmt_uid)


def vertex_var(key: VertexKey) -> Optional[str]:
    """SSA variable named by a def/use vertex, None for const/op."""
    if key[0] in ("def", "use"):
        return key[1]
    return None


@dataclass
class DataEdge:
    src: VertexKey
    dst: VertexKey
    label: Term
    is_copy: bool = True


@dataclass
class SEG:
    """The symbolic expression graph of one (transformed, SSA) function."""

    function_name: str
    vertices: set = field(default_factory=set)
    # Data dependence, indexed both ways.
    out_edges: Dict[VertexKey, List[DataEdge]] = field(default_factory=dict)
    in_edges: Dict[VertexKey, List[DataEdge]] = field(default_factory=dict)
    # Control dependence: statement uid -> [(branch cond SSA var, taken)].
    control: Dict[int, List[Tuple[str, bool]]] = field(default_factory=dict)
    # Statement bookkeeping.
    instr_by_uid: Dict[int, cfg.Instr] = field(default_factory=dict)
    def_instr: Dict[str, cfg.Instr] = field(default_factory=dict)
    # Anchors populated by the builder, consumed by checkers/engine.
    call_sites: List[cfg.Call] = field(default_factory=list)
    return_instr: Optional[cfg.Ret] = None
    _edge_count: Optional[int] = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    def add_vertex(self, key: VertexKey) -> VertexKey:
        self.vertices.add(key)
        return key

    def add_data_edge(
        self, src: VertexKey, dst: VertexKey, label: Term, is_copy: bool = True
    ) -> None:
        self.add_vertex(src)
        self.add_vertex(dst)
        edge = DataEdge(src, dst, label, is_copy)
        self.out_edges.setdefault(src, []).append(edge)
        self.in_edges.setdefault(dst, []).append(edge)

    def copy_predecessors(self, key: VertexKey) -> Iterable[DataEdge]:
        for edge in self.in_edges.get(key, ()):  # noqa: B909
            if edge.is_copy:
                yield edge

    def edge_count(self) -> int:
        """Data edges, counted once: the builder counts the finished
        graph (a SEG from an older store entry counts on first use)."""
        if self._edge_count is None:
            self._edge_count = sum(map(len, self.out_edges.values()))
        return self._edge_count

    def vertex_count(self) -> int:
        return len(self.vertices)

    def statement_controls(self, stmt_uid: int) -> List[Tuple[str, bool]]:
        return self.control.get(stmt_uid, [])
