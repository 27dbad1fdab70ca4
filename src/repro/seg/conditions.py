"""Efficient path conditions over the SEG (paper Section 3.2.2).

The three constraint generators of the paper:

- ``DD(v)`` — the data-dependence constraint of a variable: for each
  incoming edge, the implication ``label => v == source``, recursively
  expanded through sources and label variables (Example 3.7);
- ``CD(v@s)`` — the control-dependence constraint of a statement: the
  branch literals governing it, plus the data dependence of the branch
  variables and the control dependence of their defining statements
  (Example 3.8);
- ``PC(π)`` — the path condition of a value-flow path, Equation (1).

All three return a :class:`Constraint` carrying the term plus the sets of
*unexpanded* dependencies written ``PC(·)^P_R`` in the paper:

- ``params``: function formal parameters (including Aux formal
  parameters) whose constraints live in callers and are recovered by
  Equation (3) when paths are stitched;
- ``receivers``: call-site receivers whose constraints live in callees
  and are recovered from RV summaries by Equation (2).

Recursion through loop-carried phis is cut off (the operand becomes
unconstrained), matching the paper's unroll-once treatment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.ir import cfg
from repro.seg.graph import SEG, VertexKey, def_key, vertex_var
from repro.smt import terms as T
from repro.smt.terms import Term

_EMPTY: FrozenSet[str] = frozenset()


@dataclass(frozen=True)
class Constraint:
    """A term plus its unexpanded parameter/receiver dependencies —
    the paper's ``PC(·)^P_R`` notation."""

    term: Term
    params: FrozenSet[str] = _EMPTY
    receivers: FrozenSet[str] = _EMPTY

    def conjoin(self, *others: "Constraint") -> "Constraint":
        terms = [self.term]
        params = set(self.params)
        receivers = set(self.receivers)
        for other in others:
            terms.append(other.term)
            params |= other.params
            receivers |= other.receivers
        return Constraint(T.and_(*terms), frozenset(params), frozenset(receivers))


TRUE_CONSTRAINT = Constraint(T.TRUE)


def ivar(name: str) -> Term:
    """Integer/pointer view of an SSA variable."""
    return T.int_var(name)


def bvar(name: str) -> Term:
    """Boolean view of an SSA variable (branch conditions, gates)."""
    return T.bool_var(name)


_COMPARISON_BUILDERS = {
    "==": T.eq,
    "!=": T.ne,
    "<": T.lt,
    "<=": T.le,
    ">": T.gt,
    ">=": T.ge,
}

_ARITH_BUILDERS = {"+": T.add, "-": T.sub, "*": T.mul}


class ConditionBuilder:
    """Computes DD/CD/PC over one function's SEG, with memoization."""

    def __init__(self, seg: SEG, function: cfg.Function) -> None:
        self.seg = seg
        self.function = function
        self._interface = set(function.params) | set(function.aux_params)
        self._dd_cache: Dict[str, Constraint] = {}
        self._dd_in_progress: set = set()
        self._cd_cache: Dict[int, Constraint] = {}
        self._cd_in_progress: set = set()
        self._pc_cache: Dict[Tuple[VertexKey, ...], Constraint] = {}

    # ------------------------------------------------------------------
    # Operand terms
    # ------------------------------------------------------------------
    def _operand_term(self, operand: cfg.Operand) -> Term:
        if isinstance(operand, cfg.Var):
            return ivar(operand.name)
        return T.const(operand.value)

    def _operand_dd(self, operand: cfg.Operand) -> Constraint:
        if isinstance(operand, cfg.Var):
            return self.dd(operand.name)
        return TRUE_CONSTRAINT

    def _condition_dd(self, condition: Term) -> Constraint:
        """DD of every variable occurring in an edge-label condition."""
        parts = [self.dd(name) for name in sorted(condition.variables())]
        return TRUE_CONSTRAINT.conjoin(*parts) if parts else TRUE_CONSTRAINT

    # ------------------------------------------------------------------
    # DD
    # ------------------------------------------------------------------
    def dd(self, var: str) -> Constraint:
        cached = self._dd_cache.get(var)
        if cached is not None:
            return cached
        if var in self._dd_in_progress:
            return TRUE_CONSTRAINT  # loop-carried: unroll-once cut
        self._dd_in_progress.add(var)
        try:
            result = self._compute_dd(var)
        finally:
            self._dd_in_progress.discard(var)
        self._dd_cache[var] = result
        return result

    def _compute_dd(self, var: str) -> Constraint:
        if var in self._interface:
            # Constraints of parameters are recovered by callers (Eq. 3).
            return Constraint(T.TRUE, frozenset((var,)))
        if var.endswith(".undef"):
            # A use on a path with no prior definition: reads as 0 (the
            # interpreter's semantics), so e.g. freeing it is a no-op.
            return Constraint(
                T.and_(
                    T.eq(ivar(var), T.const(0)),
                    T.iff(bvar(var), T.FALSE),
                )
            )
        instr = self.seg.def_instr.get(var)
        if instr is None:
            return TRUE_CONSTRAINT  # undefined / external
        if isinstance(instr, cfg.Assign):
            src_term = self._operand_term(instr.src)
            term = T.and_(
                T.eq(ivar(var), src_term),
                self._bool_link(var, instr.src),
            )
            return Constraint(term).conjoin(self._operand_dd(instr.src))
        if isinstance(instr, cfg.BinOp):
            return self._binop_dd(var, instr)
        if isinstance(instr, cfg.UnOp):
            return self._unop_dd(var, instr)
        if isinstance(instr, cfg.Phi):
            parts: List[Constraint] = []
            terms: List[Term] = []
            for index, (_, operand) in enumerate(instr.incomings):
                edges = [
                    e
                    for e in self.seg.in_edges.get(def_key(var), ())
                ]
                # Edge labels were attached in operand order at build time;
                # recompute from the graph for robustness.
                del edges
                gate = self._phi_gate(instr, index)
                if gate is T.FALSE:
                    continue
                src_term = self._operand_term(operand)
                terms.append(T.implies(gate, T.eq(ivar(var), src_term)))
                terms.append(
                    T.implies(gate, self._bool_link_term(var, operand))
                )
                parts.append(self._operand_dd(operand))
                parts.append(self._condition_dd(gate))
            return Constraint(T.and_(*terms)).conjoin(*parts)
        if isinstance(instr, cfg.Load):
            parts = []
            terms = []
            for edge in self.seg.in_edges.get(def_key(var), ()):  # noqa: B909
                src = edge.src
                if src[0] == "const":
                    src_term: Term = T.const(src[1])
                    src_dd = TRUE_CONSTRAINT
                    link = T.TRUE
                else:
                    name = vertex_var(src)
                    src_term = ivar(name)
                    src_dd = self.dd(name)
                    link = T.iff(bvar(var), bvar(name))
                terms.append(T.implies(edge.label, T.eq(ivar(var), src_term)))
                terms.append(T.implies(edge.label, link))
                parts.append(src_dd)
                parts.append(self._condition_dd(edge.label))
            return Constraint(T.and_(*terms)).conjoin(*parts)
        if isinstance(instr, cfg.Call):
            # Receiver: value range summarized in the callee (Eq. 2).
            return Constraint(T.TRUE, receivers=frozenset((var,)))
        if isinstance(instr, cfg.Malloc):
            # A fresh allocation is non-null.
            return Constraint(T.ne(ivar(var), T.const(0)))
        return TRUE_CONSTRAINT

    def _phi_gate(self, instr: cfg.Phi, index: int) -> Term:
        # Gate labels live on the SEG edges; recover by matching operand
        # order (edges are appended in operand order by the builder).
        edges = self.seg.in_edges.get(def_key(instr.dest), [])
        if index < len(edges):
            return edges[index].label
        return T.TRUE

    def _bool_link(self, var: str, operand: cfg.Operand) -> Term:
        return self._bool_link_term(var, operand)

    def _bool_link_term(self, var: str, operand: cfg.Operand) -> Term:
        """Keep the boolean view of a copied variable consistent with its
        source, so branch literals on either name agree."""
        if isinstance(operand, cfg.Var):
            return T.iff(bvar(var), bvar(operand.name))
        return T.iff(bvar(var), T.TRUE if operand.value else T.FALSE)

    def _binop_dd(self, var: str, instr: cfg.BinOp) -> Constraint:
        lhs = self._operand_term(instr.lhs)
        rhs = self._operand_term(instr.rhs)
        op = instr.op
        if op in _COMPARISON_BUILDERS:
            term = T.iff(bvar(var), _COMPARISON_BUILDERS[op](lhs, rhs))
        elif op in _ARITH_BUILDERS:
            value = _ARITH_BUILDERS[op](lhs, rhs)
            term = T.and_(
                T.eq(ivar(var), value),
                T.iff(bvar(var), T.ne(ivar(var), T.const(0))),
            )
        elif op == "&&":
            term = T.iff(
                bvar(var),
                T.and_(self._bool_view(instr.lhs), self._bool_view(instr.rhs)),
            )
        elif op == "||":
            term = T.iff(
                bvar(var),
                T.or_(self._bool_view(instr.lhs), self._bool_view(instr.rhs)),
            )
        else:  # division/modulo: uninterpreted
            term = T.TRUE
        return Constraint(term).conjoin(
            self._operand_dd(instr.lhs), self._operand_dd(instr.rhs)
        )

    def _unop_dd(self, var: str, instr: cfg.UnOp) -> Constraint:
        operand = instr.operand
        if instr.op == "!":
            term = T.iff(bvar(var), T.not_(self._bool_view(operand)))
        elif instr.op == "-":
            term = T.eq(ivar(var), T.neg(self._operand_term(operand)))
        else:
            term = T.TRUE
        return Constraint(term).conjoin(self._operand_dd(operand))

    def _bool_view(self, operand: cfg.Operand) -> Term:
        if isinstance(operand, cfg.Var):
            return bvar(operand.name)
        return T.TRUE if operand.value else T.FALSE

    # ------------------------------------------------------------------
    # CD
    # ------------------------------------------------------------------
    def cd(self, stmt_uid: int) -> Constraint:
        cached = self._cd_cache.get(stmt_uid)
        if cached is not None:
            return cached
        if stmt_uid in self._cd_in_progress:
            return TRUE_CONSTRAINT
        self._cd_in_progress.add(stmt_uid)
        try:
            result = self._compute_cd(stmt_uid)
        finally:
            self._cd_in_progress.discard(stmt_uid)
        self._cd_cache[stmt_uid] = result
        return result

    def _compute_cd(self, stmt_uid: int) -> Constraint:
        controls = self.seg.statement_controls(stmt_uid)
        if not controls:
            return TRUE_CONSTRAINT
        terms: List[Term] = []
        parts: List[Constraint] = []
        for cond_var, taken in controls:
            literal = bvar(cond_var) if taken else T.not_(bvar(cond_var))
            terms.append(literal)
            parts.append(self.dd(cond_var))
            # Recursive control dependence of the branch variable's
            # defining statement (Example 3.8: CD chains θ4 -> θ3).
            def_instr = self.seg.def_instr.get(cond_var)
            if def_instr is not None:
                parts.append(self.cd(def_instr.uid))
        return Constraint(T.and_(*terms)).conjoin(*parts)

    # ------------------------------------------------------------------
    # PC (Equation 1)
    # ------------------------------------------------------------------
    def pc(self, path: Sequence[VertexKey]) -> Constraint:
        """Path condition of a local value-flow path in this SEG.

        ``path`` is a sequence of def/use vertex keys; consecutive
        vertices must be connected by copy edges (or name the same
        variable at def/use anchors).

        Memoized by the path: PC depends only on the SEG and on DD/CD,
        whose memos a first call for the path has already filled, so a
        repeat call would return the same constraint.
        """
        key = tuple(path)
        cached = self._pc_cache.get(key)
        if cached is None:
            cached = self._pc_cache.setdefault(key, self._compute_pc(key))
        return cached

    def _compute_pc(self, path: Sequence[VertexKey]) -> Constraint:
        parts: List[Constraint] = []
        terms: List[Term] = []
        previous: Optional[VertexKey] = None
        for vertex in path:
            var = vertex_var(vertex)
            stmt_uid = self._anchor_stmt(vertex)
            if stmt_uid is not None:
                parts.append(self.cd(stmt_uid))
            if previous is not None:
                prev_var = vertex_var(previous)
                label, is_copy = self._edge_info(previous, vertex)
                # The v_{i-1} == v_i equation of Eq. (1) holds only for
                # copy edges; a hop through an operator vertex (taint
                # through arithmetic) transforms the value.
                if (
                    is_copy
                    and prev_var is not None
                    and var is not None
                    and prev_var != var
                ):
                    terms.append(T.eq(ivar(prev_var), ivar(var)))
                if label is not None and label is not T.TRUE:
                    terms.append(label)
                    parts.append(self._condition_dd(label))
            previous = vertex
        return Constraint(T.and_(*terms)).conjoin(*parts)

    def _anchor_stmt(self, vertex: VertexKey) -> Optional[int]:
        if vertex[0] == "use":
            return vertex[2]
        if vertex[0] == "def":
            instr = self.seg.def_instr.get(vertex[1])
            return instr.uid if instr is not None else None
        return None

    def _edge_info(self, src: VertexKey, dst: VertexKey):
        """(label, is_copy) of the edge src -> dst; no edge means a jump
        the search made through an operator or summary (label None, and
        treated as a non-copy transition)."""
        for edge in self.seg.in_edges.get(dst, ()):  # noqa: B909
            if edge.src == src:
                return edge.label, edge.is_copy
        return None, False
