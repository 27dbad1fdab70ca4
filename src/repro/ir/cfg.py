"""CFG data structures and three-address instructions.

Instruction forms mirror the paper's language (Section 3):

===================  =========================================
Paper statement      IR instruction
===================  =========================================
``v1 <- v2``         :class:`Assign`
``v <- phi(...)``    :class:`Phi` (after SSA construction)
``v1 <- v2 op v3``   :class:`BinOp`
``v1 <- op v2``      :class:`UnOp`
``v1 <- *(v2, k)``   :class:`Load`
``*(v1, k) <- v2``   :class:`Store`
``if/else``          :class:`Branch` terminator
``return v``         :class:`Ret` terminator
``r <- call f(...)`` :class:`Call` (also used for intrinsics)
===================  =========================================

Heap allocation (``malloc``) gets its own instruction, :class:`Malloc`,
because allocation sites are the abstract memory objects of the points-to
analysis.  Every instruction has a process-unique ``uid`` used as the
statement identity ``s`` in SEG vertices ``v@s``.
"""

from __future__ import annotations

import contextlib
import itertools
from typing import Dict, Iterable, List, Optional, Tuple, Union

_UID = itertools.count(1)
_SCOPED: Optional["itertools.count"] = None


def fresh_uid() -> int:
    if _SCOPED is not None:
        return next(_SCOPED)
    return next(_UID)


@contextlib.contextmanager
def scoped_uids(start: int = 1):
    """Allocate uids from a fresh local counter inside the block.

    Per-function preparation runs under this scope so a function's
    instruction uids depend only on its own lowering sequence — not on
    which process (or in what order) prepared it.  Uid-derived names
    (``loop.<uid>.<pred>`` gate variables, SEG vertex identities) then
    come out identical in serial, parallel, and cache-warmed runs.

    Uids stay unique *within* a function; across functions they may
    collide, which the engine tolerates by construction: uids key only
    per-function structures (SEG vertices, positions, call sites), and
    conditions crossing a call boundary are context-renamed.  Nesting is
    not reentrant — the scope is per prepared function.
    """
    global _SCOPED
    previous = _SCOPED
    _SCOPED = itertools.count(start)
    try:
        yield
    finally:
        _SCOPED = previous


class Var:
    """A named program variable operand."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Var) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("var", self.name))

    def __repr__(self) -> str:
        return self.name


class Const:
    """An integer constant operand (``null`` is ``Const(0)``)."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Const) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("const", self.value))

    def __repr__(self) -> str:
        return str(self.value)


Operand = Union[Var, Const]


class Instr:
    """Base instruction.  ``uid`` identifies the statement; ``line`` maps
    back to the surface program.  ``synthetic`` marks instructions the
    connector transformation inserted — they model side effects but do
    not correspond to a dereference the programmer wrote, so checkers
    never treat them as sinks."""

    __slots__ = ("uid", "line", "block", "synthetic")

    def __init__(self, line: int = 0) -> None:
        self.uid = fresh_uid()
        self.line = line
        self.block: Optional[str] = None  # label, set when placed
        self.synthetic = False

    def defined_var(self) -> Optional[str]:
        return None

    def used_operands(self) -> List[Operand]:
        return []

    def used_vars(self) -> List[str]:
        return [op.name for op in self.used_operands() if isinstance(op, Var)]

    def replace_uses(self, mapping: Dict[str, Operand]) -> None:
        """Replace variable uses in place (used by SSA renaming)."""


class Assign(Instr):
    __slots__ = ("dest", "src")

    def __init__(self, dest: str, src: Operand, line: int = 0) -> None:
        super().__init__(line)
        self.dest = dest
        self.src = src

    def defined_var(self) -> Optional[str]:
        return self.dest

    def used_operands(self) -> List[Operand]:
        return [self.src]

    def replace_uses(self, mapping: Dict[str, Operand]) -> None:
        self.src = _subst(self.src, mapping)

    def __repr__(self) -> str:
        return f"{self.dest} = {self.src}"


class BinOp(Instr):
    __slots__ = ("dest", "op", "lhs", "rhs")

    def __init__(self, dest: str, op: str, lhs: Operand, rhs: Operand, line: int = 0) -> None:
        super().__init__(line)
        self.dest = dest
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    def defined_var(self) -> Optional[str]:
        return self.dest

    def used_operands(self) -> List[Operand]:
        return [self.lhs, self.rhs]

    def replace_uses(self, mapping: Dict[str, Operand]) -> None:
        self.lhs = _subst(self.lhs, mapping)
        self.rhs = _subst(self.rhs, mapping)

    def __repr__(self) -> str:
        return f"{self.dest} = {self.lhs} {self.op} {self.rhs}"


class UnOp(Instr):
    __slots__ = ("dest", "op", "operand")

    def __init__(self, dest: str, op: str, operand: Operand, line: int = 0) -> None:
        super().__init__(line)
        self.dest = dest
        self.op = op
        self.operand = operand

    def defined_var(self) -> Optional[str]:
        return self.dest

    def used_operands(self) -> List[Operand]:
        return [self.operand]

    def replace_uses(self, mapping: Dict[str, Operand]) -> None:
        self.operand = _subst(self.operand, mapping)

    def __repr__(self) -> str:
        return f"{self.dest} = {self.op}{self.operand}"


class Load(Instr):
    """``dest = *(pointer, depth)``"""

    __slots__ = ("dest", "pointer", "depth")

    def __init__(self, dest: str, pointer: Var, depth: int = 1, line: int = 0) -> None:
        super().__init__(line)
        self.dest = dest
        self.pointer = pointer
        self.depth = depth

    def defined_var(self) -> Optional[str]:
        return self.dest

    def used_operands(self) -> List[Operand]:
        return [self.pointer]

    def replace_uses(self, mapping: Dict[str, Operand]) -> None:
        replaced = _subst(self.pointer, mapping)
        assert isinstance(replaced, Var)
        self.pointer = replaced

    def __repr__(self) -> str:
        return f"{self.dest} = {'*' * self.depth}{self.pointer}"


class Store(Instr):
    """``*(pointer, depth) = value``"""

    __slots__ = ("pointer", "depth", "value")

    def __init__(self, pointer: Var, depth: int, value: Operand, line: int = 0) -> None:
        super().__init__(line)
        self.pointer = pointer
        self.depth = depth
        self.value = value

    def used_operands(self) -> List[Operand]:
        return [self.pointer, self.value]

    def replace_uses(self, mapping: Dict[str, Operand]) -> None:
        pointer = _subst(self.pointer, mapping)
        assert isinstance(pointer, Var)
        self.pointer = pointer
        self.value = _subst(self.value, mapping)

    def __repr__(self) -> str:
        return f"{'*' * self.depth}{self.pointer} = {self.value}"


class Malloc(Instr):
    """``dest = malloc()`` — a fresh abstract heap object per site."""

    __slots__ = ("dest",)

    def __init__(self, dest: str, line: int = 0) -> None:
        super().__init__(line)
        self.dest = dest

    def defined_var(self) -> Optional[str]:
        return self.dest

    def __repr__(self) -> str:
        return f"{self.dest} = malloc()  ; site {self.uid}"


class Call(Instr):
    """``dest = callee(args)``; ``dest`` may be None for call statements.

    ``extra_receivers`` holds the Aux-return-value receivers added by the
    connector transformation (Fig. 3(b) of the paper).
    """

    __slots__ = ("dest", "callee", "args", "extra_receivers")

    def __init__(
        self,
        dest: Optional[str],
        callee: str,
        args: List[Operand],
        line: int = 0,
    ) -> None:
        super().__init__(line)
        self.dest = dest
        self.callee = callee
        self.args = list(args)
        self.extra_receivers: List[str] = []

    def defined_var(self) -> Optional[str]:
        return self.dest

    def all_receivers(self) -> List[str]:
        receivers = [] if self.dest is None else [self.dest]
        return receivers + self.extra_receivers

    def used_operands(self) -> List[Operand]:
        return list(self.args)

    def replace_uses(self, mapping: Dict[str, Operand]) -> None:
        self.args = [_subst(a, mapping) for a in self.args]

    def __repr__(self) -> str:
        prefix = f"{self.dest} = " if self.dest else ""
        extra = f" [+{','.join(self.extra_receivers)}]" if self.extra_receivers else ""
        return f"{prefix}{self.callee}({', '.join(map(repr, self.args))}){extra}"


class Phi(Instr):
    __slots__ = ("dest", "incomings")

    def __init__(self, dest: str, incomings: List[Tuple[str, Operand]], line: int = 0) -> None:
        super().__init__(line)
        self.dest = dest
        self.incomings = list(incomings)  # (pred block label, operand)

    def defined_var(self) -> Optional[str]:
        return self.dest

    def used_operands(self) -> List[Operand]:
        return [op for _, op in self.incomings]

    def __repr__(self) -> str:
        parts = ", ".join(f"{label}: {op!r}" for label, op in self.incomings)
        return f"{self.dest} = phi({parts})"


# ----------------------------------------------------------------------
# Terminators
# ----------------------------------------------------------------------
class Branch(Instr):
    __slots__ = ("cond", "then_label", "else_label")

    def __init__(self, cond: Operand, then_label: str, else_label: str, line: int = 0) -> None:
        super().__init__(line)
        self.cond = cond
        self.then_label = then_label
        self.else_label = else_label

    def used_operands(self) -> List[Operand]:
        return [self.cond]

    def replace_uses(self, mapping: Dict[str, Operand]) -> None:
        self.cond = _subst(self.cond, mapping)

    def __repr__(self) -> str:
        return f"br {self.cond!r} ? {self.then_label} : {self.else_label}"


class Jump(Instr):
    __slots__ = ("target",)

    def __init__(self, target: str, line: int = 0) -> None:
        super().__init__(line)
        self.target = target

    def __repr__(self) -> str:
        return f"jmp {self.target}"


class Ret(Instr):
    __slots__ = ("value", "extra_values")

    def __init__(self, value: Optional[Operand], line: int = 0) -> None:
        super().__init__(line)
        self.value = value
        # Aux return values added by the connector transformation.
        self.extra_values: List[Operand] = []

    def used_operands(self) -> List[Operand]:
        ops = [] if self.value is None else [self.value]
        return ops + list(self.extra_values)

    def replace_uses(self, mapping: Dict[str, Operand]) -> None:
        if self.value is not None:
            self.value = _subst(self.value, mapping)
        self.extra_values = [_subst(v, mapping) for v in self.extra_values]

    def __repr__(self) -> str:
        extra = f" [+{','.join(map(repr, self.extra_values))}]" if self.extra_values else ""
        return f"ret {self.value!r}{extra}"


def _subst(op: Operand, mapping: Dict[str, Operand]) -> Operand:
    if isinstance(op, Var):
        return mapping.get(op.name, op)
    return op


# ----------------------------------------------------------------------
# Blocks and functions
# ----------------------------------------------------------------------
class Block:
    """A basic block: phis, straight-line instructions, one terminator."""

    def __init__(self, label: str) -> None:
        self.label = label
        self.phis: List[Phi] = []
        self.instrs: List[Instr] = []
        self.terminator: Optional[Instr] = None
        self.preds: List[str] = []
        self.succs: List[str] = []

    def all_instrs(self) -> Iterable[Instr]:
        yield from self.phis
        yield from self.instrs
        if self.terminator is not None:
            yield self.terminator

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        lines = [f"{self.label}:"]
        for instr in self.all_instrs():
            lines.append(f"  {instr!r}")
        return "\n".join(lines)


class Function:
    """A function as a CFG.  ``params`` are variable names; after SSA they
    carry version suffixes (``a.0``)."""

    # Reverse postorder, computed on first use and dropped whenever a
    # block or an edge is added (after lowering, nothing adds either).
    # A class-level default, so Functions pickled without it still load;
    # never pickled itself (``__getstate__``).
    _block_order: Optional[Tuple[str, ...]] = None

    def __init__(self, name: str, params: List[str]) -> None:
        self.name = name
        self.params = list(params)
        self.blocks: Dict[str, Block] = {}
        self.entry = "entry"
        self.is_ssa = False
        self._label_counter = 0
        # Aux formal parameters / return value names added by the
        # connector transformation, in interface order.
        self.aux_params: List[str] = []
        self.aux_returns: List[str] = []

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_block_order", None)
        return state

    def new_block(self, hint: str = "bb") -> Block:
        self._label_counter += 1
        label = f"{hint}{self._label_counter}"
        block = Block(label)
        self.blocks[label] = block
        self._block_order = None
        return block

    def add_edge(self, src: str, dst: str) -> None:
        self.blocks[src].succs.append(dst)
        self.blocks[dst].preds.append(src)
        self._block_order = None

    def remove_block(self, label: str) -> None:
        """Delete a block that no edge reaches."""
        del self.blocks[label]
        self._block_order = None

    def block_order(self) -> Tuple[str, ...]:
        """Reverse postorder from the entry block, computed once."""
        if self._block_order is None:
            self._block_order = self._reverse_postorder()
        return self._block_order

    def _reverse_postorder(self) -> Tuple[str, ...]:
        visited = set()
        order: List[str] = []

        def visit(label: str) -> None:
            stack = [(label, iter(self.blocks[label].succs))]
            visited.add(label)
            while stack:
                current, successors = stack[-1]
                advanced = False
                for succ in successors:
                    if succ not in visited:
                        visited.add(succ)
                        stack.append((succ, iter(self.blocks[succ].succs)))
                        advanced = True
                        break
                if not advanced:
                    order.append(current)
                    stack.pop()

        visit(self.entry)
        order.reverse()
        return tuple(order)

    def all_instrs(self) -> Iterable[Instr]:
        for label in self.block_order():
            yield from self.blocks[label].all_instrs()

    def instr_count(self) -> int:
        return sum(1 for _ in self.all_instrs())

    def return_instrs(self) -> List[Ret]:
        return [
            block.terminator
            for block in self.blocks.values()
            if isinstance(block.terminator, Ret)
        ]

    def format(self) -> str:
        lines = [f"fn {self.name}({', '.join(self.params + self.aux_params)})"]
        for label in self.block_order():
            lines.append(repr(self.blocks[label]))
        return "\n".join(lines)


class Module:
    """A program as a set of lowered functions."""

    def __init__(self) -> None:
        self.functions: Dict[str, Function] = {}

    def add(self, function: Function) -> None:
        self.functions[function.name] = function

    def __getitem__(self, name: str) -> Function:
        return self.functions[name]

    def __contains__(self, name: str) -> bool:
        return name in self.functions

    def __iter__(self):
        return iter(self.functions.values())

    def instr_count(self) -> int:
        return sum(f.instr_count() for f in self.functions.values())
