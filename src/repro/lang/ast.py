"""AST for the analyzed language.

Nodes carry the source line they started on (``line``) so bug reports can
point back into the program text.  Expressions are arbitrarily nested in
the surface syntax; the lowering pass in :mod:`repro.ir.lower` flattens
them into the paper's three-address statement forms.

A parsed definition is a value: nothing edits a :class:`FuncDef`, or any
node under it, in place once it is built.  An edit is a new ``FuncDef``
(the daemon's ``/v1/edit`` parses one from the edited text, and
:func:`repro.core.incremental.apply_function_edit` splices it into a new
:class:`Program`).  So the facts derived from a definition -- its
fingerprint (:func:`repro.cache.keys.ast_fingerprint`) and its callees
(:func:`repro.ir.lower.called_names`) -- are computed on first use and
kept in its ``derived`` field for every later analysis of the same
object; a warm one-function edit derives them for that one function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------
@dataclass
class Expr:
    line: int = field(default=0, kw_only=True)


@dataclass
class Name(Expr):
    ident: str = ""


@dataclass
class Num(Expr):
    value: int = 0


@dataclass
class Unary(Expr):
    """Unary operation.

    ``op`` is one of ``-`` (negation), ``!`` (logical not), or ``*``
    (dereference).  Stacked dereferences parse into nested ``Unary('*')``
    nodes, realizing the paper's ``*(v, k)`` loads.
    """

    op: str = ""
    operand: Expr = None  # type: ignore[assignment]


@dataclass
class Binary(Expr):
    op: str = ""
    lhs: Expr = None  # type: ignore[assignment]
    rhs: Expr = None  # type: ignore[assignment]


@dataclass
class Call(Expr):
    callee: str = ""
    args: List[Expr] = field(default_factory=list)


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------
@dataclass
class Stmt:
    line: int = field(default=0, kw_only=True)


@dataclass
class AssignStmt(Stmt):
    target: str = ""
    value: Expr = None  # type: ignore[assignment]


@dataclass
class StoreStmt(Stmt):
    """``*(pointer, depth) = value`` — store through ``depth`` derefs."""

    pointer: Expr = None  # type: ignore[assignment]
    depth: int = 1
    value: Expr = None  # type: ignore[assignment]


@dataclass
class IfStmt(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    then_block: "Block" = None  # type: ignore[assignment]
    else_block: Optional["Block"] = None


@dataclass
class WhileStmt(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    body: "Block" = None  # type: ignore[assignment]


@dataclass
class ReturnStmt(Stmt):
    value: Optional[Expr] = None


@dataclass
class ExprStmt(Stmt):
    """An expression evaluated for effect — in practice, a call."""

    expr: Expr = None  # type: ignore[assignment]


@dataclass
class Block:
    stmts: List[Stmt] = field(default_factory=list)


# ----------------------------------------------------------------------
# Top level
# ----------------------------------------------------------------------
@dataclass
class FuncDef:
    name: str
    params: List[str]
    body: Block
    line: int = 0
    # Facts computed from this definition on first use (see the module
    # docstring); not part of the definition's content.
    derived: Dict[str, Any] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )


@dataclass
class Program:
    functions: List[FuncDef] = field(default_factory=list)

    def function(self, name: str) -> FuncDef:
        for func in self.functions:
            if func.name == name:
                return func
        raise KeyError(name)

    def line_count(self) -> int:
        """Number of statements, a proxy for lines of code."""

        def count_block(block: Block) -> int:
            total = 0
            for stmt in block.stmts:
                total += 1
                if isinstance(stmt, IfStmt):
                    total += count_block(stmt.then_block)
                    if stmt.else_block is not None:
                        total += count_block(stmt.else_block)
                elif isinstance(stmt, WhileStmt):
                    total += count_block(stmt.body)
            return total

        return sum(count_block(f.body) + 1 for f in self.functions)
