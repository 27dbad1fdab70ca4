"""Lowering from the AST to the CFG three-address IR.

Nested expressions are flattened into temporaries (``%t1``, ``%t2``, ...)
so every IR instruction matches one of the paper's statement forms.
Short-circuit ``&&``/``||`` are lowered arithmetically (operands are
evaluated eagerly); this matches the paper's language, which has plain
binary operations rather than short-circuit control flow.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Set

from repro.lang import ast
from repro.ir import cfg

# Intrinsic callee names with dedicated IR instructions or roles.
MALLOC_NAMES = frozenset({"malloc", "calloc", "alloc", "new_object"})


class LoweringError(Exception):
    pass


class _FunctionLowerer:
    def __init__(self, func_ast: ast.FuncDef) -> None:
        self._ast = func_ast
        self.function = cfg.Function(func_ast.name, list(func_ast.params))
        entry = cfg.Block("entry")
        self.function.blocks["entry"] = entry
        self._current: Optional[cfg.Block] = entry
        self._temp_counter = 0

    # ------------------------------------------------------------------
    def lower(self) -> cfg.Function:
        self._lower_block(self._ast.body)
        # Guarantee a single return statement form: functions that fall off
        # the end return 0; multiple returns are merged via a return block.
        self._normalize_returns()
        return self.function

    # ------------------------------------------------------------------
    def _fresh_temp(self) -> str:
        self._temp_counter += 1
        return f"%t{self._temp_counter}"

    def _emit(self, instr: cfg.Instr) -> None:
        if self._current is None:
            return  # unreachable code after return
        instr.block = self._current.label
        self._current.instrs.append(instr)

    def _terminate(self, instr: cfg.Instr) -> None:
        if self._current is None:
            return
        instr.block = self._current.label
        self._current.terminator = instr
        self._current = None

    def _start_block(self, block: cfg.Block) -> None:
        self._current = block

    # ------------------------------------------------------------------
    def _lower_block(self, block: ast.Block) -> None:
        for stmt in block.stmts:
            self._lower_stmt(stmt)

    def _lower_stmt(self, stmt: ast.Stmt) -> None:
        if self._current is None:
            return  # dead code after return
        if isinstance(stmt, ast.AssignStmt):
            self._lower_assign(stmt)
        elif isinstance(stmt, ast.StoreStmt):
            self._lower_store(stmt)
        elif isinstance(stmt, ast.IfStmt):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.WhileStmt):
            self._lower_while(stmt)
        elif isinstance(stmt, ast.ReturnStmt):
            value = None if stmt.value is None else self._lower_operand(stmt.value)
            self._terminate(cfg.Ret(value, line=stmt.line))
        elif isinstance(stmt, ast.ExprStmt):
            self._lower_expr_for_effect(stmt.expr)
        else:  # pragma: no cover - parser produces no other forms
            raise LoweringError(f"unknown statement {stmt!r}")

    def _lower_assign(self, stmt: ast.AssignStmt) -> None:
        value = self._lower_expr_into(stmt.value, stmt.target)
        if value is not None:
            self._emit(cfg.Assign(stmt.target, value, line=stmt.line))

    def _lower_store(self, stmt: ast.StoreStmt) -> None:
        pointer = self._lower_operand(stmt.pointer)
        if not isinstance(pointer, cfg.Var):
            raise LoweringError(f"line {stmt.line}: store through a constant")
        value = self._lower_operand(stmt.value)
        self._emit(cfg.Store(pointer, stmt.depth, value, line=stmt.line))

    def _lower_if(self, stmt: ast.IfStmt) -> None:
        # Peel top-level negations by swapping the branch arms instead of
        # materializing a `!cond` temporary.  This keeps contradictory
        # branches (`if (t) ... if (!t) ...`) expressed over the *same*
        # condition variable, which is what lets the linear-time solver
        # catch them as syntactic a & !a contradictions (paper §3.1.1).
        cond_expr = stmt.cond
        negated = False
        while isinstance(cond_expr, ast.Unary) and cond_expr.op == "!":
            cond_expr = cond_expr.operand
            negated = not negated
        cond = self._lower_operand(cond_expr, want_var=True)
        assert isinstance(cond, cfg.Var)
        func = self.function
        then_block = func.new_block("then")
        join_block = func.new_block("join")
        else_block = func.new_block("else") if stmt.else_block else join_block
        branch_src = self._current.label
        if negated:
            branch = cfg.Branch(cond, else_block.label, then_block.label, line=stmt.line)
        else:
            branch = cfg.Branch(cond, then_block.label, else_block.label, line=stmt.line)
        self._terminate(branch)
        func.add_edge(branch_src, then_block.label)
        func.add_edge(branch_src, else_block.label)

        self._start_block(then_block)
        self._lower_block(stmt.then_block)
        if self._current is not None:
            src = self._current.label
            self._terminate(cfg.Jump(join_block.label, line=stmt.line))
            func.add_edge(src, join_block.label)

        if stmt.else_block:
            self._start_block(else_block)
            self._lower_block(stmt.else_block)
            if self._current is not None:
                src = self._current.label
                self._terminate(cfg.Jump(join_block.label, line=stmt.line))
                func.add_edge(src, join_block.label)

        if join_block.preds:
            self._start_block(join_block)
        else:
            # Both arms returned; the join block is unreachable.
            func.remove_block(join_block.label)
            self._current = None

    def _lower_while(self, stmt: ast.WhileStmt) -> None:
        func = self.function
        header = func.new_block("loop")
        body = func.new_block("body")
        exit_block = func.new_block("exit")
        src = self._current.label
        self._terminate(cfg.Jump(header.label, line=stmt.line))
        func.add_edge(src, header.label)

        self._start_block(header)
        cond = self._lower_operand(stmt.cond, want_var=True)
        assert isinstance(cond, cfg.Var)
        self._terminate(cfg.Branch(cond, body.label, exit_block.label, line=stmt.line))
        func.add_edge(header.label, body.label)
        func.add_edge(header.label, exit_block.label)

        self._start_block(body)
        self._lower_block(stmt.body)
        if self._current is not None:
            src = self._current.label
            self._terminate(cfg.Jump(header.label, line=stmt.line))
            func.add_edge(src, header.label)  # back edge

        self._start_block(exit_block)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _lower_expr_into(self, expr: ast.Expr, dest: str) -> Optional[cfg.Operand]:
        """Lower ``expr`` writing the result to ``dest`` when an
        instruction form allows it directly; otherwise return an operand
        for the caller to Assign.  Returns None when already written."""
        if isinstance(expr, ast.Binary) and expr.op not in ("&&", "||"):
            lhs = self._lower_operand(expr.lhs)
            rhs = self._lower_operand(expr.rhs)
            self._emit(cfg.BinOp(dest, expr.op, lhs, rhs, line=expr.line))
            return None
        if isinstance(expr, ast.Unary):
            if expr.op == "*":
                pointer, depth = self._collapse_deref(expr)
                self._emit(cfg.Load(dest, pointer, depth, line=expr.line))
                return None
            operand = self._lower_operand(expr.operand)
            self._emit(cfg.UnOp(dest, expr.op, operand, line=expr.line))
            return None
        if isinstance(expr, ast.Binary):  # && and ||
            lhs = self._lower_operand(expr.lhs)
            rhs = self._lower_operand(expr.rhs)
            self._emit(cfg.BinOp(dest, expr.op, lhs, rhs, line=expr.line))
            return None
        if isinstance(expr, ast.Call):
            if expr.callee in MALLOC_NAMES:
                for arg in expr.args:
                    self._lower_operand(arg)  # evaluate, discard
                self._emit(cfg.Malloc(dest, line=expr.line))
                return None
            args = [self._lower_operand(a) for a in expr.args]
            self._emit(cfg.Call(dest, expr.callee, args, line=expr.line))
            return None
        return self._lower_operand(expr)

    def _lower_expr_for_effect(self, expr: ast.Expr) -> None:
        if isinstance(expr, ast.Call) and expr.callee not in MALLOC_NAMES:
            args = [self._lower_operand(a) for a in expr.args]
            self._emit(cfg.Call(None, expr.callee, args, line=expr.line))
            return
        # An allocation evaluates its arguments, as `q = malloc(...)` does.
        self._lower_operand(expr)

    def _lower_operand(self, expr: ast.Expr, want_var: bool = False) -> cfg.Operand:
        """Lower ``expr`` to an operand, emitting temporaries as needed."""
        if isinstance(expr, ast.Name):
            return cfg.Var(expr.ident)
        if isinstance(expr, ast.Num):
            if want_var:
                temp = self._fresh_temp()
                self._emit(cfg.Assign(temp, cfg.Const(expr.value), line=expr.line))
                return cfg.Var(temp)
            return cfg.Const(expr.value)
        temp = self._fresh_temp()
        leftover = self._lower_expr_into(expr, temp)
        if leftover is not None:
            self._emit(cfg.Assign(temp, leftover, line=expr.line))
        return cfg.Var(temp)

    def _collapse_deref(self, expr: ast.Unary):
        """Collapse stacked ``*`` into (pointer var, depth)."""
        depth = 0
        inner: ast.Expr = expr
        while isinstance(inner, ast.Unary) and inner.op == "*":
            depth += 1
            inner = inner.operand
        pointer = self._lower_operand(inner, want_var=True)
        assert isinstance(pointer, cfg.Var)
        return pointer, depth

    # ------------------------------------------------------------------
    def _normalize_returns(self) -> None:
        """Give every function exactly one Ret (the paper assumes one
        return statement per function) and terminate dangling blocks."""
        func = self.function
        if self._current is not None:
            self._terminate(cfg.Ret(cfg.Const(0)))
        rets = [
            block
            for block in func.blocks.values()
            if isinstance(block.terminator, cfg.Ret)
        ]
        if len(rets) <= 1:
            return
        unified = func.new_block("ret")
        result = "%ret"
        for block in rets:
            old = block.terminator
            assert isinstance(old, cfg.Ret)
            value = old.value if old.value is not None else cfg.Const(0)
            assign = cfg.Assign(result, value, line=old.line)
            assign.block = block.label
            block.instrs.append(assign)
            jump = cfg.Jump(unified.label, line=old.line)
            jump.block = block.label
            block.terminator = jump
            func.add_edge(block.label, unified.label)
        ret = cfg.Ret(cfg.Var(result))
        ret.block = unified.label
        unified.terminator = ret


def lower_function(func_ast: ast.FuncDef) -> cfg.Function:
    return _FunctionLowerer(func_ast).lower()


def called_names(func_ast: ast.FuncDef) -> FrozenSet[str]:
    """Callee names of the ``Call`` instructions ``lower_function`` emits
    for ``func_ast``, read off the AST.  The lowerer's reachability rule
    applies: nothing after a ``return``, or after an ``if`` whose arms
    both return, is lowered; code after a loop whose body returns stays
    live.  An allocation lowers to ``Malloc``: only its arguments count.

    Walked once per definition object and kept in ``func_ast.derived``
    (definitions are values, see :mod:`repro.lang.ast`)."""
    names = func_ast.derived.get("callees")
    if names is None:
        names = func_ast.derived["callees"] = _walk_called_names(func_ast)
    return names


def _walk_called_names(func_ast: ast.FuncDef) -> FrozenSet[str]:
    names: Set[str] = set()

    def walk(expr: Optional[ast.Expr]) -> None:
        if isinstance(expr, ast.Call):
            if expr.callee not in MALLOC_NAMES:
                names.add(expr.callee)
            for arg in expr.args:
                walk(arg)
        elif isinstance(expr, ast.Unary):
            walk(expr.operand)
        elif isinstance(expr, ast.Binary):
            walk(expr.lhs)
            walk(expr.rhs)

    def falls_through(block: ast.Block) -> bool:
        for stmt in block.stmts:
            if isinstance(stmt, ast.IfStmt):
                walk(stmt.cond)
                then_live = falls_through(stmt.then_block)
                if stmt.else_block is not None and not (
                    falls_through(stmt.else_block) or then_live
                ):
                    return False
            elif isinstance(stmt, ast.WhileStmt):
                walk(stmt.cond)
                falls_through(stmt.body)
            elif isinstance(stmt, ast.StoreStmt):
                walk(stmt.pointer)
                walk(stmt.value)
            elif isinstance(stmt, ast.ExprStmt):
                walk(stmt.expr)
            else:  # an assignment or a return
                walk(stmt.value)
                if isinstance(stmt, ast.ReturnStmt):
                    return False
        return True

    falls_through(func_ast.body)
    return frozenset(names)


def lower_program(program: ast.Program) -> cfg.Module:
    module = cfg.Module()
    for func_ast in program.functions:
        module.add(lower_function(func_ast))
    return module
