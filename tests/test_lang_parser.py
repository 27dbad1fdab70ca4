"""Unit tests for the surface-language parser."""

import pytest

from repro.lang import ast
from repro.lang.parser import ParseError, parse_function, parse_program


def test_empty_function():
    func = parse_function("fn f() { }")
    assert func.name == "f"
    assert func.params == []
    assert func.body.stmts == []


def test_params():
    func = parse_function("fn f(a, b, c) { return a; }")
    assert func.params == ["a", "b", "c"]


def test_assignment_and_return():
    func = parse_function("fn f(a) { x = a + 1; return x; }")
    assign = func.body.stmts[0]
    assert isinstance(assign, ast.AssignStmt)
    assert assign.target == "x"
    assert isinstance(assign.value, ast.Binary)
    assert assign.value.op == "+"
    ret = func.body.stmts[1]
    assert isinstance(ret, ast.ReturnStmt)
    assert isinstance(ret.value, ast.Name)


def test_store_depths():
    func = parse_function("fn f(p, v) { *p = v; **p = v; }")
    store1 = func.body.stmts[0]
    store2 = func.body.stmts[1]
    assert isinstance(store1, ast.StoreStmt) and store1.depth == 1
    assert isinstance(store2, ast.StoreStmt) and store2.depth == 2


def test_load_depths():
    func = parse_function("fn f(p) { x = *p; y = **p; return y; }")
    load1 = func.body.stmts[0].value
    load2 = func.body.stmts[1].value
    assert isinstance(load1, ast.Unary) and load1.op == "*"
    assert isinstance(load2, ast.Unary)
    assert isinstance(load2.operand, ast.Unary)


def test_if_else():
    func = parse_function(
        "fn f(a) { if (a != 0) { x = 1; } else { x = 2; } return x; }"
    )
    branch = func.body.stmts[0]
    assert isinstance(branch, ast.IfStmt)
    assert isinstance(branch.cond, ast.Binary)
    assert branch.cond.op == "!="
    assert branch.else_block is not None


def test_else_if_chain():
    func = parse_function(
        "fn f(a) { if (a < 0) { x = 1; } else if (a < 10) { x = 2; } else { x = 3; } return x; }"
    )
    outer = func.body.stmts[0]
    assert isinstance(outer, ast.IfStmt)
    nested = outer.else_block.stmts[0]
    assert isinstance(nested, ast.IfStmt)
    assert nested.else_block is not None


def test_while_loop():
    func = parse_function("fn f(n) { i = 0; while (i < n) { i = i + 1; } return i; }")
    loop = func.body.stmts[1]
    assert isinstance(loop, ast.WhileStmt)


def test_call_statement_and_expression():
    func = parse_function("fn f(p) { free(p); x = bar(p, 1); return x; }")
    call_stmt = func.body.stmts[0]
    assert isinstance(call_stmt, ast.ExprStmt)
    assert isinstance(call_stmt.expr, ast.Call)
    assert call_stmt.expr.callee == "free"
    assign = func.body.stmts[1]
    assert isinstance(assign.value, ast.Call)
    assert len(assign.value.args) == 2


def test_null_true_false_literals():
    func = parse_function("fn f() { a = null; b = true; c = false; return a; }")
    values = [stmt.value for stmt in func.body.stmts[:3]]
    assert [v.value for v in values] == [0, 1, 0]


def test_operator_precedence():
    func = parse_function("fn f(a, b) { x = a + b * 2 < 10 && b > 0; return x; }")
    expr = func.body.stmts[0].value
    assert isinstance(expr, ast.Binary) and expr.op == "&&"
    assert expr.lhs.op == "<"
    assert expr.lhs.lhs.op == "+"
    assert expr.lhs.lhs.rhs.op == "*"


def test_parenthesized():
    func = parse_function("fn f(a, b) { x = (a + b) * 2; return x; }")
    expr = func.body.stmts[0].value
    assert expr.op == "*"
    assert expr.lhs.op == "+"


def test_comments():
    source = """
    // leading comment
    fn f(a) {
        # hash comment
        x = a; // trailing
        return x;
    }
    """
    func = parse_function(source)
    assert len(func.body.stmts) == 2


def test_multiple_functions():
    program = parse_program("fn a() { } fn b() { }")
    assert [f.name for f in program.functions] == ["a", "b"]
    assert program.function("b").name == "b"
    with pytest.raises(KeyError):
        program.function("c")


def test_line_numbers():
    source = "fn f(a) {\n  x = a;\n  return x;\n}"
    func = parse_function(source)
    assert func.body.stmts[0].line == 2
    assert func.body.stmts[1].line == 3
    func = parse_function(source, first_line=10)
    assert func.line == 10
    assert [stmt.line for stmt in func.body.stmts] == [11, 12]


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_program("fn f( { }")
    with pytest.raises(ParseError):
        parse_program("fn f() { x = ; }")
    with pytest.raises(ParseError):
        parse_program("fn f() { @ }")
    with pytest.raises(ParseError):
        parse_program("garbage")
    # parse_function takes exactly one definition.
    for source in ("fn a() { } fn b() { }", "// none"):
        with pytest.raises(ParseError, match="expected exactly one function"):
            parse_function(source)


def test_line_count_proxy():
    program = parse_program(
        "fn f(a) { if (a > 0) { x = 1; } else { x = 2; } return x; }"
    )
    assert program.line_count() >= 4


def test_unary_operators():
    func = parse_function("fn f(a) { x = -a; y = !a; return y; }")
    assert func.body.stmts[0].value.op == "-"
    assert func.body.stmts[1].value.op == "!"
