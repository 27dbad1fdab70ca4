"""Facts derived from a function definition are computed once per
``FuncDef`` object and are not part of the definition's content."""

from repro.cache.keys import ast_fingerprint
from repro.ir.lower import called_names
from repro.lang import ast
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty_function

SOURCE = """
fn helper(p) { x = *p; return x; }
fn main(a) {
    p = malloc();
    y = helper(p);
    if (a > 0) { z = sink(y); }
    return y;
}
"""


def _main_twice():
    first = parse_program(SOURCE).function("main")
    second = parse_program(SOURCE).function("main")
    return first, second


def test_equal_definitions_get_equal_facts():
    first, second = _main_twice()
    assert first is not second and first == second
    assert ast_fingerprint(first) == ast_fingerprint(second)
    assert called_names(first) == called_names(second) == {"helper", "sink"}
    assert isinstance(called_names(first), frozenset)


def test_facts_are_kept_on_the_definition():
    first, _ = _main_twice()
    fingerprint = ast_fingerprint(first)
    callees = called_names(first)
    assert first.derived == {"fingerprint": fingerprint, "callees": callees}
    assert ast_fingerprint(first) is fingerprint
    assert called_names(first) is callees


def test_derived_is_not_content():
    first, second = _main_twice()
    ast_fingerprint(first)
    called_names(first)
    assert first.derived and not second.derived
    assert first == second
    assert repr(first) == repr(second)
    assert "derived" not in repr(first)
    assert pretty_function(first) == pretty_function(second)
    assert "fingerprint" not in pretty_function(first)


def test_new_definitions_start_empty():
    parsed = parse_program(SOURCE)
    assert all(func.derived == {} for func in parsed.functions)
    built = ast.FuncDef(
        name="f",
        params=["p"],
        body=ast.Block(stmts=[ast.ReturnStmt(value=ast.Name(ident="p"))]),
        line=1,
    )
    assert built.derived == {}
    # Each definition owns its dict.
    ast_fingerprint(built)
    assert ast.FuncDef(name="g", params=[], body=ast.Block()).derived == {}


def test_an_edited_definition_derives_its_own_facts():
    before = parse_program(SOURCE).function("helper")
    after = parse_program(
        SOURCE.replace("x = *p; return x;", "x = *p; w = log(x); return x;")
    ).function("helper")
    assert ast_fingerprint(before) != ast_fingerprint(after)
    assert called_names(before) == frozenset()
    assert called_names(after) == {"log"}
