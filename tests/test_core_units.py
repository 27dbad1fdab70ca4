"""Unit tests for core support modules: contexts, summaries, reports,
call graph, and the dot exporters."""

import itertools

import pytest

from repro.core.context import Context, ContextAllocator, clone_term, rename_var
from repro.core.pipeline import prepare_source
from repro.core.report import BugReport, CheckResult, EngineStats, Location
from repro.core.summaries import (
    interface_params,
    receiver_for_slot,
    return_slots,
)
from repro.ir import cfg
from repro.ir.callgraph import CallGraph
from repro.ir.lower import lower_program
from repro.lang.parser import parse_program
from repro.smt import terms as T
from repro.viz.dot import cfg_to_dot, seg_to_dot


# ----------------------------------------------------------------------
# Contexts
# ----------------------------------------------------------------------
def test_context_depth_chain():
    alloc = ContextAllocator()
    c1 = alloc.new("f", None, None)
    c2 = alloc.new("g", None, c1)
    c3 = alloc.new("h", None, c2)
    assert c1.depth == 1
    assert c3.depth == 3


def test_context_suffix_unique():
    alloc = ContextAllocator()
    a = alloc.new("f", None, None)
    b = alloc.new("f", None, None)
    assert a.suffix() != b.suffix()


def test_rename_var_root_is_identity():
    assert rename_var("x.0", None) == "x.0"


def test_clone_term_renames_everything():
    alloc = ContextAllocator()
    ctx = alloc.new("f", None, None)
    term = T.and_(T.bool_var("a"), T.eq(T.int_var("x"), T.const(1)))
    cloned = clone_term(term, ctx)
    assert cloned.variables() == {f"a{ctx.suffix()}", f"x{ctx.suffix()}"}


def test_clone_term_root_identity():
    term = T.bool_var("a")
    assert clone_term(term, None) is term


def test_clones_of_same_term_disjoint():
    alloc = ContextAllocator()
    term = T.eq(T.int_var("x"), T.int_var("y"))
    c1 = clone_term(term, alloc.new("f", None, None))
    c2 = clone_term(term, alloc.new("f", None, None))
    assert not (c1.variables() & c2.variables())


# ----------------------------------------------------------------------
# Summaries helpers
# ----------------------------------------------------------------------
def test_interface_params_order():
    prepared = prepare_source(
        """
        fn callee(q, v) { x = *q; *q = v; return x; }
        fn caller(p, v) { r = callee(p, v); return r; }
        """
    )
    callee = prepared["callee"].function
    iface = interface_params(callee)
    # Original params first, aux params appended.
    assert iface[: len(callee.params)] == callee.params
    assert len(iface) == len(callee.params) + len(callee.aux_params)
    # Call-site argument count matches the interface.
    caller = prepared["caller"].function
    call = next(
        i for i in caller.all_instrs() if isinstance(i, cfg.Call)
    )
    assert len(call.args) == len(iface)


def test_return_slots_and_receivers_align():
    prepared = prepare_source(
        """
        fn callee(q, v) { *q = v; return v; }
        fn caller(p, v) { r = callee(p, v); return r; }
        """
    )
    callee = prepared["callee"].function
    slots = return_slots(callee)
    assert len(slots) >= 2  # main value + aux return for *q
    caller = prepared["caller"].function
    call = next(i for i in caller.all_instrs() if isinstance(i, cfg.Call))
    assert receiver_for_slot(call, 0) == call.dest
    for extra_slot in range(1, len(slots)):
        receiver = receiver_for_slot(call, extra_slot)
        assert receiver in call.extra_receivers
    assert receiver_for_slot(call, 99) is None


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
def test_location_str():
    assert str(Location("f", 3, "x")) == "f:3 (x)"
    assert str(Location("f", 3)) == "f:3"


def test_bug_report_key_dedup():
    a = BugReport("c", Location("f", 1, "x"), Location("f", 2, "y"))
    b = BugReport("c", Location("f", 1, "x"), Location("f", 2, "y"), condition="other")
    assert a.key() == b.key()


def test_bug_report_str():
    report = BugReport(
        "use-after-free",
        Location("f", 1, "p"),
        Location("g", 2, "q"),
        path=(Location("f", 1, "p"),),
    )
    text = str(report)
    assert "use-after-free" in text
    assert "f:1" in text and "g:2" in text


def test_check_result_iteration_and_len():
    result = CheckResult("c", [BugReport("c", Location("f", 1), Location("f", 2))])
    assert len(result) == 1
    assert list(result)[0].checker == "c"
    assert "c:" in result.summary_line()


def test_engine_stats_as_dict():
    stats = EngineStats(functions=3)
    payload = stats.as_dict()
    assert payload["functions"] == 3
    assert "smt_queries" in payload


def test_engine_stats_as_dict_is_complete():
    # Regression: as_dict() used to hand-enumerate fields and silently
    # drop newly-added ones.  It must cover every dataclass field.
    import dataclasses

    payload = EngineStats().as_dict()
    field_names = {f.name for f in dataclasses.fields(EngineStats)}
    assert set(payload) == field_names
    assert "summary_hits" in payload and "summary_misses" in payload


def test_engine_stats_publish_mirrors_every_field():
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    stats = EngineStats(functions=2, smt_queries=5, summary_hits=3)
    stats.publish("uaf", registry=registry)
    dump = registry.as_dict()
    assert dump["engine.functions"]["values"][0]["value"] == 2
    assert dump["engine.smt_queries"]["values"][0]["value"] == 5
    assert "engine.summaries.hit" in dump
    # Stage times are not stats: the engine phases publish them.
    assert "engine.seconds" not in dump


def test_summary_line_stable_format():
    import re

    stats = EngineStats(candidates=4, pruned_linear=1, pruned_smt=2)
    result = CheckResult(
        "null-deref",
        [BugReport("null-deref", Location("f", 1), Location("f", 2))],
        stats=stats,
    )
    line = result.summary_line()
    assert line == (
        "null-deref: 1 reports (4 candidates, 1 pruned by linear solver, "
        "2 pruned by SMT)"
    )
    pattern = (
        r"^(?P<checker>[^:]+): (?P<reports>\d+) reports "
        r"\((?P<cand>\d+) candidates, (?P<lin>\d+) pruned by linear solver, "
        r"(?P<smt>\d+) pruned by SMT\)"
        r"(?: \[degraded: (?P<diags>\d+) diagnostic\(s\)\])?$"
    )
    assert re.match(pattern, line)
    # Degraded runs append the suffix — still matching the grammar.
    from repro.robust.diagnostics import Diagnostic

    result.diagnostics.append(Diagnostic("smt", "f", "timeout"))
    degraded = result.summary_line()
    assert degraded.endswith("[degraded: 1 diagnostic(s)]")
    assert re.match(pattern, degraded)


# ----------------------------------------------------------------------
# Call graph
# ----------------------------------------------------------------------
def test_callgraph_bottom_up_order():
    graph = CallGraph(
        parse_program(
            """
            fn a() { b(); c(); return 0; }
            fn b() { c(); return 0; }
            fn c() { return 0; }
            """
        )
    )
    order = graph.bottom_up_order()
    assert order.index("c") < order.index("b") < order.index("a")


def test_callgraph_scc_detection():
    graph = CallGraph(
        parse_program(
            """
            fn even(n) { r = odd(n); return r; }
            fn odd(n) { r = even(n); return r; }
            fn main() { r = even(4); return r; }
            """
        )
    )
    assert sorted(map(sorted, graph.sccs())) == [["even", "odd"], ["main"]]
    assert graph.scc_of["even"] == graph.scc_of["odd"]
    assert graph.scc_of["main"] != graph.scc_of["even"]


# prepare_program walks bottom_up_order() alone: it must place every
# callee outside a function's SCC first (tests/test_sched_waves.py), keep
# each SCC's members together and sorted, and come out the same from
# every build.
DIAMOND = """
fn leaf_a(p) { x = *p; return x; }
fn leaf_b(p) { *p = 1; return 0; }
fn mid(p) { a = leaf_a(p); b = leaf_b(p); return a + b; }
fn main() { p = malloc(); r = mid(p); free(p); return r; }
"""

EVEN_ODD = """
fn even(n) { if (n > 0) { r = odd(n - 1); return r; } return 1; }
fn odd(n) { if (n > 0) { r = even(n - 1); return r; } return 0; }
fn main(n) { e = even(n); return e; }
"""

ORDER_CASES = ["diamond", "even-odd", "generated-2k"]


def _order_case(case):
    if case == "diamond":
        return DIAMOND
    if case == "even-odd":
        return EVEN_ODD
    from repro.synth.generator import GeneratorConfig, generate_program

    return generate_program(GeneratorConfig(seed=1, target_lines=2000)).source


@pytest.mark.parametrize("case", ORDER_CASES)
def test_bottom_up_order_keeps_scc_members_adjacent_and_sorted(case):
    graph = CallGraph(parse_program(_order_case(case)))
    runs = [
        list(members)
        for _, members in itertools.groupby(
            graph.bottom_up_order(), key=graph.scc_of.__getitem__
        )
    ]
    # One run of adjacent names per SCC, in name order.
    assert len(runs) == len(graph.sccs())
    assert all(run == sorted(run) for run in runs)
    if case == "even-odd":
        assert ["even", "odd"] in runs


@pytest.mark.parametrize("case", ORDER_CASES)
def test_bottom_up_order_is_the_same_across_builds(case):
    source = _order_case(case)
    first = CallGraph(parse_program(source)).bottom_up_order()
    assert CallGraph(parse_program(source)).bottom_up_order() == first


def test_callgraph_ignores_external_calls():
    graph = CallGraph(parse_program("fn f() { g_external(); return 0; }"))
    assert graph.callees["f"] == set()


def _cfg_call_edges(program):
    """The reference call graph: the Call instructions of the lowered CFGs."""
    module = lower_program(program)
    return {
        function.name: {
            instr.callee
            for instr in function.all_instrs()
            if isinstance(instr, cfg.Call) and instr.callee in module
        }
        for function in module
    }


def _assert_ast_call_graph_matches_cfg(source):
    program = parse_program(source)
    assert CallGraph(program).callees == _cfg_call_edges(program)


@pytest.mark.parametrize("taint", [False, True], ids=["plain", "taint"])
@pytest.mark.parametrize("lines", [300, 2000])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_callgraph_from_ast_matches_lowered_cfgs(seed, lines, taint):
    from repro.synth.generator import GeneratorConfig, generate_program

    config = GeneratorConfig(
        seed=seed, target_lines=lines, taint_period=7 if taint else 0
    )
    _assert_ast_call_graph_matches_cfg(generate_program(config).source)


def test_callgraph_from_ast_matches_lowered_cfgs_on_suites():
    from repro.synth import juliet, precision

    _assert_ast_call_graph_matches_cfg(
        juliet.suite_source(juliet.generate_juliet_suite())
    )
    _assert_ast_call_graph_matches_cfg(
        precision.suite_source(precision.generate_precision_suite())
    )


@pytest.mark.parametrize(
    "source, callees",
    [
        # Nothing after a return is lowered.
        ("fn f() { return 0; g(); }", set()),
        # Nor after an if whose arms both return.
        (
            "fn f(a) { if (a) { return 1; } else { x = g(); return x; } h(); }",
            {"g"},
        ),
        # A return in a loop body kills the rest of the body only.
        ("fn f(a) { while (a) { return 1; g(); } h(); return 0; }", {"h"}),
        # An if without an else falls through even when its arm returns.
        ("fn f(a) { if (a) { return g(); } h(); return 0; }", {"g", "h"}),
        # Allocations lower to Malloc but evaluate their arguments.
        ("fn f(x) { malloc(g(x)); return 0; }", {"g"}),
        ("fn f(x) { p = malloc(g(x)); return p; }", {"g"}),
        # A defined `alloc` is still the allocation intrinsic.
        ("fn alloc() { return 0; } fn f() { p = alloc(); return p; }", set()),
    ],
)
def test_callgraph_follows_lowering_reachability(source, callees):
    defined = "fn g(x) { return 0; } fn h() { return 0; } "
    program = parse_program(defined + source)
    assert CallGraph(program).callees["f"] == callees
    assert _cfg_call_edges(program)["f"] == callees


def test_defined_alloc_still_lowers_to_malloc():
    module = lower_program(
        parse_program("fn alloc() { return 0; } fn f() { p = alloc(); return p; }")
    )
    kinds = {type(instr) for instr in module.functions["f"].all_instrs()}
    assert cfg.Malloc in kinds and cfg.Call not in kinds


# ----------------------------------------------------------------------
# Dot export
# ----------------------------------------------------------------------
def test_cfg_to_dot_structure():
    prepared = prepare_source(
        "fn f(a) { if (a > 0) { x = 1; } else { x = 2; } return x; }"
    )
    dot = cfg_to_dot(prepared["f"].function)
    assert dot.startswith('digraph "f_cfg"')
    assert '"entry"' in dot
    assert "->" in dot
    assert dot.rstrip().endswith("}")


def test_seg_to_dot_structure():
    from repro.seg.builder import build_seg

    prepared = prepare_source(
        "fn f(a, c) { p = malloc(); if (c > 0) { *p = a; } x = *p; return x; }"
    )
    dot = seg_to_dot(build_seg(prepared["f"]))
    assert dot.startswith('digraph "f_seg"')
    assert "style=dashed" in dot  # control dependence edge
    assert "->" in dot


def test_seg_to_dot_escapes_quotes():
    from repro.seg.builder import build_seg

    prepared = prepare_source("fn f(a) { x = a; return x; }")
    dot = seg_to_dot(build_seg(prepared["f"]))
    # Every label is quoted without breaking the dot syntax.
    assert dot.count('"') % 2 == 0
