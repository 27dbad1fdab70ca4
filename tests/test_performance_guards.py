"""Performance regression guards.

Generous wall-clock bounds that only trip on order-of-magnitude
regressions (an accidental quadratic loop, a lost memo table), not on
machine noise.
"""

import time

import pytest

from repro import Pinpoint, UseAfterFreeChecker
from repro.synth.generator import GeneratorConfig, generate_program


def test_thousand_line_program_under_budget():
    program = generate_program(GeneratorConfig(seed=99, target_lines=1000))
    start = time.perf_counter()
    engine = Pinpoint.from_source(program.source)
    engine.check(UseAfterFreeChecker())
    elapsed = time.perf_counter() - start
    # Typically ~0.5 s; 30 s only trips on a complexity regression.
    assert elapsed < 30, f"1k-line analysis took {elapsed:.1f}s"


def test_term_factory_shares_subterms():
    from repro.smt import terms as T

    before = T.FACTORY.size()
    a = T.bool_var("perf_a")
    parts = [T.or_(a, T.bool_var(f"perf_{i}")) for i in range(100)]
    first = T.and_(*parts)
    second = T.and_(*parts)
    assert first is second
    created = T.FACTORY.size() - before
    # 1 var + 100 vars + 100 ors + 1 and.  The complement checks build
    # no negation: they look atoms' negations up and skip junctions.
    assert created <= 202


def test_deep_negation_linear():
    # Regression guard for the De Morgan memo: negating a deep nest must
    # not be exponential.
    from repro.smt import terms as T

    term = T.bool_var("z0")
    for i in range(200):
        term = T.or_(T.and_(term, T.bool_var(f"zg{i}")), T.bool_var(f"zh{i}"))
    start = time.perf_counter()
    negated = T.not_(term)
    assert T.not_(negated) is term
    assert time.perf_counter() - start < 5


def test_linear_solver_scales_with_sharing():
    from repro.smt import terms as T
    from repro.smt.linear_solver import LinearSolver

    base = T.and_(*[T.bool_var(f"ls{i}") for i in range(200)])
    solver = LinearSolver()
    start = time.perf_counter()
    for i in range(200):
        solver.is_obviously_unsat(T.and_(base, T.bool_var(f"extra{i}")))
    assert time.perf_counter() - start < 5


def test_disabled_tracing_overhead_is_negligible():
    # trace() with tracing off must stay a constant-time no-op: one
    # attribute load, one truth test, one shared handle.  Guard both the
    # cost and the "no spans collected" invariant.
    from repro.obs.trace import NULL_SPAN, Tracer, set_tracer, trace

    old = set_tracer(Tracer(enabled=False))
    try:
        assert trace("hot.path", unit="f") is NULL_SPAN
        start = time.perf_counter()
        for _ in range(100_000):
            with trace("hot.path"):
                pass
        elapsed = time.perf_counter() - start
    finally:
        set_tracer(old)
    # ~30 ms typical; 5 s only trips if the fast path grows real work.
    assert elapsed < 5, f"100k disabled spans took {elapsed:.2f}s"


def test_disabled_tracing_collects_nothing():
    from repro.obs.trace import Tracer, set_tracer, trace

    old = set_tracer(Tracer(enabled=False))
    try:
        with trace("a", unit="f") as span:
            span.set(ignored=True)
        from repro.obs.trace import get_tracer

        assert get_tracer().spans == []
    finally:
        set_tracer(old)


def test_happens_after_reachability_cached():
    source_lines = ["fn f(a) {"]
    for i in range(50):
        source_lines.append(f"    if (a > {i}) {{ a = a + 1; }}")
    source_lines.append("    p = malloc();")
    source_lines.append("    free(p);")
    source_lines.append("    x = *p;")
    source_lines.append("    return x;")
    source_lines.append("}")
    start = time.perf_counter()
    result = Pinpoint.from_source("\n".join(source_lines)).check(
        UseAfterFreeChecker()
    )
    assert len(result) == 1
    assert time.perf_counter() - start < 20


def test_verify_fast_overhead_under_ten_percent():
    # --verify=fast must stay a cheap structural sweep: its recorded
    # wall time (the verify.seconds counter) is bounded to <10% of the
    # whole analysis on a 1k-line program.  The ratio is measured over
    # three runs and the best is kept: the absolute times are a few
    # hundred milliseconds, so a single garbage-collection pause landing
    # inside the verifier (whose trigger is whatever the rest of the
    # test suite left on the heap) would otherwise dominate the ratio.
    import gc

    from repro import EngineConfig
    from repro.obs.metrics import MetricsRegistry, get_registry, set_registry

    program = generate_program(GeneratorConfig(seed=99, target_lines=1000))
    ratios = []
    verify_ran = False
    for _ in range(3):
        old = get_registry()
        set_registry(MetricsRegistry())
        try:
            gc.collect()
            start = time.perf_counter()
            engine = Pinpoint.from_source(
                program.source, EngineConfig(verify="fast")
            )
            engine.check(UseAfterFreeChecker())
            elapsed = time.perf_counter() - start
            verify_seconds = get_registry().counter("verify.seconds").total()
        finally:
            set_registry(old)
        verify_ran = verify_ran or verify_seconds > 0
        ratios.append(verify_seconds / elapsed)
        if ratios[-1] < 0.10:
            break
    assert verify_ran, "fast mode should have run the verifier"
    assert min(ratios) < 0.10, (
        f"verifier consistently above 10% of analysis time across "
        f"{len(ratios)} runs: " + ", ".join(f"{100 * r:.1f}%" for r in ratios)
    )


# ----------------------------------------------------------------------
# Counting guards: each structure is derived once
# ----------------------------------------------------------------------
def _count_calls(monkeypatch, module_name, attribute):
    """Count calls to a module-level function, also where another repro
    module imported it by name."""
    import importlib
    import sys

    original = getattr(importlib.import_module(module_name), attribute)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, attribute, None) is original:
            monkeypatch.setattr(module, attribute, counting)
    return calls


def test_warm_body_edit_lowers_only_the_edited_function(monkeypatch):
    import re

    from repro.core.incremental import IncrementalAnalyzer

    source = generate_program(GeneratorConfig(seed=99, target_lines=1000)).source
    name = re.findall(r"^fn (\w+)\(", source, re.M)[7]
    edited = re.sub(
        rf"^(fn {name}\(.*\{{)$", r"\1 guard_edit = 1;", source, flags=re.M
    )
    assert edited != source
    analyzer = IncrementalAnalyzer()
    analyzer.analyze(source)
    calls = _count_calls(monkeypatch, "repro.ir.lower", "lower_function")
    analyzer.analyze(edited)
    assert analyzer.last_stats.analyzed == 1
    # One lowering: Mod/Ref runs on the function's own SSA form, and the
    # call graph lowers nothing.
    assert [args[0].name for args in calls] == [name]


def _warm_body_edit_session():
    """A session on the 2k-line subject of ``repro generate --lines 2000
    --seed 1 --taint`` and a one-function body edit of the benchmark's
    shape (``bench_edit = 0;`` prepended), not yet analyzed."""
    from repro.core.incremental import IncrementalAnalyzer, apply_function_edit
    from repro.lang import ast
    from repro.lang.parser import parse_program

    program = parse_program(
        generate_program(
            GeneratorConfig(seed=1, target_lines=2000, taint_period=7)
        ).source
    )
    analyzer = IncrementalAnalyzer()
    analyzer.analyze_program(program)
    old = program.functions[7]
    stmt = ast.AssignStmt(
        target="bench_edit", value=ast.Num(value=0, line=old.line), line=old.line
    )
    new = ast.FuncDef(
        name=old.name,
        params=list(old.params),
        body=ast.Block(stmts=[stmt] + list(old.body.stmts)),
        line=old.line,
    )
    return analyzer, apply_function_edit(program, new), old.name


def test_warm_body_edit_derives_facts_for_the_edited_definition(monkeypatch):
    # Fingerprints and callees are kept on each definition, and the
    # statement index on each prepared function, so a warm edit derives
    # them for the one new definition.  Recomputed, they cost 251
    # pretty-prints, call-edge walks and statement indexes per edit.
    from repro.core.pipeline import PreparedFunction

    analyzer, edited, name = _warm_body_edit_session()
    assert len(edited.functions) == 251
    printed = _count_calls(monkeypatch, "repro.lang.pretty", "pretty_function")
    walked = _count_calls(monkeypatch, "repro.ir.lower", "_walk_called_names")
    indexed = []
    index = PreparedFunction.__dict__["statement_index"]
    build = index.func

    def counting(prepared):
        indexed.append(prepared.name)
        return build(prepared)

    monkeypatch.setattr(index, "func", counting)
    engine = analyzer.analyze_program(edited)
    assert analyzer.last_stats.analyzed == 1
    assert [args[0].name for args in printed] == [name]
    assert [args[0].name for args in walked] == [name]
    assert indexed == [name]
    assert len(engine.functions) == 251


def test_points_to_counters_are_published_once_per_run(monkeypatch):
    from repro.obs.metrics import (
        Counter,
        MetricsRegistry,
        get_registry,
        set_registry,
    )

    analyzer, edited, _name = _warm_body_edit_session()
    increments = []
    inc = Counter.inc

    def counting(self, amount=1, **labels):
        if self.name.startswith("pta."):
            increments.append((self.name, tuple(sorted(labels.items()))))
        inc(self, amount, **labels)

    monkeypatch.setattr(Counter, "inc", counting)
    previous = get_registry()
    registry = set_registry(MetricsRegistry())
    try:
        engine = analyzer.analyze_program(edited)
    finally:
        set_registry(previous)
    # One increment per series (counter and label set), not one per
    # admitted function.
    assert len(increments) == len(set(increments))
    assert {name for name, _ in increments} == {
        name for name in registry.names() if name.startswith("pta.")
    } >= {"pta.facts", "pta.strong_updates"}
    results = [pf.prepared.points_to for pf in engine.functions.values()]
    assert registry.counter("pta.facts").total() == sum(
        result.fact_count() for result in results
    )
    assert registry.counter("pta.strong_updates").value(tier="fi") == sum(
        result.strong_updates for result in results
    )


def test_warm_body_edit_sums_sizes_of_the_edited_function_only():
    # Each SEG keeps its edge count and each points-to result its fact
    # count, so a warm edit sums the sizes of the re-prepared function
    # alone.  Re-summed, they walk all 251 functions' edges and facts.
    analyzer, edited, name = _warm_body_edit_session()
    walked = []

    class Walked(dict):
        """An index that records each walk over its values."""

        def values(self):
            walked.append(self.owner)
            return super().values()

    def watch(index, owner):
        watched = Walked(index)
        watched.owner = owner
        return watched

    # The memory tier serves these same objects to the warm run; the
    # edited function gets new ones.
    reused = list(analyzer._tier._entries.values())
    assert len(reused) == 251
    for function, prepared, seg in reused:
        seg.out_edges = watch(seg.out_edges, ("edges", function))
        points_to = prepared.points_to
        points_to.points_to = watch(points_to.points_to, ("facts", function))
    from repro.obs.metrics import get_registry

    registry = get_registry()
    facts_before = registry.counter("pta.facts").total()
    engine = analyzer.analyze_program(edited)
    engine.check(UseAfterFreeChecker())
    assert analyzer.last_stats.analyzed == 1
    assert walked == []
    # The kept counts are the counts.
    assert engine.seg_size()[1] == sum(
        len(edges)
        for pf in engine.functions.values()
        for edges in pf.seg.out_edges.values()
    )
    assert registry.counter("pta.facts").total() - facts_before == sum(
        len(entries)
        for pf in engine.functions.values()
        for entries in pf.prepared.points_to.points_to.values()
    )


def test_prepare_function_walks_the_cfg_once(monkeypatch):
    # Reverse postorder is cached on the function: lowering adds every
    # block and edge, and nothing after it adds either.
    from repro.core.pipeline import prepare_function
    from repro.ir import cfg
    from repro.lang.parser import parse_program

    program = parse_program(
        """
        fn leaf(p) { *p = 0; return 0; }
        fn f(p, n) {
            while (n > 0) {
                if (n > 5) { r = leaf(p); } else { q = *p; }
                n = n - 1;
            }
            return n;
        }
        """
    )
    signature = prepare_function(program.function("leaf"), {}).signature
    walks = []
    reverse_postorder = cfg.Function._reverse_postorder

    def counting(self):
        walks.append(self.name)
        return reverse_postorder(self)

    monkeypatch.setattr(cfg.Function, "_reverse_postorder", counting)
    prepared = prepare_function(program.function("f"), {"leaf": signature})
    assert walks == ["f"]
    order = prepared.function.block_order()
    assert isinstance(order, tuple) and order[0] == "entry"
    assert prepared.statement_index  # read from the cached order
    assert walks == ["f"]


def test_prepare_function_computes_one_dominator_tree(monkeypatch):
    from repro.core.pipeline import prepare_function
    from repro.lang.parser import parse_program

    program = parse_program(
        """
        fn leaf(p) { *p = 0; return 0; }
        fn f(p, n) {
            while (n > 0) {
                if (n > 5) { r = leaf(p); } else { q = *p; }
                n = n - 1;
            }
            return n;
        }
        """
    )
    signature = prepare_function(program.function("leaf"), {}).signature
    calls = _count_calls(monkeypatch, "repro.ir.dominance", "dominators")
    prepared = prepare_function(program.function("f"), {"leaf": signature})
    assert len(calls) == 1
    assert prepared.gates.back  # the loop's back edge, from the shared tree


def test_prepare_function_runs_each_stage_once(monkeypatch):
    from repro.core.pipeline import prepare_function
    from repro.ir.gating import GateInfo
    from repro.lang.parser import parse_program
    from repro.pta.intraproc import PointsToAnalysis

    program = parse_program(
        """
        fn leaf(p) { *p = 0; return 0; }
        fn f(p, n) {
            if (n > 5) { r = leaf(p); } else { p = malloc(); }
            return n;
        }
        """
    )
    signature = prepare_function(program.function("leaf"), {}).signature
    lowered = _count_calls(monkeypatch, "repro.ir.lower", "lower_function")
    converted = _count_calls(monkeypatch, "repro.ir.ssa", "to_ssa")
    gated, analysed = [], []
    init, run = GateInfo.__init__, PointsToAnalysis.run

    def counting_init(self, *args, **kwargs):
        gated.append(self)
        init(self, *args, **kwargs)

    def counting_run(self):
        analysed.append(self)
        return run(self)

    monkeypatch.setattr(GateInfo, "__init__", counting_init)
    monkeypatch.setattr(PointsToAnalysis, "run", counting_run)
    prepared = prepare_function(program.function("f"), {"leaf": signature})
    assert len(lowered) == len(converted) == len(gated) == 1
    # Mod/Ref's own analysis and the final one, on one function.
    assert len(analysed) == 2
    assert {id(a.function) for a in analysed} == {id(prepared.function)}
    assert prepared.signature.aux_returns == [("p", 1)]


def test_prepare_program_runs_tarjan_once(monkeypatch):
    from repro.lang.parser import parse_program
    from repro.sched.scheduler import prepare_program

    spec = generate_program(GeneratorConfig(seed=99, target_lines=300))
    program = parse_program(spec.source)
    calls = _count_calls(monkeypatch, "repro.ir.callgraph", "_tarjan")
    prepared = prepare_program(program)
    assert len(calls) == 1
    assert prepared.order == prepared.callgraph.bottom_up_order()


def test_data_transmission_processes_only_its_demanded_functions(monkeypatch):
    # On the 5k subject of ``repro generate --lines 5000 --seed 1
    # --taint``, 12 of the 634 functions share a call-graph ancestor
    # with a data-transmission source.  A run over every function
    # processed all 634.
    import repro.core.engine as engine_mod
    from repro.core.checkers.taint import DataTransmissionChecker
    from repro.obs.metrics import MetricsRegistry, get_registry, set_registry

    source = generate_program(
        GeneratorConfig(seed=1, target_lines=5000, taint_period=7)
    ).source
    engine = Pinpoint.from_source(source)
    processed = []
    process = engine_mod._CheckerRun._process_prepared

    def counting(self, pf):
        processed.append(pf.prepared.name)
        return process(self, pf)

    monkeypatch.setattr(engine_mod._CheckerRun, "_process_prepared", counting)
    previous = get_registry()
    registry = set_registry(MetricsRegistry())
    try:
        result = engine.check(DataTransmissionChecker())
    finally:
        set_registry(previous)
    assert result.stats.functions == len(engine.functions) == 634
    assert len(processed) == len(set(processed)) == 12
    skipped = registry.get("engine.demand.skipped")
    assert skipped.value(checker="data-transmission") == 634 - 12


# ----------------------------------------------------------------------
# Counting guard: an analysis runs no automatic full collection
# ----------------------------------------------------------------------
_FULL_COLLECTIONS_SCRIPT = """
import gc
from repro import Pinpoint
from repro.cli import CHECKERS
from repro.synth.generator import GeneratorConfig, generate_program

source = generate_program(
    GeneratorConfig(seed=1, target_lines=5000, taint_period=7)
).source
full = []
gc.callbacks.append(
    lambda phase, info: full.append(1)
    if phase == "start" and info["generation"] == 2
    else None
)
engine = Pinpoint.from_source(source)
for checker in CHECKERS.values():
    engine.check(checker())
print(len(full))
"""


def test_build_and_six_checkers_run_no_full_collection():
    # A full collection re-walks the whole analysis heap and frees
    # almost nothing (repro.robust.heap); the entry points hold them
    # off.  A fresh interpreter counts them, so what the test suite
    # left on its heap does not decide the count; the subject is the
    # 5k-line one of ``repro generate --lines 5000 --seed 1 --taint``.
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", _FULL_COLLECTIONS_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0"]
