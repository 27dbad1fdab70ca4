"""Tests for the incremental analyzer."""

import pytest

from repro import UseAfterFreeChecker
from repro.core.incremental import IncrementalAnalyzer
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry

BASE = """
fn helper(p) { x = *p; return x; }
fn other(a) { return a + 1; }
fn main() {
    p = malloc();
    free(p);
    y = helper(p);
    z = other(3);
    return y + z;
}
"""

# Body-only edit in `other` (no interface change).
BODY_EDIT = BASE.replace("return a + 1;", "return a + 2;")

# Interface-changing edit: helper now also writes through p.
INTERFACE_EDIT = BASE.replace(
    "fn helper(p) { x = *p; return x; }",
    "fn helper(p) { x = *p; *p = 0; return x; }",
)


def test_cold_run_analyzes_everything():
    analyzer = IncrementalAnalyzer()
    engine = analyzer.analyze(BASE)
    assert analyzer.last_stats.analyzed == 3
    assert analyzer.last_stats.reused == 0
    assert len(engine.check(UseAfterFreeChecker())) == 1


def test_identical_rerun_reuses_everything():
    analyzer = IncrementalAnalyzer()
    analyzer.analyze(BASE)
    engine = analyzer.analyze(BASE)
    assert analyzer.last_stats.analyzed == 0
    assert analyzer.last_stats.reused == 3
    assert len(engine.check(UseAfterFreeChecker())) == 1


def test_whitespace_and_comment_changes_reuse():
    analyzer = IncrementalAnalyzer()
    analyzer.analyze(BASE)
    reformatted = "// a leading comment\n" + BASE.replace(
        "fn other(a) { return a + 1; }",
        "fn other(a) {\n    // body comment\n    return a + 1;\n}",
    )
    analyzer.analyze(reformatted)
    assert analyzer.last_stats.analyzed == 0


def test_body_edit_reanalyzes_only_that_function():
    analyzer = IncrementalAnalyzer()
    analyzer.analyze(BASE)
    engine = analyzer.analyze(BODY_EDIT)
    assert analyzer.last_stats.analyzed == 1  # just `other`
    assert analyzer.last_stats.reused == 2
    assert len(engine.check(UseAfterFreeChecker())) == 1


def test_interface_edit_invalidates_callers():
    analyzer = IncrementalAnalyzer()
    analyzer.analyze(BASE)
    engine = analyzer.analyze(INTERFACE_EDIT)
    # helper changed; its new connector signature invalidates main.
    assert analyzer.last_stats.analyzed == 2
    assert analyzer.last_stats.reused == 1  # `other`
    assert len(engine.check(UseAfterFreeChecker())) == 1


def test_incremental_results_match_full_analysis():
    from repro import Pinpoint

    analyzer = IncrementalAnalyzer()
    analyzer.analyze(BASE)
    incremental = analyzer.analyze(BODY_EDIT)
    full = Pinpoint.from_source(BODY_EDIT)
    inc_reports = {r.key() for r in incremental.check(UseAfterFreeChecker())}
    full_reports = {r.key() for r in full.check(UseAfterFreeChecker())}
    assert inc_reports == full_reports


def test_new_function_added():
    analyzer = IncrementalAnalyzer()
    analyzer.analyze(BASE)
    extended = BASE + "\nfn extra() { q = malloc(); free(q); w = *q; return w; }\n"
    engine = analyzer.analyze(extended)
    assert analyzer.last_stats.analyzed == 1
    assert len(engine.check(UseAfterFreeChecker())) == 2


def test_function_removed():
    analyzer = IncrementalAnalyzer()
    analyzer.analyze(BASE)
    reduced = BASE.replace("fn other(a) { return a + 1; }", "").replace(
        "z = other(3);", "z = 3;"
    )
    engine = analyzer.analyze(reduced)
    # main changed (its body references other no more); helper reused.
    assert analyzer.last_stats.reused == 1
    assert len(engine.check(UseAfterFreeChecker())) == 1


def test_invalidate_forces_reanalysis():
    analyzer = IncrementalAnalyzer()
    analyzer.analyze(BASE)
    analyzer.invalidate("other")
    analyzer.analyze(BASE)
    assert analyzer.last_stats.analyzed == 1
    analyzer.invalidate()
    analyzer.analyze(BASE)
    assert analyzer.last_stats.analyzed == 3


def test_incremental_speedup_on_large_program():
    import time

    from repro.synth.generator import GeneratorConfig, generate_program

    program = generate_program(GeneratorConfig(seed=21, target_lines=2000))
    analyzer = IncrementalAnalyzer()
    start = time.perf_counter()
    analyzer.analyze(program.source)
    cold = time.perf_counter() - start
    # Append one new function and re-analyze.
    edited = program.source + "\nfn tweak(a) { return a * 2; }\n"
    start = time.perf_counter()
    analyzer.analyze(edited)
    warm = time.perf_counter() - start
    assert analyzer.last_stats.analyzed == 1
    assert analyzer.last_stats.reused > 100
    # Reuse must pay off; a generous bound keeps this stable under load.
    assert warm < cold, (cold, warm)


def test_fully_replayed_recheck_spends_no_solving_time():
    def solving_seconds() -> float:
        return get_registry().counter("engine.seconds").value(
            phase="solving", checker="use-after-free"
        )

    analyzer = IncrementalAnalyzer()
    set_registry(MetricsRegistry())
    cold = analyzer.analyze(BASE).check(UseAfterFreeChecker())
    assert solving_seconds() > 0
    set_registry(MetricsRegistry())
    warm = analyzer.analyze(BASE).check(UseAfterFreeChecker())
    # Every function replays from the check memo: its counts come back,
    # solver calls included, but the cold run's solving time does not.
    assert warm.reports == cold.reports
    assert warm.stats.candidates == cold.stats.candidates
    assert warm.stats.smt_queries == cold.stats.smt_queries > 0
    assert warm.stats.linear_queries == cold.stats.linear_queries > 0
    assert solving_seconds() == 0
    # The solver's own counter still counts only real calls.
    real_calls = get_registry().get("smt.queries")
    assert real_calls is None or real_calls.total() == 0


# ``h`` and ``k`` both derive the same use-after-free key (the free in
# ``release`` reaching the dereference in ``use``); ``h`` is processed
# first, so in a cold run the report is ``h``'s.
SHARED_KEY = """\
fn release(p) {
  free(p);
  return 0;
}
fn use(p) {
  x = *p;
  return x;
}
fn h(p) {
  a = release(p);
  b = use(p);
  return b;
}
fn k(q) {
  a = release(q);
  b = use(q);
  return b;
}
"""


def test_replay_keeps_reports_an_earlier_function_inserted_first():
    from repro import Pinpoint
    from repro.core.report import report_as_dict

    def reports(engine):
        return [report_as_dict(r) for r in engine.check(UseAfterFreeChecker())]

    analyzer = IncrementalAnalyzer()
    (cold,) = reports(analyzer.analyze(SHARED_KEY))
    assert cold["path"][0]["function"] == "h"
    # Line-preserving edit: ``h`` no longer derives the key, so the
    # report must come from ``k``'s replayed record.
    edited = SHARED_KEY.replace("  b = use(p);", "  b = 0;")
    previous = get_registry()
    registry = set_registry(MetricsRegistry())
    try:
        warm = reports(analyzer.analyze(edited))
    finally:
        set_registry(previous)
    assert warm == reports(Pinpoint.from_source(edited))
    assert [r["path"][0]["function"] for r in warm] == ["k"]
    # Only the edited ``h`` is searched again.
    assert registry.get("engine.check_cache.hit").total() == 3
    assert registry.get("engine.check_cache.miss").total() == 1


# Edits that change the call graph, each applied to the previous text.
CALLS_BASE = """\
fn leaf(p) { free(p); return 0; }
fn mid(p, n) { if (n > 0) { r = leaf(p); return r; } return 0; }
fn top(n) { p = malloc(); r = mid(p, n); x = *p; return x + r; }
fn other(q) { y = *q; return y; }
fn main(n) { a = top(n); q = malloc(); b = other(q); return a + b; }
"""
CALL_EDITS = [
    ("add a call", "fn other(q) { y = *q; return y; }",
     "fn other(q) { y = *q; z = leaf(q); w = *q; return y; }"),
    ("close a recursion cycle", "fn leaf(p) { free(p); return 0; }",
     "fn leaf(p) { free(p); t = top(0); return 0; }"),
    ("reopen the cycle", "t = top(0); ", ""),
    ("remove a call", "r = mid(p, n);", "r = 0;"),
    ("add a call after a return", "return 0; }\nfn top",
     "return 0; s = other(p); }\nfn top"),
]


def _check_all(engine):
    from repro.cli import CHECKERS
    from repro.core.report import report_as_dict

    results = [engine.check(checker()) for checker in CHECKERS.values()]
    return (
        [report_as_dict(report) for result in results for report in result],
        [diag.as_dict() for result in results for diag in result.diagnostics],
        [result.stats.as_dict() for result in results],
    )


def test_call_graph_edits_match_cold_runs():
    from repro import Pinpoint
    from repro.lang.parser import parse_program

    analyzer = IncrementalAnalyzer()
    source = CALLS_BASE
    _check_all(analyzer.analyze(source))
    for label, old, new in CALL_EDITS:
        assert old in source, label
        source = source.replace(old, new)
        warm = _check_all(analyzer.analyze(source))
        cold = _check_all(Pinpoint.from_program(parse_program(source)))
        assert warm == cold, label
        assert warm[0], label
