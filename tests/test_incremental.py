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
    # the cold run's solving time does not.
    assert warm.reports == cold.reports
    assert warm.stats.candidates == cold.stats.candidates
    assert warm.stats.smt_queries == warm.stats.linear_queries == 0
    assert solving_seconds() == 0
