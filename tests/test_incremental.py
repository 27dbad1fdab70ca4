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


def _delta(analyzer, program, source):
    """Splice the one function of ``program`` whose text differs in
    ``source`` the way ``/v1/edit`` does: parse just that function (at
    its own line, so reports name the same lines) and re-analyze through
    :func:`apply_function_edit`."""
    from repro.core.incremental import apply_function_edit
    from repro.lang.parser import parse_program
    from repro.lang.pretty import pretty_function

    edited = {f.name: f for f in parse_program(source).functions}
    (name,) = [
        f.name
        for f in program.functions
        if pretty_function(f) != pretty_function(edited[f.name])
    ]
    line = edited[name].line
    text = "\n" * (line - 1) + source.splitlines()[line - 1]
    (func,) = parse_program(text).functions
    program = apply_function_edit(program, func)
    return program, analyzer.analyze_program(program)


def test_single_function_deltas_match_cold_runs():
    # Each edit, an added call among them, spliced in as one definition.
    from repro import Pinpoint
    from repro.lang.parser import parse_program

    analyzer = IncrementalAnalyzer()
    program = parse_program(CALLS_BASE)
    _check_all(analyzer.analyze_program(program))
    source = CALLS_BASE
    for label, old, new in CALL_EDITS:
        source = source.replace(old, new)
        program, engine = _delta(analyzer, program, source)
        assert analyzer.last_stats.analyzed >= 1, label
        warm = _check_all(engine)
        cold = _check_all(Pinpoint.from_program(parse_program(source)))
        assert warm == cold, label


def test_reverting_to_the_earlier_definition_matches_cold_run():
    from repro import Pinpoint
    from repro.core.incremental import apply_function_edit
    from repro.lang.parser import parse_program

    analyzer = IncrementalAnalyzer()
    program = parse_program(CALLS_BASE)
    original = program.function("other")
    _check_all(analyzer.analyze_program(program))
    _label, old, new = CALL_EDITS[0]
    program, engine = _delta(analyzer, program, CALLS_BASE.replace(old, new))
    before = _check_all(Pinpoint.from_program(parse_program(CALLS_BASE)))
    assert _check_all(engine) != before
    # The earlier object, whose facts were derived before the edit.
    assert original.derived
    program = apply_function_edit(program, original)
    warm = _check_all(analyzer.analyze_program(program))
    assert program.function("other") is original
    assert warm == before


def test_reparse_after_deltas_matches_cold_run():
    from repro import Pinpoint
    from repro.lang.parser import parse_program

    analyzer = IncrementalAnalyzer()
    program = parse_program(CALLS_BASE)
    _check_all(analyzer.analyze_program(program))
    source = CALLS_BASE
    for _label, old, new in CALL_EDITS[:2]:
        source = source.replace(old, new)
        program, _engine = _delta(analyzer, program, source)
    warm = _check_all(analyzer.analyze(source))
    assert analyzer.last_stats.analyzed == 0
    assert warm == _check_all(Pinpoint.from_program(parse_program(source)))


class _SinksRaise(UseAfterFreeChecker):
    """use-after-free, except that ``sinks`` raises for ``victim``."""

    def __init__(self, victim):
        self.victim = victim

    def sinks(self, prepared, seg):
        if prepared.name == self.victim:
            raise RuntimeError("injected sink failure")
        return super().sinks(prepared, seg)


def test_crash_in_a_run_leaves_its_ancestors_without_a_record():
    from repro import Pinpoint
    from repro.core.report import report_as_dict
    from repro.lang.parser import parse_program

    def outcome(result):
        return (
            [report_as_dict(report) for report in result],
            [diag.as_dict() for diag in result.diagnostics],
            result.stats.as_dict(),
        )

    def check(engine, checker):
        previous = get_registry()
        registry = set_registry(MetricsRegistry())
        try:
            result = engine.check(checker)
        finally:
            set_registry(previous)
        counters = {
            kind: registry.get(f"engine.check_cache.{kind}") for kind in ("hit", "miss")
        }
        return result, {
            kind: counter.total() if counter else 0
            for kind, counter in counters.items()
        }

    analyzer = IncrementalAnalyzer()
    _check_all(analyzer.analyze(CALLS_BASE))
    # A body edit of ``leaf`` changes the keys of ``leaf`` and of its
    # ancestors ``mid``, ``top`` and ``main``; ``other`` keeps its key.
    edited = CALLS_BASE.replace("free(p); return 0;", "free(p); return 1;")
    engine = analyzer.analyze(edited)
    crashed, counts = check(engine, _SinksRaise("mid"))
    assert [d.unit for d in crashed.diagnostics] == ["mid"]
    # ``mid`` crashed, so neither it nor its callers store a record.
    assert counts == {"hit": 1, "miss": 1}
    keys = engine.check_keys()
    table = analyzer.check_memo.table("use-after-free")
    assert {name for name in keys if table[name].key == keys[name]} == {
        "leaf",
        "other",
    }
    warm, counts = check(analyzer.analyze(edited), UseAfterFreeChecker())
    assert counts == {"hit": 2, "miss": 3}
    cold = Pinpoint.from_program(parse_program(edited)).check(UseAfterFreeChecker())
    assert outcome(warm) == outcome(cold)


def test_respliced_definition_gets_a_new_digest_and_check_key():
    # ``main``'s original definition object keeps the digest it was
    # given; spliced back after its callee ``helper`` changed interface,
    # it must be keyed again.
    from repro import Pinpoint
    from repro.core.incremental import apply_function_edit
    from repro.lang.parser import parse_program

    def analyze(program):
        engine = analyzer.analyze_program(program)
        return engine, _check_all(engine)

    analyzer = IncrementalAnalyzer()
    program = parse_program(BASE)
    original = program.function("main")
    engine, _ = analyze(program)
    digest, key = engine.module.digests["main"], engine.check_keys()["main"]
    body_edit = BASE.replace("z = other(3);", "z = other(4);")
    program = apply_function_edit(
        program, parse_program(body_edit).function("main")
    )
    analyze(program)
    program = apply_function_edit(
        program, parse_program(INTERFACE_EDIT).function("helper")
    )
    analyze(program)
    program = apply_function_edit(program, original)
    engine, warm = analyze(program)
    assert program.function("main") is original
    assert engine.module.digests["main"] != digest
    assert engine.check_keys()["main"] != key
    assert warm == _check_all(Pinpoint.from_program(parse_program(INTERFACE_EDIT)))


def test_analyzers_with_different_configs_share_definitions_safely():
    # Three sessions over the same definition objects: the digests kept
    # on a definition must not carry one session's points-to tier into
    # another, and each session must match its own cold run.
    from repro import EngineConfig, Pinpoint
    from repro.cache.store import MemoryTier
    from repro.core.incremental import apply_function_edit
    from repro.lang.parser import parse_program
    from repro.sched.scheduler import prepare_program
    from repro.synth.precision import generate_precision_suite, suite_source

    configs = [
        EngineConfig(),
        EngineConfig(max_call_depth=1, max_paths_per_source=1),
        EngineConfig(pta_tier="fs"),
    ]
    analyzers = [IncrementalAnalyzer(config) for config in configs]
    source = suite_source(generate_precision_suite())
    program = parse_program(source)
    # Line-preserving body edits, each spliced in as one definition.
    edits = [
        ("bug_direct_uaf", "*p = c;", "*p = c + 1;"),
        ("fp_null_branch", "return r;", "return r + 1;"),
    ]
    for step in range(len(edits) + 1):
        if step:
            name, old, new = edits[step - 1]
            start = source.index(f"fn {name}(")
            assert old in source[start:]
            source = source[:start] + source[start:].replace(old, new, 1)
            program = apply_function_edit(
                program, parse_program(source).function(name)
            )
        outputs = []
        for analyzer, config in zip(analyzers, configs):
            engine = analyzer.analyze_program(program)
            fresh = prepare_program(
                parse_program(source), store=MemoryTier(), pta_tier=config.pta_tier
            )
            assert engine.module.digests == fresh.digests
            warm = _check_all(engine)
            cold = _check_all(Pinpoint.from_program(parse_program(source), config))
            assert warm == cold, (step, config)
            outputs.append(repr(warm[0]))
        assert len(set(outputs)) == len(configs)
