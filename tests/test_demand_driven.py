"""Demand-driven checker runs equal runs over every function.

A checker run processes only its demand set
(:func:`repro.core.engine.demand_set`): the functions from which a
function holding one of its sources is reachable, and every function
they reach by a call.  The oracle is the same engine with the demand set
forced to every function.  Reports, diagnostics and every stats field
must be equal, except the five that count the work of processed
functions only.
"""

from __future__ import annotations

import pytest

import repro.core.engine as engine_mod
from repro import IncrementalAnalyzer, Pinpoint
from repro.cli import CHECKERS
from repro.core.checkers.memory_leak import MemoryLeakChecker
from repro.core.checkers.use_after_free import UseAfterFreeChecker
from repro.core.query import ValueFlowQuery
from repro.core.report import report_as_dict
from repro.ir.callgraph import CallGraph
from repro.lang.parser import parse_program
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.synth import juliet, precision
from repro.synth.generator import GeneratorConfig, generate_program

#: The stats fields that count processed functions only.
DEMAND_COUNTED = (
    "search_steps",
    "summaries_rv",
    "summaries_vf",
    "summary_hits",
    "summary_misses",
)


def every_function(callgraph, holders):
    return set(callgraph.callees)


def outcome(engine, checkers):
    results = [engine.check(checker) for checker in checkers]
    stats = []
    for result in results:
        fields = result.stats.as_dict()
        for name in DEMAND_COUNTED:
            del fields[name]
        stats.append(fields)
    return (
        [report_as_dict(report) for result in results for report in result],
        [diag.as_dict() for result in results for diag in result.diagnostics],
        stats,
    )


def assert_demand_equals_oracle(engine, monkeypatch, checkers=None):
    """Check ``engine`` with the demand set and with every function;
    returns the demand-driven reports."""
    make = checkers or (lambda: [checker() for checker in CHECKERS.values()])
    demanded = outcome(engine, make())
    with monkeypatch.context() as patch:
        patch.setattr(engine_mod, "demand_set", every_function)
        oracle = outcome(engine, make())
    assert demanded == oracle
    return demanded[0]


def skipped(checker: str) -> int:
    return get_registry().get("engine.demand.skipped").value(checker=checker)


@pytest.fixture
def registry():
    """A fresh metrics registry, so ``skipped`` counts one test's runs."""
    previous = get_registry()
    try:
        yield set_registry(MetricsRegistry())
    finally:
        set_registry(previous)


# ----------------------------------------------------------------------
# The demand set itself
# ----------------------------------------------------------------------
CONES = """
fn leaf(p) { x = *p; return x; }
fn ident(p) { return p; }
fn make() { p = malloc(); free(p); return p; }
fn mid() { p = make(); q = ident(p); x = leaf(q); return x; }
fn top() { r = mid(); return r; }
fn side(p) { y = *p; return y; }
fn other() { s = side(0); return s; }
fn ping(n) { if (n > 0) { r = pong(n - 1); return r; } return 0; }
fn pong(n) { r = ping(n); t = leaf(n); return r; }
fn caller() { r = ping(3); return r; }
"""


def test_demand_set_is_ancestors_and_their_callees():
    callgraph = CallGraph(parse_program(CONES))
    # ``ident`` holds no source and reaches none, yet ``mid`` reads its
    # summaries: it is demanded as a callee of an ancestor of ``make``.
    assert engine_mod.demand_set(callgraph, {"make"}) == {
        "make", "mid", "top", "ident", "leaf",
    }
    # A holder in a recursive SCC brings the whole SCC, its callers and
    # their callees.
    assert engine_mod.demand_set(callgraph, {"pong"}) == {
        "ping", "pong", "caller", "leaf",
    }
    assert engine_mod.demand_set(callgraph, set()) == set()


# ----------------------------------------------------------------------
# Generated subjects, suites and queries
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("lines", [300, 2000])
@pytest.mark.parametrize("taint", [0, 7])
def test_generated_programs(monkeypatch, seed, lines, taint):
    source = generate_program(
        GeneratorConfig(seed=seed, target_lines=lines, taint_period=taint)
    ).source
    assert assert_demand_equals_oracle(Pinpoint.from_source(source), monkeypatch)


def test_juliet_like_suite(monkeypatch):
    source = juliet.suite_source(juliet.generate_juliet_suite())
    assert assert_demand_equals_oracle(Pinpoint.from_source(source), monkeypatch)


def test_precision_suite(monkeypatch):
    source = precision.suite_source(precision.generate_precision_suite())
    assert assert_demand_equals_oracle(Pinpoint.from_source(source), monkeypatch)


def test_value_flow_query(monkeypatch, registry):
    source = generate_program(
        GeneratorConfig(seed=2, target_lines=2000, taint_period=7)
    ).source
    engine = Pinpoint.from_source(source)
    query = (
        ValueFlowQuery("input-to-open")
        .values_returned_by("fgetc")
        .reaching_arguments_of("fopen")
        .through_operators()
    )
    flows = [report_as_dict(report) for report in query.run(engine)]
    with monkeypatch.context() as patch:
        patch.setattr(engine_mod, "demand_set", every_function)
        oracle = [report_as_dict(report) for report in query.run(engine)]
    assert flows and flows == oracle
    assert skipped("input-to-open") > 0


# ----------------------------------------------------------------------
# Hand cases
# ----------------------------------------------------------------------
PASS_THROUGH = """\
fn ident(p) {
  return p;
}
fn main() {
  p = malloc();
  q = ident(p);
  free(p);
  x = *q;
  return x;
}
"""

# VF2: the callee frees and returns its allocation.
FREE_AND_RETURN = """\
fn make() {
  p = malloc();
  free(p);
  return p;
}
fn main() {
  q = make();
  x = *q;
  return x;
}
fn unrelated(a) {
  b = a + 1;
  return b;
}
"""

# VF3: the callee frees its parameter.
FREES_PARAM = """\
fn release(p) {
  free(p);
  return 0;
}
fn main() {
  p = malloc();
  r = release(p);
  x = *p;
  return x + r;
}
"""

# The source sits in ``b``, the member of the SCC {a, b} processed
# second; ``a``'s summaries carry it to the dereference.
RECURSIVE = """\
fn a(p, n) {
  if (n > 0) {
    r = b(p, n - 1);
    return r;
  }
  x = *p;
  return x;
}
fn b(p, n) {
  free(p);
  r = a(p, n);
  return r;
}
fn main(n) {
  p = malloc();
  r = a(p, n);
  return r;
}
fn bystander(q) {
  y = *q;
  return y;
}
"""

# Memory leak: ``release`` frees what ``kept`` allocates; nothing frees
# what ``lost`` allocates.
LEAK_THROUGH_CALLEE = """\
fn release(p) {
  free(p);
  return 0;
}
fn keep(p) {
  return 0;
}
fn kept() {
  p = malloc();
  r = release(p);
  return r;
}
fn lost() {
  p = malloc();
  r = keep(p);
  return r;
}
"""


def sink_pairs(reports, checker):
    return [
        (
            f"{r['source']['function']}:{r['source']['line']}",
            f"{r['sink']['function']}:{r['sink']['line']}",
        )
        for r in reports
        if r["checker"] == checker
    ]


@pytest.mark.parametrize(
    "source, expected",
    [
        (PASS_THROUGH, [("main:7", "main:8")]),
        (FREE_AND_RETURN, [("make:3", "main:8")]),
        (FREES_PARAM, [("release:2", "main:8")]),
        (RECURSIVE, [("b:10", "a:6")]),
    ],
    ids=["pass-through", "vf2-free-and-return", "vf3-frees-param", "recursive-scc"],
)
def test_use_after_free_hand_cases(monkeypatch, source, expected):
    reports = assert_demand_equals_oracle(Pinpoint.from_source(source), monkeypatch)
    assert sink_pairs(reports, "use-after-free") == expected


def test_hand_cases_skip_only_the_unrelated(registry):
    Pinpoint.from_source(FREE_AND_RETURN).check(UseAfterFreeChecker())
    assert skipped("use-after-free") == 1  # ``unrelated``
    Pinpoint.from_source(RECURSIVE).check(UseAfterFreeChecker())
    assert skipped("use-after-free") == 2  # and ``bystander``


def test_memory_leak_through_a_freeing_callee(monkeypatch):
    reports = assert_demand_equals_oracle(
        Pinpoint.from_source(LEAK_THROUGH_CALLEE),
        monkeypatch,
        checkers=lambda: [MemoryLeakChecker()],
    )
    assert sink_pairs(reports, "memory-leak") == [("lost:14", "lost:14")]


class ScanFails(UseAfterFreeChecker):
    """``sources()`` raises on two functions that hold no source."""

    def sources(self, prepared, seg):
        if prepared.name in ("bystander", "unrelated"):
            raise RuntimeError(f"no scan for {prepared.name}")
        return super().sources(prepared, seg)


def test_checker_whose_sources_raise(monkeypatch):
    source = RECURSIVE + FREE_AND_RETURN.replace("fn main()", "fn main2()")
    engine = Pinpoint.from_source(source)
    reports = assert_demand_equals_oracle(
        engine, monkeypatch, checkers=lambda: [ScanFails()]
    )
    assert reports
    result = engine.check(ScanFails())
    assert [(d.unit, d.detail) for d in result.diagnostics] == [
        ("bystander", "RuntimeError: no scan for bystander"),
        ("unrelated", "RuntimeError: no scan for unrelated"),
    ]
    assert result.stats.quarantined_units == 2


# ----------------------------------------------------------------------
# Session edits
# ----------------------------------------------------------------------
# ``entry`` and its callees hold no taint source: path-traversal skips
# them, until an edit gives ``entry`` one.
TAINT_BASE = """\
fn open_path(s) {
  f = fopen(s);
  return f;
}
fn route(x) {
  r = open_path(x);
  return r;
}
fn entry(n) {
  y = n + 1;
  r = route(y);
  return r;
}
fn main(n) {
  p = malloc();
  free(p);
  x = *p;
  e = entry(n);
  return x + e;
}
fn helper(z) {
  w = z * 2;
  return w;
}
"""
TAINTED = TAINT_BASE.replace("  y = n + 1;", "  y = fgets();")


def full_outcome(engine):
    results = [engine.check(checker()) for checker in CHECKERS.values()]
    return (
        [report_as_dict(report) for result in results for report in result],
        [diag.as_dict() for result in results for diag in result.diagnostics],
        [result.stats.as_dict() for result in results],
    )


def test_session_edits_that_add_and_remove_a_source_match_cold_runs(registry):
    analyzer = IncrementalAnalyzer()
    for label, text, flows in (
        ("cold", TAINT_BASE, 0),
        ("first source", TAINTED, 1),
        ("source removed", TAINT_BASE, 0),
    ):
        set_registry(MetricsRegistry())
        warm = full_outcome(analyzer.analyze(text))
        # With no source, every function is skipped; with one in
        # ``entry``, only ``helper``.
        assert skipped("path-traversal") == (5 if flows == 0 else 1), label
        # Stats included: a session skips what a cold run skips.
        assert warm == full_outcome(Pinpoint.from_source(text)), label
        assert len(sink_pairs(warm[0], "path-traversal")) == flows, label


def test_session_rescans_only_changed_functions(monkeypatch):
    analyzer = IncrementalAnalyzer()
    analyzer.analyze(TAINT_BASE).check(UseAfterFreeChecker())
    scanned = []
    sources = UseAfterFreeChecker.sources

    def counting(self, prepared, seg):
        scanned.append(prepared.name)
        return sources(self, prepared, seg)

    monkeypatch.setattr(UseAfterFreeChecker, "sources", counting)
    analyzer.analyze(TAINT_BASE).check(UseAfterFreeChecker())
    assert scanned == []
    analyzer.analyze(TAINTED).check(UseAfterFreeChecker())
    assert scanned == ["entry"]
