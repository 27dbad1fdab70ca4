"""Summary conditions are built on first read, with output identical to
building each one when its summary is recorded.

A VF summary's condition is assembled only when a caller splices it
into a candidate (or a lint reads it); an RV summary's ``DD`` only when
a receiver is resolved through it.  Session records keep their
conditions lazy too: a replayed condition is built by the first later
run that reads it.  Three rules keep the output what eager building
gave: a function's conditions draw their clone contexts from that
function's own allocator in record order, a late build sees only the
callee summaries that existed when it was recorded, and a condition
holds the run that builds it weakly (the recording run, or the session
run that last replayed its record).
"""

import functools
import gc
import json
import weakref

import pytest

import repro.core.engine as engine_mod
from repro import Pinpoint, UseAfterFreeChecker
from repro.cli import CHECKERS, main
from repro.core.engine import EngineConfig
from repro.core.incremental import IncrementalAnalyzer
from repro.core.report import report_as_dict
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.synth.generator import GeneratorConfig, generate_program

# The second call of ``id`` splices its summary into the candidate after
# the first call's summary has used context 1 of ``f``'s numbering.
NUMBERING = """\
fn id(q) {
  return q;
}
fn f(p) {
  a = id(p);
  m = malloc();
  *m = p;
  free(m);
  b = id(m);
  v = *b;
  return a;
}
fn main(c) {
  x = malloc();
  y = f(x);
  return 0;
}
"""

NUMBERING_CONDITION = (
    "((b.0 | !(q.0~2)) & (b.0 == q.0~2) & (m.0 | !(q.0~2)) & (0 != m.0) "
    "& (q.0~2 == m.0) & (q.0~2 | !(b.0)) & (q.0~2 | !(m.0)))"
)

# ``apick`` and ``zlevel`` form one SCC and ``apick`` is processed first,
# so ``apick``'s conditions were recorded before ``zlevel`` had summaries.
VISIBILITY = """\
fn apick(p, n) {
  k = zlevel(p, n);
  if (k > 3) {
    return p;
  }
  return 0;
}
fn zlevel(p, n) {
  if (n > 0) {
    t = apick(p, n - 1);
    return n;
  }
  return 0;
}
fn main(c) {
  p = malloc();
  *p = c;
  free(p);
  x = apick(p, c);
  v = *x;
  return v;
}
"""


def _loc(function, line, variable):
    return {"function": function, "line": line, "variable": variable}


# ``check --all --json`` reports for VISIBILITY, as building every
# condition when its summary was recorded gave them.
VISIBILITY_REPORTS = [
    {
        "checker": "use-after-free",
        "source": _loc("main", 18, "p.0"),
        "sink": _loc("main", 20, "x.0"),
        "path": [
            _loc("main", 18, "p.0"),
            _loc("main", 19, "p.0"),
            _loc("main", 19, "x.0"),
            _loc("main", 20, "x.0"),
        ],
        "condition": (
            "((!(%ret.2~1) | x.0) & ((k.0~1 > 3) | !(%t1.0~1)) & "
            "(!(p.0) | p.0~1) & (%ret.2~1 == x.0) & (%ret.2~1 == %ret.1~1) & "
            "%t1.0~1 & (%ret.1~1 == p.0~1) & (%ret.2~1 | !(x.0)) & "
            "(p.0 != 0) & (p.0 == p.0~1) & (%t1.0~1 | (k.0~1 <= 3)) & "
            "(!(p.0~1) | p.0))"
        ),
        "verdict": "sat",
    },
    {
        "checker": "null-deref",
        "source": _loc("apick", 6, "%ret.0"),
        "sink": _loc("main", 20, "x.0"),
        "path": [_loc("main", 20, "x.0")],
        "condition": (
            "((!(%ret.2~1) | x.0) & ((k.0~1 > 3) | !(%t1.0~1)) & "
            "(%ret.2~1 == x.0) & !(%t1.0~1) & (%ret.2~1 | !(x.0)) & "
            "(%t1.0~1 | (k.0~1 <= 3)) & (%ret.2~1 == %ret.0~1))"
        ),
        "verdict": "sat",
    },
]


@functools.lru_cache(maxsize=None)
def subject_2k() -> str:
    """The program of ``repro generate --lines 2000 --seed 11 --taint``."""
    config = GeneratorConfig(seed=11, target_lines=2000, taint_period=7)
    return generate_program(config).source


def check_reports(tmp_path, capsys, source, *flags):
    path = tmp_path / "subject.pin"
    path.write_text(source)
    main(["check", str(path), "--all", "--json", *flags])
    return json.loads(capsys.readouterr().out)["reports"]


@pytest.fixture
def registry():
    previous = get_registry()
    fresh = set_registry(MetricsRegistry())
    yield fresh
    set_registry(previous)


def run_all_checkers(engine):
    return [engine.check(checker()) for checker in CHECKERS.values()]


# ----------------------------------------------------------------------
# Identity with eager building
# ----------------------------------------------------------------------
def test_numbering_follows_record_order():
    engine = Pinpoint.from_source(NUMBERING)
    (report,) = engine.check(UseAfterFreeChecker()).reports
    assert report.condition == NUMBERING_CONDITION


def test_late_build_sees_only_summaries_recorded_before(tmp_path, capsys):
    assert check_reports(tmp_path, capsys, VISIBILITY) == VISIBILITY_REPORTS


@pytest.mark.parametrize("subject", ["numbering", "visibility", "generated-2k"])
def test_verify_full_builds_everything_with_identical_reports(
    tmp_path, capsys, subject
):
    source = {
        "numbering": NUMBERING,
        "visibility": VISIBILITY,
        "generated-2k": subject_2k(),
    }[subject]
    lazy = check_reports(tmp_path, capsys, source, "--verify", "off")
    built = check_reports(tmp_path, capsys, source, "--verify", "full")
    assert lazy
    assert built == lazy


# ----------------------------------------------------------------------
# Ownership
# ----------------------------------------------------------------------
@pytest.mark.parametrize("session", [False, True], ids=["one-shot", "session"])
def test_engine_and_runs_are_freed_without_the_cycle_collector(
    monkeypatch, session
):
    runs = []
    init = engine_mod._CheckerRun.__init__

    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        runs.append(weakref.ref(self))

    monkeypatch.setattr(engine_mod._CheckerRun, "__init__", tracked_init)
    analyzer = IncrementalAnalyzer() if session else None
    gc.collect()
    gc.disable()
    try:
        if session:
            engine = analyzer.analyze(subject_2k())
        else:
            engine = Pinpoint.from_source(subject_2k())
        run_all_checkers(engine)
        engine_ref = weakref.ref(engine)
        del engine
        assert engine_ref() is None
        assert len(runs) == len(CHECKERS)
        assert all(run() is None for run in runs)
    finally:
        gc.enable()
        # Collect what piled up while the collector was off, so no later
        # test pays for it.
        gc.collect()


# ``g`` reads none of ``pick``'s summaries; the edit below makes it
# splice them into a use-after-free and a null-deref candidate.  Building
# ``pick``'s conditions splices ``id``'s summary in turn, drawing a
# context from ``pick``'s own allocator.
REPLAYED = """\
fn id(q) {
  return q;
}
fn pick(q, n) {
  r = 0;
  if (n > 0) {
    r = id(q);
  }
  return r;
}
fn g(c) {
  p = malloc();
  y = pick(c, c);
  free(p);
  v = *p;
  return v;
}
"""

# Line-preserving body edit of ``g`` only.
REPLAYED_EDIT = REPLAYED.replace("y = pick(c, c);", "y = pick(p, c);").replace(
    "v = *p;", "v = *y;"
)


def all_reports(engine):
    return [
        [report_as_dict(report) for report in result]
        for result in run_all_checkers(engine)
    ]


def test_replayed_condition_built_later_reads_as_in_a_cold_run():
    analyzer = IncrementalAnalyzer()
    all_reports(analyzer.analyze(REPLAYED))
    (vf1,) = analyzer.check_memo.table("use-after-free")["pick"].summaries.vf1
    assert vf1.constraint._built is None
    warm = all_reports(analyzer.analyze(REPLAYED_EDIT))
    # ``pick``'s record was replayed, and the edited ``g`` built its condition.
    assert analyzer.check_memo.table("use-after-free")["pick"].summaries.vf1[0] is vf1
    assert vf1.constraint._built is not None
    cold = all_reports(Pinpoint.from_source(REPLAYED_EDIT))
    assert warm == cold
    assert any("~" in report["condition"] for result in cold for report in result)


# ----------------------------------------------------------------------
# engine.summaries.forced
# ----------------------------------------------------------------------
def forced(registry, kind):
    metric = registry.get("engine.summaries.forced")
    if metric is None:
        return 0
    return sum(value for labels, value in metric.items() if labels["kind"] == kind)


# --verify full would build every condition through the summary lints.
NO_LINTS = EngineConfig(verify="off")


def test_one_shot_builds_fewer_conditions_than_it_records(registry):
    results = run_all_checkers(Pinpoint.from_source(subject_2k(), NO_LINTS))
    recorded = sum(result.stats.summaries_vf for result in results)
    assert 0 < forced(registry, "vf") < recorded
    assert forced(registry, "rv") < sum(r.stats.summaries_rv for r in results)


def test_session_cold_check_builds_what_a_one_shot_check_builds(registry):
    run_all_checkers(Pinpoint.from_source(subject_2k(), NO_LINTS))
    one_shot = registry.get("engine.summaries.forced").items()
    session = set_registry(MetricsRegistry())
    run_all_checkers(IncrementalAnalyzer(NO_LINTS).analyze(subject_2k()))
    assert session.get("engine.summaries.forced").items() == one_shot
    assert forced(session, "vf") > 0
    labels = {labels["checker"] for labels, _ in one_shot}
    assert labels == set(CHECKERS)
