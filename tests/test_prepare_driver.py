"""The one bottom-up prepare driver, seen from every entry point.

One-shot runs (``Pinpoint.from_source``) and incremental sessions
(``IncrementalAnalyzer``, the daemon's engine) prepare through the same
``repro.sched.scheduler.prepare_program``, so they must agree on
reports *and* diagnostics under fault injection, step budgets and IR
verification.  The driver's single store write-back must keep
budget-degraded artifacts out of the content-addressed store, and its
wall time feeds ``engine.seconds``: SEG construction as ``seg``, the rest
as ``prepare``.
"""

import json

import pytest

from repro import EngineConfig, IncrementalAnalyzer, Pinpoint, ResourceBudget
from repro.cache.store import CACHE_DIR_ENV
from repro.cli import CHECKERS, main
from repro.core.incremental import apply_function_edit
from repro.core.report import report_as_dict
from repro.lang.parser import parse_program
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.robust.diagnostics import REASON_BUDGET, STAGE_PREPARE, STAGE_PTA
from repro.robust.faults import install_faults, reset_faults
from repro.synth.generator import GeneratorConfig, generate_program

PROGRAM = """
fn helper(p) { x = *p; return x; }
fn other(n) { return n + 1; }
fn main() {
    p = malloc();
    free(p);
    y = helper(p);
    z = other(y);
    return z;
}
"""

#: A body-only edit of `other`: same interface, so a warm session
#: re-prepares exactly that one function.
EDITED_OTHER = "fn other(n) { m = n + 2; return m; }"


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    reset_faults()
    set_registry(MetricsRegistry())
    yield
    reset_faults()
    set_registry(MetricsRegistry())


def _findings(engine):
    """Every checker's reports plus the deduplicated diagnostics: the
    shape ``repro check --all --json`` and the daemon both emit."""
    reports, diagnostics, seen = [], [], set()
    for name in CHECKERS:
        result = engine.check(CHECKERS[name]())
        reports.extend(report_as_dict(report) for report in result)
        for diag in result.diagnostics:
            key = (diag.stage, diag.unit, diag.reason, diag.line, diag.detail)
            if key not in seen:
                seen.add(key)
                diagnostics.append(diag.as_dict())
    return reports, diagnostics


def _edited(source):
    return source.replace("fn other(n) { return n + 1; }", EDITED_OTHER)


def _generated(lines=600, seed=3):
    return generate_program(GeneratorConfig(seed=seed, target_lines=lines)).source


# ----------------------------------------------------------------------
# One-shot vs incremental parity
# ----------------------------------------------------------------------
def test_incremental_matches_one_shot_under_prepare_fault():
    install_faults("prepare:helper")
    one_shot = _findings(Pinpoint.from_source(PROGRAM))
    assert any(
        d["stage"] == STAGE_PREPARE and d["unit"] == "helper" for d in one_shot[1]
    )

    analyzer = IncrementalAnalyzer()
    program = parse_program(PROGRAM)
    assert _findings(analyzer.analyze_program(program)) == one_shot

    # The quarantined function never reached the memory tier, so the
    # edit re-prepares it too — and faults again, like a one-shot run.
    edited = apply_function_edit(program, parse_program(EDITED_OTHER).functions[0])
    warm = _findings(analyzer.analyze_program(edited))
    assert analyzer.last_stats.analyzed == 2  # `other` and `helper`
    assert warm == _findings(Pinpoint.from_source(_edited(PROGRAM)))


def test_incremental_matches_one_shot_under_step_budget():
    source = _generated()
    one_shot = _findings(
        Pinpoint.from_source(source, budget=ResourceBudget(max_steps=200))
    )
    # The budget runs out during preparation, not only during the search.
    assert any(
        d["stage"] == STAGE_PTA and d["reason"] == REASON_BUDGET
        for d in one_shot[1]
    )
    engine = IncrementalAnalyzer().analyze_program(
        parse_program(source), budget=ResourceBudget(max_steps=200)
    )
    assert _findings(engine) == one_shot


def test_incremental_matches_one_shot_with_fast_verify():
    config = EngineConfig(verify="fast")
    analyzer = IncrementalAnalyzer(config)
    program = parse_program(PROGRAM)
    cold = _findings(analyzer.analyze_program(program))
    ir_seconds = get_registry().counter("verify.seconds").value(stage="ir")
    assert ir_seconds > 0  # incremental preparation runs the IR verifier
    assert cold == _findings(Pinpoint.from_source(PROGRAM, config))

    edited = apply_function_edit(program, parse_program(EDITED_OTHER).functions[0])
    warm = _findings(analyzer.analyze_program(edited))
    assert analyzer.last_stats.analyzed == 1
    assert warm == _findings(Pinpoint.from_source(_edited(PROGRAM), config))


# ----------------------------------------------------------------------
# The store never keeps a budget-degraded artifact
# ----------------------------------------------------------------------
def test_budget_degraded_artifacts_stay_out_of_the_store(tmp_path, capsys):
    path = tmp_path / "subject.pin"
    path.write_text(_generated())
    cache_dir = str(tmp_path / "cache")
    base = ["check", str(path), "--all", "--json"]

    assert main(base + ["--max-steps", "200", "--cache-dir", cache_dir]) == 3
    capsys.readouterr()
    set_registry(MetricsRegistry())
    warm_code = main(base + ["--cache-dir", cache_dir])
    warm = json.loads(capsys.readouterr().out)
    assert get_registry().counter("cache.hits").total() > 0  # the store served
    set_registry(MetricsRegistry())
    cold_code = main(base)
    cold = json.loads(capsys.readouterr().out)

    # The warm run is the cold unbudgeted run: no budget-exhausted
    # artifact came back out of the store.
    assert warm_code == cold_code == 1
    assert warm["diagnostics"] == cold["diagnostics"] == []
    assert warm["reports"] == cold["reports"]


#: The functions whose points-to conditions a 200-step budget degrades
#: on ``_generated()``: the call graph's bottom-up order spends the
#: steps, so the set is the same in every mode that starts without
#: stored artifacts.
DEGRADED_AT_200_STEPS = [
    "u7_m2", "u7_root", "u9_leaf", "u9_m1", "u9_m2", "u9_root",
]


def _budget_degraded(diagnostics):
    return sorted(
        d["unit"]
        for d in diagnostics
        if d["stage"] == STAGE_PTA and d["reason"] == REASON_BUDGET
    )


def test_tight_budget_degrades_the_same_functions_in_every_mode(
    tmp_path, capsys
):
    # A warm rerun over the same cache dir is left out on purpose: store
    # hits spend no steps, so it degrades fewer functions.
    source = _generated()
    path = tmp_path / "subject.pin"
    path.write_text(source)
    base = ["check", str(path), "--all", "--json", "--max-steps", "200"]
    degraded = {}
    for mode, flags in (
        ("serial", []),
        ("cold-cache", ["--cache-dir", str(tmp_path / "cache")]),
    ):
        set_registry(MetricsRegistry())
        assert main(base + flags) == 3
        document = json.loads(capsys.readouterr().out)
        degraded[mode] = _budget_degraded(document["diagnostics"])
    engine = IncrementalAnalyzer().analyze_program(
        parse_program(source), budget=ResourceBudget(max_steps=200)
    )
    degraded["incremental"] = _budget_degraded(_findings(engine)[1])
    assert degraded == {mode: DEGRADED_AT_200_STEPS for mode in degraded}


# ----------------------------------------------------------------------
# The driver publishes its wall time as engine.seconds{phase=prepare}
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["serial", "incremental"])
def test_seconds_prepare_is_populated(mode):
    if mode == "incremental":
        engine = IncrementalAnalyzer().analyze(PROGRAM)
    else:
        engine = Pinpoint.from_source(PROGRAM)
    seconds = get_registry().counter("engine.seconds")
    prepare = seconds.value(phase="prepare")
    assert prepare > 0
    # Published once per prepared module, with no checker label: neither
    # the checker runs nor another engine over the module add to it.
    engine.check(CHECKERS["use-after-free"]())
    engine.check(CHECKERS["double-free"]())
    Pinpoint(engine.module, engine.config)
    phases = [labels for labels, _ in seconds.items() if labels["phase"] == "prepare"]
    assert phases == [{"phase": "prepare"}]
    assert seconds.value(phase="prepare") == prepare


def test_driver_builds_every_seg_without_a_store():
    from repro.sched.scheduler import prepare_program

    module = prepare_program(parse_program(PROGRAM))
    assert set(module.segs) == set(module.functions) == {"helper", "main", "other"}
    engine = Pinpoint(module)
    assert all(engine.functions[name].seg is module.segs[name] for name in module.segs)


#: Added to every SEG construction by the stage-time test below.
SEG_DELAY = 0.05


@pytest.mark.parametrize("mode", ["plain", "cold-cache", "incremental"])
def test_seg_stage_times_seg_construction_in_every_mode(
    mode, monkeypatch, tmp_path
):
    # The driver builds every SEG, with or without a store, and times it
    # as the `seg` phase: a fixed delay in build_seg lands there, not in
    # `prepare`, and the phases still fit in the wall time.
    import sys
    import time

    from repro.seg import builder

    original = builder.build_seg
    built = []

    def slow(prepared):
        built.append(prepared.name)
        time.sleep(SEG_DELAY)
        return original(prepared)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "build_seg", None) is original:
            monkeypatch.setattr(module, "build_seg", slow)
    started = time.perf_counter()
    if mode == "plain":
        Pinpoint.from_source(PROGRAM)
    elif mode == "cold-cache":
        Pinpoint.from_source(PROGRAM, cache_dir=str(tmp_path / "cache"))
    else:
        IncrementalAnalyzer().analyze(PROGRAM)
    wall = time.perf_counter() - started
    assert sorted(built) == ["helper", "main", "other"]
    delay = SEG_DELAY * len(built)
    seconds = get_registry().counter("engine.seconds")
    assert seconds.value(phase="seg") >= delay
    assert seconds.value(phase="prepare") < delay
    assert seconds.value(phase="prepare") + seconds.value(phase="seg") <= wall


def test_from_source_accepts_and_ignores_jobs():
    """``jobs`` stays on ``from_source`` only for callers that still pass
    it; preparation runs in this process either way."""
    serial = _findings(Pinpoint.from_source(PROGRAM))
    assert _findings(Pinpoint.from_source(PROGRAM, jobs=2)) == serial
    assert get_registry().get("sched.jobs") is None
