"""Fault injection, quarantine isolation, and CLI error handling."""

import pytest

from repro import Pinpoint, UseAfterFreeChecker
from repro.cli import main
from repro.robust import faults
from repro.robust.diagnostics import (
    REASON_QUARANTINED,
    STAGE_CHECKER,
    STAGE_PARSE,
    STAGE_PREPARE,
    STAGE_SEG,
    STAGE_SMT,
)
from repro.robust.faults import (
    FaultPlan,
    InjectedFault,
    fault_point,
    install_faults,
    reset_faults,
)

TWO_FUNCTIONS = """
fn helper(a) {
    p = malloc();
    free(p);
    x = *p;
    return x;
}

fn main(a) {
    y = helper(a);
    return y;
}
"""


@pytest.fixture(autouse=True)
def _clean_faults():
    reset_faults()
    yield
    reset_faults()


# ----------------------------------------------------------------------
# FaultPlan parsing and matching
# ----------------------------------------------------------------------
def test_plan_site_wide_fires_every_time():
    plan = FaultPlan("smt")
    assert plan.should_fire("smt")
    assert plan.should_fire("smt", "anything")
    assert not plan.should_fire("parse")


def test_plan_unit_targeting():
    plan = FaultPlan("prepare:helper")
    assert not plan.should_fire("prepare", "main")
    assert plan.should_fire("prepare", "helper")


def test_plan_counts_are_consumed():
    plan = FaultPlan("smt*2")
    assert plan.should_fire("smt")
    assert plan.should_fire("smt")
    assert not plan.should_fire("smt")


def test_plan_exact_unit_beats_site_wide():
    plan = FaultPlan("seg:main*1,seg")
    assert plan.should_fire("seg", "main")
    # Exact rule exhausted; the site-wide rule still covers main.
    assert plan.should_fire("seg", "main")
    assert plan.should_fire("seg", "other")


def test_plan_rejects_unknown_site():
    with pytest.raises(ValueError, match="unknown fault site"):
        FaultPlan("frobnicate")


@pytest.mark.parametrize("spec", ["sched:helper", "kill-worker:0"])
def test_plan_rejects_the_worker_sites(spec):
    # Preparation runs in one process: there is no worker to kill.
    with pytest.raises(ValueError, match="unknown fault site"):
        FaultPlan(spec)


def test_plan_rejects_bad_count():
    with pytest.raises(ValueError, match="bad fault count"):
        FaultPlan("smt*soon")


def test_fault_point_noop_without_plan():
    fault_point("parse", "anything")  # must not raise


def test_fault_point_fires_with_plan():
    install_faults("parse:broken")
    with pytest.raises(InjectedFault) as excinfo:
        fault_point("parse", "broken")
    assert excinfo.value.site == "parse"
    assert excinfo.value.unit == "broken"


def test_env_var_loads_plan(monkeypatch):
    monkeypatch.setenv(faults.ENV_VAR, "smt*1")
    # Force a fresh lazy load of the environment variable.
    faults._plan = None
    faults._env_loaded = False
    with pytest.raises(InjectedFault):
        fault_point("smt")
    fault_point("smt")  # count consumed: second hit passes


# ----------------------------------------------------------------------
# End-to-end: a fault at each site still yields a CheckResult whose
# diagnostics name the quarantined unit.
# ----------------------------------------------------------------------
def _check_with_fault(spec):
    install_faults(spec)
    engine = Pinpoint.from_source(TWO_FUNCTIONS, recover=True)
    return engine.check(UseAfterFreeChecker())


def test_parse_fault_quarantines_function():
    result = _check_with_fault("parse:helper")
    units = {(d.stage, d.unit) for d in result.diagnostics}
    assert (STAGE_PARSE, "helper") in units
    assert result.degraded


def test_prepare_fault_quarantines_function():
    result = _check_with_fault("prepare:helper")
    units = {(d.stage, d.unit) for d in result.diagnostics}
    assert (STAGE_PREPARE, "helper") in units
    assert any(d.reason == REASON_QUARANTINED for d in result.diagnostics)
    # main still analyzed: helper is treated as an opaque call.
    assert "main" not in {d.unit for d in result.diagnostics if d.stage == STAGE_PREPARE}


def test_seg_fault_quarantines_function():
    result = _check_with_fault("seg:helper")
    units = {(d.stage, d.unit) for d in result.diagnostics}
    assert (STAGE_SEG, "helper") in units


def test_smt_fault_degrades_not_crashes():
    result = _check_with_fault("smt")
    assert any(d.stage == STAGE_SMT for d in result.diagnostics)
    assert result.stats.quarantined_units >= 1
    # The candidate is still reported, just without an SMT verdict.
    assert len(result.reports) >= 1


def test_checker_crash_is_quarantined():
    class ExplodingChecker(UseAfterFreeChecker):
        name = "exploding"

        def sinks(self, prepared, seg):
            raise RuntimeError("checker bug")

    engine = Pinpoint.from_source(TWO_FUNCTIONS)
    result = engine.check(ExplodingChecker())
    assert any(
        d.stage == STAGE_CHECKER and d.reason == REASON_QUARANTINED
        for d in result.diagnostics
    )
    assert result.reports == []


def test_keyboard_interrupt_is_never_swallowed():
    class InterruptingChecker(UseAfterFreeChecker):
        name = "interrupting"

        def sinks(self, prepared, seg):
            raise KeyboardInterrupt()

    engine = Pinpoint.from_source(TWO_FUNCTIONS)
    with pytest.raises(KeyboardInterrupt):
        engine.check(InterruptingChecker())


# ----------------------------------------------------------------------
# CLI surfaces (satellites)
# ----------------------------------------------------------------------
def test_cli_fault_flag_exits_degraded(tmp_path, capsys):
    target = tmp_path / "prog.pin"
    target.write_text(TWO_FUNCTIONS)
    code = main(["check", str(target), "--all", "--fault", "prepare:helper"])
    captured = capsys.readouterr()
    assert code == 3
    assert "helper" in captured.out


def test_cli_parse_error_is_file_line_message(tmp_path, capsys):
    target = tmp_path / "garbage.pin"
    target.write_text("this is not a program at all {{{\n")
    code = main(["check", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"{target}:")
    assert "Traceback" not in captured.err


def test_cli_run_bad_args_exits_two(tmp_path, capsys):
    target = tmp_path / "prog.pin"
    target.write_text("fn main(a) { return a; }\n")
    code = main(["run", str(target), "--args", "x,y"])
    captured = capsys.readouterr()
    assert code == 2
    assert "integer" in captured.err.lower()


def test_cli_bad_depth_exits_two(tmp_path, capsys):
    target = tmp_path / "prog.pin"
    target.write_text("fn main(a) { return a; }\n")
    code = main(["check", str(target), "--depth", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert "max_call_depth" in captured.err


def test_cli_strict_mode_fails_on_malformed(tmp_path, capsys):
    target = tmp_path / "broken.pin"
    target.write_text("fn ok() { return 1; }\nfn bad( { return 2; }\n")
    assert main(["check", str(target), "--strict"]) == 2
    capsys.readouterr()
    # Default (recovering) mode degrades instead.
    assert main(["check", str(target)]) == 3
