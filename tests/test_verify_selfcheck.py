"""Tests for verify-mode resolution, the prepare driver's quarantine
wiring, and the ``repro selfcheck`` differential harness."""

import pytest

from repro.core.engine import EngineConfig, Pinpoint
from repro.ir import cfg
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.robust.diagnostics import DiagnosticLog, STAGE_VERIFY
from repro.seg.graph import SEG
from repro.verify import (
    MODE_FAST,
    MODE_OFF,
    Violation,
    record_violations,
    resolve_mode,
)
from repro.verify.selfcheck import parse_seed_spec, run_selfcheck

SOURCE = """
fn callee(p) {
    *p = 1;
    free(p);
    return 0;
}

fn main(a) {
    if (a > 3) { x = 1; } else { x = 2; }
    q = malloc();
    r = callee(q);
    return x;
}
"""


@pytest.fixture(autouse=True)
def fresh_registry():
    set_registry(MetricsRegistry())
    yield
    set_registry(MetricsRegistry())


# ----------------------------------------------------------------------
# Mode resolution
# ----------------------------------------------------------------------
def test_resolve_mode_explicit_wins(monkeypatch):
    monkeypatch.setenv("REPRO_VERIFY", "full")
    assert resolve_mode("fast") == "fast"


def test_resolve_mode_env_fallback(monkeypatch):
    monkeypatch.setenv("REPRO_VERIFY", "fast")
    assert resolve_mode() == MODE_FAST
    monkeypatch.delenv("REPRO_VERIFY")
    assert resolve_mode() == MODE_OFF


def test_resolve_mode_rejects_garbage(monkeypatch):
    monkeypatch.delenv("REPRO_VERIFY", raising=False)
    with pytest.raises(ValueError):
        resolve_mode("loud")
    monkeypatch.setenv("REPRO_VERIFY", "bogus")
    with pytest.raises(ValueError):
        resolve_mode()


def test_engine_config_rejects_bad_verify():
    with pytest.raises(ValueError):
        EngineConfig(verify="loud")


# ----------------------------------------------------------------------
# record_violations: dedup, severity split, metrics
# ----------------------------------------------------------------------
def test_record_violations_severity_and_dedup():
    log = DiagnosticLog()
    violations = [
        Violation("ssa-single-def", "f", "x redefined"),
        Violation("summary-interface", "f", "stranger"),
        # Same rule+unit+line as the first: dedups in the log, still
        # counts in the metric.
        Violation("ssa-single-def", "f", "y redefined"),
    ]
    errors = record_violations(violations, log)
    assert [v.rule for v in errors] == ["ssa-single-def", "ssa-single-def"]
    reasons = sorted(d.reason for d in log)
    assert reasons == [
        "invariant-violation:ssa-single-def",
        "invariant-violation:summary-interface",
    ]
    assert all(d.stage == STAGE_VERIFY for d in log)


# ----------------------------------------------------------------------
# Driver wiring: violating functions are quarantined, not fatal
# ----------------------------------------------------------------------
def corrupt_before_seg(monkeypatch, name, corrupt):
    """Apply ``corrupt`` to ``name``'s prepared function where the
    prepare driver builds its SEG: after its signature is published, so
    its callers are prepared against the intact signature."""
    from repro.sched import scheduler

    build = scheduler.build_seg

    def corrupting(prepared):
        if prepared.name == name:
            corrupt(prepared)
        return build(prepared)

    monkeypatch.setattr(scheduler, "build_seg", corrupting)


def add_ghost_aux_formal(prepared):
    # Break the Fig. 3 contract: the body now has an Aux formal its
    # signature does not advertise.
    prepared.function.aux_params.append("ghost.1")


def add_ghost_receiver(prepared):
    call = next(
        instr
        for instr in prepared.function.all_instrs()
        if isinstance(instr, cfg.Call) and instr.callee == "callee"
    )
    call.extra_receivers.append("ghost_recv.1")


def test_engine_quarantines_seg_verify_failure(monkeypatch):
    corrupt_before_seg(monkeypatch, "callee", add_ghost_aux_formal)
    engine = Pinpoint.from_source(SOURCE, EngineConfig(verify="fast"))
    assert "callee" not in engine.functions
    assert "main" in engine.functions  # only the offender is dropped
    assert "callee" in engine.module  # still a defined callee
    assert "callee" in engine.verify_failures
    kind, artifact = engine.verify_failures["callee"]
    assert kind == "seg"
    assert isinstance(artifact, SEG)
    diags = [d for d in engine.diagnostics if d.stage == STAGE_VERIFY]
    assert diags and diags[0].unit == "callee"
    assert diags[0].reason == "invariant-violation:aux-pairing"


def test_engine_full_mode_drops_caller_on_call_mismatch(monkeypatch):
    corrupt_before_seg(monkeypatch, "main", add_ghost_receiver)
    engine = Pinpoint.from_source(SOURCE, EngineConfig(verify="full"))
    assert "main" not in engine.functions
    assert "callee" in engine.functions
    assert engine.verify_failures["main"][0] == "seg"
    diags = [d for d in engine.diagnostics if d.stage == STAGE_VERIFY]
    assert any(
        d.reason == "invariant-violation:call-aux-pairing" for d in diags
    )


def test_verify_off_ignores_corruption(monkeypatch):
    corrupt_before_seg(monkeypatch, "callee", add_ghost_aux_formal)
    engine = Pinpoint.from_source(SOURCE, EngineConfig(verify="off"))
    assert "callee" in engine.functions
    assert not engine.verify_failures


def test_clean_run_with_full_verify_has_no_verify_diagnostics():
    engine = Pinpoint.from_source(SOURCE, EngineConfig(verify="full"))
    assert not engine.verify_failures
    assert not [d for d in engine.diagnostics if d.stage == STAGE_VERIFY]


# ----------------------------------------------------------------------
# Seed specs
# ----------------------------------------------------------------------
def test_parse_seed_spec_ranges_and_lists():
    assert parse_seed_spec("0..3") == [0, 1, 2, 3]
    assert parse_seed_spec("1,4,10..12") == [1, 4, 10, 11, 12]
    assert parse_seed_spec(" 7 ") == [7]


def test_parse_seed_spec_rejects_empty_and_reversed():
    with pytest.raises(ValueError):
        parse_seed_spec("")
    with pytest.raises(ValueError):
        parse_seed_spec("5..2")
    with pytest.raises(ValueError):
        parse_seed_spec("one")


# ----------------------------------------------------------------------
# The differential harness itself
# ----------------------------------------------------------------------
def test_selfcheck_passes_on_small_corpus():
    report = run_selfcheck([0, 1], lines=250)
    assert report.ok
    assert report.mode == "full"
    assert len(report.outcomes) == 2
    recall = report.recall_by_kind()
    assert recall, "corpus should seed at least one true defect kind"
    assert all(value == 1.0 for value in recall.values())
    for outcome in report.outcomes:
        assert outcome.ok
        assert not outcome.trap_reports
        assert not outcome.oracle_disagreements
        assert outcome.verify_violations == 0
        assert outcome.reports >= sum(outcome.total_by_kind.values())


def test_selfcheck_report_as_dict_shape():
    report = run_selfcheck([3], lines=250, oracle=False)
    data = report.as_dict()
    assert data["ok"] is True
    assert data["oracle"] is False
    assert data["checker"] == "use-after-free"
    assert data["seeds"][0]["seed"] == 3
    assert set(data) >= {
        "recall_by_kind",
        "trap_reports",
        "range_trap_reports",
        "other_false_positives",
        "verify_violations",
        "oracle_disagreements",
    }


def test_selfcheck_counts_verifier_violations_as_failure(monkeypatch):
    import repro.verify as verify_mod

    # A harness that passes while invariants are broken proves nothing:
    # force a violation and the seed must come back not-ok.
    monkeypatch.setattr(
        verify_mod,
        "verify_seg",
        lambda seg, prepared: [
            Violation("seg-dangling-edge", prepared.name, "injected")
        ],
    )
    report = run_selfcheck([0], lines=250, oracle=False)
    assert not report.ok
    assert report.outcomes[0].verify_violations > 0
