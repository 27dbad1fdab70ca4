"""The flow-sensitive points-to tier (``--pta=fs``).

Covers the tier end to end: must-alias-proven strong updates remove the
null-branch false positive, kill-then-branch shapes, loop-carried
pointers and loop-allocated objects refuse the singleton proof, aliased
stores through phis stay weak, the fs tier reproduces the fi findings
byte-for-byte when fs adds nothing, fs points-to stays a subset of fi,
``prepare_program`` audits every fs function with the pta rules and
falls back to fi on a violation, the cache keys of the two tiers never
collide, warm incremental fs sessions replay the check memo, and reports
are deterministic across the artifact cache and hash seeds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.cache.keys import prepare_cache_key
from repro.core.checkers import UseAfterFreeChecker
from repro.core.engine import EngineConfig, Pinpoint
from repro.core.pipeline import prepare_source
from repro.ir import cfg
from repro.lang.parser import parse_program
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.pta.flowsense import FlowSensitivePTA
from repro.pta.memory import MustAlias
from repro.synth.precision import generate_precision_suite, suite_source
from repro.verify import verify_flow_tier


@pytest.fixture(autouse=True)
def _fresh_registry():
    set_registry(MetricsRegistry())
    yield
    set_registry(MetricsRegistry())


def _case(name: str):
    return next(c for c in generate_precision_suite() if c.name == name)


def _reports(source: str, tier: str):
    engine = Pinpoint.from_source(
        source, EngineConfig(pta_tier=tier, verify="fast")
    )
    result = engine.check(UseAfterFreeChecker())
    assert not engine.diagnostics.entries
    return engine, result


def _flow(source: str, name: str):
    prepared = prepare_source(source).functions[name]
    return FlowSensitivePTA(prepared.function).run()


# ----------------------------------------------------------------- kills
def test_strong_update_removes_null_branch_fp():
    source = _case("fp_null_branch").source
    _, fi = _reports(source, "fi")
    engine, fs = _reports(source, "fs")
    assert len(fi.reports) == 1
    assert not fs.reports
    prepared = engine.functions["fp_null_branch"].prepared
    assert prepared.pta_tier == "fs"
    assert prepared.points_to.strong_uids  # the kill was proof-driven


def test_kill_then_branch():
    source = _case("fp_kill_then_branch").source
    _, fi = _reports(source, "fi")
    _, fs = _reports(source, "fs")
    assert len(fi.reports) == 1
    assert not fs.reports


def test_must_alias_proof_backs_each_kill():
    source = _case("fp_null_branch").source
    flow = _flow(source, "fp_null_branch")
    assert flow.proofs, "the kill store must carry a must-alias proof"
    for proof in flow.proofs.values():
        assert proof.reason in ("singleton-alloc", "singleton-aux")
        target = flow.must_target(
            _store_pointer(source, "fp_null_branch", proof.store_uid)
        )
        assert target == MustAlias.singleton(proof.obj)


def _store_pointer(source: str, func: str, uid: int) -> str:
    function = prepare_source(source).functions[func].function
    for instr in function.all_instrs():
        if isinstance(instr, cfg.Store) and instr.uid == uid:
            return instr.pointer.name
    raise AssertionError(f"no store with uid {uid}")


# ------------------------------------------------- proof refusal shapes
def test_aliased_store_through_phi_stays_weak():
    source = _case("bug_phi_two_objects").source
    flow = _flow(source, "bug_phi_two_objects")
    # The kill pointer may alias two distinct allocations: must-alias
    # joins to top, the kill store gets no proof (the straight-line
    # setup stores legitimately keep theirs), and the report survives
    # both tiers.
    kill = _last_store(source, "bug_phi_two_objects")
    assert kill.uid not in flow.proofs
    assert flow.must_target(kill.pointer.name).is_singleton is False
    _, fi = _reports(source, "fi")
    _, fs = _reports(source, "fs")
    assert fi.reports and fs.reports


def _last_store(source: str, func: str) -> cfg.Store:
    function = prepare_source(source).functions[func].function
    stores = [i for i in function.all_instrs() if isinstance(i, cfg.Store)]
    assert stores
    return stores[-1]


def test_loop_alloc_singularity_refused():
    source = _case("fp_loop_alloc_kept").source
    flow = _flow(source, "fp_loop_alloc_kept")
    assert flow.cyclic_alloc_sites  # the loop allocation was detected
    assert not flow.proofs  # ... and disqualifies the proof
    _, fi = _reports(source, "fi")
    _, fs = _reports(source, "fs")
    assert len(fi.reports) == 1
    assert len(fs.reports) == 1  # kept: one abstract cell, many concrete


def test_loop_carried_pointer_is_top():
    # p's def-use chain cycles through the loop phi; must-alias must
    # over-approximate to top rather than claim a singleton.
    source = """
fn loop_carried(c) {
    p = malloc();
    i = 0;
    while (i < c) {
        q = *p;
        p = q;
        i = i + 1;
    }
    v = malloc();
    *p = v;
    return 0;
}
"""
    flow = _flow(source, "loop_carried")
    assert not flow.proofs
    function = prepare_source(source).functions["loop_carried"].function
    stores = [i for i in function.all_instrs() if isinstance(i, cfg.Store)]
    assert stores
    assert flow.must_target(stores[-1].pointer.name).is_singleton is False


# ------------------------------------------------------------- fs exact
def test_fs_reproduces_fi_findings_when_fs_adds_nothing():
    # Only genuine bugs: fs must re-confirm every fi report unchanged.
    bugs = [c for c in generate_precision_suite() if c.is_bug]
    source = suite_source(bugs)
    _, fi = _reports(source, "fi")
    _, fs = _reports(source, "fs")
    assert fs.reports == fi.reports
    # Byte-identical rendering, not just structural equality.
    assert "\n".join(map(str, fs.reports)) == "\n".join(map(str, fi.reports))


# ------------------------------------------------------------- subset
def test_fs_points_to_subset_of_fi():
    source = suite_source(generate_precision_suite())
    fi_module = prepare_source(source, pta_tier="fi")
    fs_module = prepare_source(source, pta_tier="fs")
    for name, fs_prepared in fs_module.functions.items():
        fi_prepared = fi_module.functions[name]
        violations = verify_flow_tier(fs_prepared, fi_prepared)
        assert not violations, [v.detail for v in violations]
        fi_pts = fi_prepared.points_to.points_to
        for var, cells in fs_prepared.points_to.points_to.items():
            fs_objs = {obj for obj, _ in cells}
            fi_objs = {obj for obj, _ in fi_pts.get(var, ())}
            assert fs_objs <= fi_objs, (name, var)


def test_verifier_flags_unjustified_strong_update():
    source = _case("bug_phi_two_objects").source
    fi_prepared = prepare_source(source, pta_tier="fi").functions[
        "bug_phi_two_objects"
    ]
    fs_prepared = prepare_source(source, pta_tier="fs").functions[
        "bug_phi_two_objects"
    ]
    assert not verify_flow_tier(fs_prepared, fi_prepared)
    # Forge a strong update with no backing proof: the verifier must
    # call it out as an error-severity violation.  Pick the kill store,
    # the one store flowsense could not prove.
    proven = set(fs_prepared.flow.proofs)
    store_uid = next(
        uid for uid in fs_prepared.points_to.store_targets
        if uid not in proven
    )
    fs_prepared.points_to.strong_uids = (store_uid,)
    violations = verify_flow_tier(fs_prepared, fi_prepared)
    assert any(v.rule == "pta-strong-update-proof" for v in violations)


# ----------------------------------------------------------- plumbing
def test_cache_keys_differ_by_tier():
    program = parse_program(_case("bug_direct_uaf").source)
    func_ast = program.functions[0]
    fi_key = prepare_cache_key(func_ast, {}, [], pta_tier="fi")
    fs_key = prepare_cache_key(func_ast, {}, [], pta_tier="fs")
    assert fi_key != fs_key
    assert prepare_cache_key(func_ast, {}, [], pta_tier="fs") == fs_key


def test_engine_config_rejects_unknown_tier():
    with pytest.raises(ValueError):
        EngineConfig(pta_tier="cs")


def test_tier_is_plain_fi_or_fs():
    assert EngineConfig().pta_tier == "fi"
    with pytest.raises(ValueError):
        EngineConfig(pta_tier="")  # no deferred tier: fi is the default
    engine = Pinpoint.from_source(
        _case("fp_null_branch").source, EngineConfig(pta_tier="fs")
    )
    assert engine.pta_tier == engine.module.pta_tier == "fs"


# ------------------------------------------------ prepare_program audit
def test_wave_gate_audits_every_fs_function(monkeypatch):
    import repro.verify

    audited = []
    real = repro.verify.verify_flow_tier

    def recording(fs_prepared, fi_prepared):
        audited.append(fs_prepared.name)
        return real(fs_prepared, fi_prepared)

    monkeypatch.setattr(repro.verify, "verify_flow_tier", recording)
    source = suite_source(generate_precision_suite())
    engine, _ = _reports(source, "fs")
    # Not only report endpoints: every prepared function, once.
    assert sorted(audited) == sorted(engine.module.functions)
    assert all(
        pf.prepared.pta_tier == "fs" for pf in engine.functions.values()
    )


def test_audit_is_clean_across_call_connectors():
    # The fi reference is prepared after the fs artifacts in the same
    # process; the rules only hold if both name every call connector
    # (A$/C$ values) alike.
    from repro.synth.generator import GeneratorConfig, generate_program

    source = generate_program(GeneratorConfig(seed=3, target_lines=600)).source
    engine = Pinpoint.from_source(
        source, EngineConfig(pta_tier="fs", verify="fast")
    )
    assert not engine.diagnostics.entries
    assert all(
        pf.prepared.pta_tier == "fs" for pf in engine.functions.values()
    )


def test_pta_rule_violation_keeps_fi_artifacts_and_exits_4(
    monkeypatch, tmp_path, capsys
):
    from repro.cli import main
    import repro.sched.scheduler as scheduler

    victim = "bug_phi_two_objects"
    real = scheduler.prepare_function

    def forging(func_ast, usable, linear=None, budget=None, pta_tier="fi"):
        # Forge a strong update no must-alias proof backs on the fs
        # artifacts of one function; its fi reference stays honest.
        result = real(func_ast, usable, linear, budget=budget, pta_tier=pta_tier)
        if pta_tier == "fs" and func_ast.name == victim:
            proven = set(result.flow.proofs)
            result.points_to.strong_uids = (
                next(u for u in result.points_to.store_targets if u not in proven),
            )
        return result

    monkeypatch.setattr(scheduler, "prepare_function", forging)
    source = suite_source(generate_precision_suite())
    engine = Pinpoint.from_source(
        source, EngineConfig(pta_tier="fs", verify="fast")
    )
    assert [
        (d.unit, d.reason) for d in engine.diagnostics
    ] == [(victim, "invariant-violation:pta-strong-update-proof")]
    # Analysed, not quarantined, and on its fi artifacts.
    assert engine.functions[victim].prepared.pta_tier == "fi"
    assert engine.functions["fp_null_branch"].prepared.pta_tier == "fs"
    reports = engine.check(UseAfterFreeChecker()).reports
    assert any(r.sink.function == victim for r in reports)

    path = tmp_path / "precision.pin"
    path.write_text(source)
    set_registry(MetricsRegistry())
    assert main(["check", str(path), "--pta", "fs", "--verify", "fast"]) == 4
    assert "pta-strong-update-proof" in capsys.readouterr().out


# --------------------------------------------------- incremental fs
def test_incremental_fs_session_replays_the_check_memo():
    from repro.cli import CHECKERS
    from repro.core.incremental import IncrementalAnalyzer
    from repro.core.report import aggregate_results, report_as_dict
    from repro.obs.metrics import get_registry

    def findings(engine):
        results = [engine.check(CHECKERS[name]()) for name in CHECKERS]
        diagnostics, _ = aggregate_results(results)
        return (
            [report_as_dict(r) for result in results for r in result],
            [d.as_dict() for d in diagnostics],
        )

    config = EngineConfig(pta_tier="fs")
    source = suite_source(generate_precision_suite())
    # A body edit that keeps every line number in place.
    edited = source.replace(
        "fn fp_null_branch(c) {\n", "fn fp_null_branch(c) { k = 1;\n"
    )
    assert edited != source
    analyzer = IncrementalAnalyzer(config)
    findings(analyzer.analyze(source))
    set_registry(MetricsRegistry())
    warm = findings(analyzer.analyze(edited))
    assert analyzer.last_stats.analyzed == 1
    assert get_registry().counter("engine.check_cache.hit").total() > 0
    assert warm == findings(Pinpoint.from_source(edited, config))


def test_stats_surface_tier_and_counters():
    source = suite_source(generate_precision_suite())
    _, fs = _reports(source, "fs")
    stats = fs.stats.as_dict()
    assert stats["pta_tier"] == "fs"
    assert stats["strong_updates"] > 0
    _, fi = _reports(source, "fi")
    assert fi.stats.as_dict()["pta_tier"] == "fi"


def test_history_record_carries_pta_section():
    from repro.obs.history import collect_run_record
    from repro.obs.metrics import get_registry

    source = suite_source(generate_precision_suite())
    engine, _ = _reports(source, "fs")
    record = collect_run_record(
        get_registry(),
        command="check",
        label="t",
        fingerprint="f",
        config={"pta": engine.pta_tier},
        wall_seconds=0.0,
    )
    assert record["pta"]["tier"] == "fs"
    assert record["pta"]["strong_updates"] > 0


# -------------------------------------------------------- determinism
def _json_check(path, capsys, *flags):
    from repro.cli import main

    set_registry(MetricsRegistry())
    code = main(["check", path, "--all", "--json", *flags])
    document = json.loads(capsys.readouterr().out)
    return code, {
        "reports": document["reports"],
        "diagnostics": document["diagnostics"],
        "stats": document["stats"],
    }


@pytest.mark.parametrize("tier", ["fi", "fs"])
def test_reports_identical_through_the_cache(tier, tmp_path, capsys):
    path = tmp_path / "precision.pin"
    path.write_text(suite_source(generate_precision_suite()))
    cache_dir = str(tmp_path / "cache")
    serial = _json_check(str(path), capsys, "--pta", tier)
    cold = _json_check(
        str(path), capsys, "--pta", tier, "--cache-dir", cache_dir
    )
    warm = _json_check(
        str(path), capsys, "--pta", tier, "--cache-dir", cache_dir
    )
    assert cold == serial
    assert warm == serial


def test_fi_fs_cache_artifacts_do_not_collide(tmp_path, capsys):
    # One shared cache directory, both tiers: each must produce its own
    # findings — a tier-blind cache key would replay fi artifacts as fs.
    path = tmp_path / "precision.pin"
    path.write_text(suite_source(generate_precision_suite()))
    cache_dir = str(tmp_path / "cache")
    _, fi_cold = _json_check(str(path), capsys, "--cache-dir", cache_dir)
    _, fs_cold = _json_check(
        str(path), capsys, "--pta", "fs", "--cache-dir", cache_dir
    )
    _, fi_warm = _json_check(str(path), capsys, "--cache-dir", cache_dir)
    _, fs_warm = _json_check(
        str(path), capsys, "--pta", "fs", "--cache-dir", cache_dir
    )
    assert fi_warm == fi_cold
    assert fs_warm == fs_cold
    assert len(fs_cold["reports"]) < len(fi_cold["reports"])


def test_reports_identical_across_hash_seeds(tmp_path):
    path = tmp_path / "precision.pin"
    path.write_text(suite_source(generate_precision_suite()))
    env_base = dict(os.environ)
    env_base["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + env_base.get("PYTHONPATH", "").split(os.pathsep)
    )
    outputs = []
    for seed in ("0", "1", "4242"):
        env = dict(env_base, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "check", str(path),
                "--all", "--json", "--pta", "fs",
            ],
            capture_output=True, text=True, env=env,
        )
        document = json.loads(proc.stdout)
        outputs.append(
            json.dumps(
                {
                    "reports": document["reports"],
                    "diagnostics": document["diagnostics"],
                },
                sort_keys=True,
            )
        )
    assert outputs[0] == outputs[1] == outputs[2]
