"""Tests for the command-line interface and dot export."""

import json
import re

import pytest

from repro.cli import main

UAF = """
fn main() {
    p = malloc();
    free(p);
    x = *p;
    return x;
}
"""

CLEAN = """
fn main(a) {
    p = malloc();
    *p = a;
    x = *p;
    free(p);
    return x;
}
"""


@pytest.fixture
def uaf_file(tmp_path):
    path = tmp_path / "uaf.pin"
    path.write_text(UAF)
    return str(path)


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.pin"
    path.write_text(CLEAN)
    return str(path)


def test_check_finds_bug(uaf_file, capsys):
    code = main(["check", uaf_file])
    out = capsys.readouterr().out
    assert code == 1
    assert "use-after-free" in out
    assert "flows to" in out


def test_check_clean_exits_zero(clean_file, capsys):
    code = main(["check", clean_file])
    assert code == 0
    out = capsys.readouterr().out
    assert "0 reports" in out


def test_check_json_output(uaf_file, capsys):
    code = main(["check", uaf_file, "--json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["reports"]) == 1
    report = payload["reports"][0]
    assert report["checker"] == "use-after-free"
    assert report["source"]["function"] == "main"


def test_check_all_checkers(uaf_file, capsys):
    code = main(["check", uaf_file, "--all"])
    assert code == 1
    out = capsys.readouterr().out
    assert "memory-leak" in out
    assert "null-deref" in out


def test_check_stats_flag(uaf_file, capsys):
    main(["check", uaf_file, "--stats"])
    out = capsys.readouterr().out
    assert "[stats]" in out
    assert "vertices" in out


def test_check_specific_checker(uaf_file, capsys):
    code = main(["check", uaf_file, "--checker", "double-free"])
    assert code == 0  # only one free: no double free


def test_run_detects_violation(uaf_file, capsys):
    code = main(["run", uaf_file])
    assert code == 1
    assert "use-after-free" in capsys.readouterr().out


def test_run_clean(clean_file, capsys):
    code = main(["run", clean_file, "--args", "5"])
    assert code == 0
    assert "no memory-safety violations" in capsys.readouterr().out


def test_dump_seg(uaf_file, capsys):
    code = main(["dump-seg", uaf_file, "--function", "main"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert "p.0" in out


def test_dump_seg_missing_function(uaf_file, capsys):
    code = main(["dump-seg", uaf_file, "--function", "nope"])
    assert code == 2


def test_dump_cfg(uaf_file, capsys):
    code = main(["dump-cfg", uaf_file, "--function", "main"])
    assert code == 0
    out = capsys.readouterr().out
    assert "digraph" in out
    assert "entry" in out


def test_generate_to_stdout(capsys):
    code = main(["generate", "--lines", "120", "--seed", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "fn " in out


def test_generate_to_file(tmp_path, capsys):
    target = tmp_path / "gen.pin"
    code = main(["generate", "--lines", "150", "--seed", "3", "-o", str(target)])
    assert code == 0
    assert target.exists()
    assert "wrote" in capsys.readouterr().out
    # The generated file round-trips through the checker.
    assert main(["check", str(target), "--checker", "use-after-free"]) in (0, 1)


def test_check_generated_workload_end_to_end(tmp_path):
    target = tmp_path / "work.pin"
    main(["generate", "--lines", "400", "--seed", "9", "-o", str(target)])
    # Seeded bugs exist at this size, so the checker must exit 1.
    assert main(["check", str(target)]) == 1


def test_path_insensitive_flag(uaf_file):
    assert main(["check", uaf_file, "--no-smt", "--no-linear-filter"]) == 1


def test_baseline_workflow(uaf_file, tmp_path, capsys):
    baseline_path = str(tmp_path / "baseline.json")
    # First run records the finding.
    code = main(["check", uaf_file, "--update-baseline", baseline_path])
    assert code == 1
    capsys.readouterr()
    # Second run with the baseline suppresses it and exits clean.
    code = main(["check", uaf_file, "--baseline", baseline_path])
    assert code == 0
    assert "suppressed 1 known" in capsys.readouterr().out


def test_baseline_missing_file_treated_empty(uaf_file, tmp_path):
    code = main(["check", uaf_file, "--baseline", str(tmp_path / "nope.json")])
    assert code == 1


# ----------------------------------------------------------------------
# Observability flags
# ----------------------------------------------------------------------
def test_check_trace_export_is_valid_chrome_trace(uaf_file, tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    code = main(["check", uaf_file, "--trace", str(trace_path)])
    assert code == 1
    doc = json.loads(trace_path.read_text())
    events = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
    names = {e["name"] for e in events}
    # Every pipeline stage shows up as a span.
    assert {"parse", "prepare.fn", "pta.run", "seg.build",
            "summaries.rv", "checker.run", "smt.check"} <= names
    assert all("ts" in e and "dur" in e and "pid" in e for e in events)


def test_check_metrics_export_prometheus(uaf_file, tmp_path, capsys):
    metrics_path = tmp_path / "metrics.prom"
    main(["check", uaf_file, "--metrics-out", str(metrics_path)])
    text = metrics_path.read_text()
    assert "# TYPE repro_smt_queries_total counter" in text
    assert "repro_seg_nodes_total" in text
    assert "repro_engine_reported_total" in text
    assert "repro_smt_solve_seconds_bucket" in text


def test_check_metrics_export_json(uaf_file, tmp_path):
    metrics_path = tmp_path / "metrics.json"
    main(["check", uaf_file, "--metrics-out", str(metrics_path)])
    dump = json.loads(metrics_path.read_text())
    assert "smt.queries" in dump
    assert "engine.reported" in dump


def test_check_json_payload_includes_stats_and_metrics(uaf_file, capsys):
    main(["check", uaf_file, "--json", "--trace", "/dev/null"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["stats"]["use-after-free"]["reported"] == 1
    assert "smt.queries" in payload["metrics"]
    assert payload["trace"]["spans"] > 0
    assert "smt.check" in payload["trace"]["passes"]


def test_check_sarif_invocation_properties(uaf_file, capsys):
    main(["check", uaf_file, "--sarif"])
    doc = json.loads(capsys.readouterr().out)
    properties = doc["runs"][0]["invocations"][0]["properties"]
    assert properties["stats"]["reported"] == 1
    assert "metrics" in properties


def test_profile_smoke(uaf_file, capsys):
    code = main(["profile", uaf_file, "--top", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "repro profile" in out
    assert "hottest passes" in out
    assert "hottest functions" in out
    assert "smt.check" in out or "checker.fn" in out
    assert "main" in out


def test_profile_json(uaf_file, capsys):
    code = main(["profile", uaf_file, "--json"])
    assert code == 0
    document = json.loads(capsys.readouterr().out)
    assert document["label"] == uaf_file
    assert document["checkers"]
    assert document["reports"] >= 1
    assert document["passes"], "per-pass table missing from --json profile"
    for row in document["passes"]:
        assert {"name", "calls", "total_seconds", "self_seconds"} <= set(row)
    assert document["functions"]


def test_profile_counts_each_diagnostic_once(tmp_path, capsys):
    """Every checker's result repeats the module's parse diagnostics;
    ``profile`` counts and records each once, as ``check`` prints it."""
    from repro.obs import HistoryStore

    path = tmp_path / "broken.pin"
    path.write_text(UAF + "\nfn broken( {\n    return 1;\n}\n")
    main(["check", str(path), "--all"])
    checked = capsys.readouterr().out
    assert checked.count("[diagnostic]") == 1

    hist = str(tmp_path / "hist")
    assert main(["profile", str(path), "--history-dir", hist]) == 0
    assert "1 report(s), 1 diagnostic(s)" in capsys.readouterr().out
    assert main(["profile", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["diagnostics"] == 1
    (record,) = HistoryStore(hist).records()
    (diagnostic,) = record["robust"]["diagnostics"]
    assert diagnostic["unit"] == "broken"


def test_check_stats_quantile_line(uaf_file, capsys):
    main(["check", uaf_file, "--stats"])
    out = capsys.readouterr().out
    assert "[quantiles] smt.solve_seconds" in out
    assert "p50=" in out and "p95=" in out and "p99=" in out


def test_profile_text_reports_critical_path(uaf_file, capsys):
    """The report's one wave summary is the measured wave-loop wall; the
    critical-path model and the worker figures are gone."""
    code = main(["profile", uaf_file, "--top", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "repro profile" in out
    (line,) = [l for l in out.splitlines() if l.startswith("wave loop: ")]
    assert re.fullmatch(r"wave loop: \S+ wall", line), line
    assert "hottest functions" in out
    for gone in ("critical path", "dispatch overhead", "utilization", "worker"):
        assert gone not in out


def test_profile_json_document_matches_run_record(uaf_file, tmp_path, capsys):
    from repro.obs import HistoryStore

    hist = str(tmp_path / "hist")
    code = main(["profile", uaf_file, "--json", "--history-dir", hist])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    (record,) = HistoryStore(hist).records()
    written = record["profile"]
    assert printed["schema"] == "repro.profile/4"
    parallel = printed["parallel"]
    assert set(parallel) == {"wave_seconds"}
    assert 0 < parallel["wave_seconds"] <= printed["wall_seconds"]
    # The run record carries the same document the CLI printed.
    assert written == printed


def test_history_diff_shows_profile_deltas(uaf_file, tmp_path, capsys):
    hist = str(tmp_path / "hist")
    main(["profile", uaf_file, "--history-dir", hist])
    main(["profile", uaf_file, "--history-dir", hist])
    capsys.readouterr()

    code = main(["history", "diff", "--history-dir", hist])
    assert code == 0
    out = capsys.readouterr().out
    assert "wall_seconds" in out
    assert "pass " in out  # per-pass delta lines
    assert "fn main" in out

    code = main(["history", "diff", "--history-dir", hist, "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["old"] and payload["new"]
    assert payload["passes"], "per-pass deltas missing"
    assert payload["functions"]["main"]


def test_history_diff_reads_a_profile_with_worker_fields(
    uaf_file, tmp_path, capsys
):
    """A ``repro.profile/3`` record, written when preparation could run
    in forked workers, carries worker figures in its ``sched`` section,
    its config and its profile's ``parallel`` block.  ``history diff``
    compares it with a fresh profile on what both still measure."""
    from repro.obs import HistoryStore

    hist = str(tmp_path / "hist")
    main(["profile", uaf_file, "--history-dir", hist])
    store = HistoryStore(hist)
    old = dict(store.latest())
    del old["run_id"]
    old["config"] = dict(old["config"], jobs=2)
    old["sched"] = dict(
        old["sched"], jobs=2, tasks=4, utilization=0.57,
        dispatch={"result_bytes": 4096, "decode_seconds": 0.002},
    )
    old["profile"] = dict(
        old["profile"],
        schema="repro.profile/3",
        parallel=dict(
            old["profile"]["parallel"], jobs=2, work_seconds=0.01,
            utilization=0.57, decode_seconds=0.002, result_bytes=4096,
        ),
    )
    store.append(old)
    main(["profile", uaf_file, "--history-dir", hist])
    capsys.readouterr()
    code = main(["history", "diff", "r00002", "r00003", "--history-dir", hist])
    assert code == 0
    out = capsys.readouterr().out
    assert "wall_seconds" in out and "pass " in out
    assert "utilization" not in out
    assert main(
        ["history", "diff", "r00002", "r00003", "--history-dir", hist, "--json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passes"] and "attr" not in payload


def test_history_diff_needs_two_profiles_for_profile_deltas(uaf_file, tmp_path, capsys):
    hist = str(tmp_path / "hist")
    main(["check", uaf_file, "--history-dir", hist])
    main(["profile", uaf_file, "--history-dir", hist])
    capsys.readouterr()
    main(["history", "diff", "--history-dir", hist, "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert not {"passes", "functions"} & set(payload)


@pytest.mark.parametrize(
    "argv",
    [
        ["why-slow", "prog.pin"],
        ["serve", "prog.pin"],
        ["daemon", "--monitor-port", "0"],
        ["loadgen", "--port", "1", "--monitor-port", "0"],
        ["selfcheck", "--worker-timeout", "1"],
        ["dump-seg", "prog.pin", "--function", "main", "--worker-timeout", "1"],
        ["dump-cfg", "prog.pin", "--function", "main", "--worker-timeout", "1"],
        ["profile", "--compare", "old.json", "new.json"],
        ["check", "prog.pin", "--jobs", "2"],
        ["check", "prog.pin", "--worker-timeout", "1"],
        ["profile", "prog.pin", "--jobs", "2"],
        ["dump-seg", "prog.pin", "--function", "main", "--jobs", "2"],
        ["selfcheck", "--jobs", "2"],
        ["cache", "warm", "prog.pin", "--jobs", "2"],
    ],
    ids=[
        "why-slow",
        "serve",
        "daemon-monitor-port",
        "loadgen-monitor-port",
        "selfcheck-worker-timeout",
        "dump-seg-worker-timeout",
        "dump-cfg-worker-timeout",
        "profile-compare",
        "check-jobs",
        "check-worker-timeout",
        "profile-jobs",
        "dump-seg-jobs",
        "selfcheck-jobs",
        "cache-warm-jobs",
    ],
)
def test_removed_commands_and_unused_flags_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_profile_without_file_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["profile"])
    assert exc.value.code == 2
    assert "required: file" in capsys.readouterr().err


def test_check_stats_quantiles_absent_without_smt(uaf_file, capsys):
    main(["check", uaf_file, "--stats", "--no-smt"])
    assert "[quantiles]" not in capsys.readouterr().out


def test_obs_state_does_not_leak_between_runs(uaf_file, tmp_path, capsys):
    from repro.obs import get_registry, get_tracer

    main(["check", uaf_file, "--trace", str(tmp_path / "t.json")])
    first = len(get_tracer().spans)
    assert first > 0
    # The next run without --trace gets a fresh, disabled tracer.
    main(["check", uaf_file])
    assert get_tracer().enabled is False
    assert get_tracer().spans == []
    assert get_registry().counter("smt.queries").total() <= first


# ----------------------------------------------------------------------
# Verification: --verify, exit code 4, --dump-on-verify-fail, selfcheck
# ----------------------------------------------------------------------
def test_check_verify_clean_run_keeps_exit_code(clean_file, uaf_file):
    assert main(["check", clean_file, "--verify", "full"]) == 0
    assert main(["check", uaf_file, "--verify", "full"]) == 1


def test_check_verify_failure_exits_four(clean_file, monkeypatch, capsys):
    from repro.verify import Violation

    monkeypatch.setattr(
        "repro.verify.verify_seg",
        lambda seg, prepared: [
            Violation("seg-dangling-edge", prepared.name, "injected")
        ],
    )
    code = main(["check", clean_file, "--verify", "fast"])
    assert code == 4
    out = capsys.readouterr().out
    assert "invariant-violation:seg-dangling-edge" in out


def test_check_dump_on_verify_fail(clean_file, tmp_path, monkeypatch):
    from repro.verify import Violation

    monkeypatch.setattr(
        "repro.verify.verify_seg",
        lambda seg, prepared: [
            Violation("seg-dangling-edge", prepared.name, "injected")
        ],
    )
    dump_dir = tmp_path / "dumps"
    code = main(
        [
            "check",
            clean_file,
            "--verify",
            "fast",
            "--dump-on-verify-fail",
            str(dump_dir),
        ]
    )
    assert code == 4
    dumped = dump_dir / "main.seg.dot"
    assert dumped.exists()
    text = dumped.read_text()
    assert text.startswith("// verify failure dump")
    assert "seg-dangling-edge" in text
    assert "digraph" in text


def test_check_no_dump_dir_without_failures(clean_file, tmp_path):
    dump_dir = tmp_path / "dumps"
    code = main(
        [
            "check",
            clean_file,
            "--verify",
            "full",
            "--dump-on-verify-fail",
            str(dump_dir),
        ]
    )
    assert code == 0
    assert not dump_dir.exists()


def test_help_epilog_documents_exit_codes():
    from repro.cli import build_parser

    text = build_parser().format_help()
    assert "exit codes:" in text
    assert "verification failure" in text
    assert "degraded" in text


def test_selfcheck_end_to_end(tmp_path, capsys):
    out_file = tmp_path / "selfcheck.json"
    code = main(
        ["selfcheck", "--seeds", "3", "--lines", "250", "--out", str(out_file)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "result: PASS" in out
    document = json.loads(out_file.read_text())
    assert document["ok"] is True
    assert all(v == 1.0 for v in document["recall_by_kind"].values())
    assert document["trap_reports"] == 0


def test_selfcheck_json_mode(capsys):
    code = main(
        ["selfcheck", "--seeds", "4", "--lines", "250", "--no-oracle", "--json"]
    )
    assert code == 0
    document = json.loads(capsys.readouterr().out)
    assert document["ok"] is True
    assert document["oracle"] is False
    assert document["seeds"][0]["seed"] == 4


def test_selfcheck_bad_seed_spec_is_an_error(capsys):
    code = main(["selfcheck", "--seeds", "9..2"])
    assert code == 2


def test_engine_flags_parse_alike_in_check_profile_and_daemon(capsys):
    from repro.cli import build_parser

    parser = build_parser()
    names = ("depth", "pta", "no_smt", "deadline", "smt_deadline", "max_steps")
    flags = ["--depth", "3", "--pta", "fs", "--no-smt", "--deadline", "2",
             "--smt-deadline", "0.5", "--max-steps", "9"]
    for command in (["check", "f.pin"], ["profile", "f.pin"], ["daemon"]):
        defaults = parser.parse_args(command)
        assert [getattr(defaults, n) for n in names] == [6, "fi", False, 0.0, 0.0, 0]
        given = parser.parse_args(command + flags)
        assert [getattr(given, n) for n in names] == [3, "fs", True, 2.0, 0.5, 9]
    # The worker and fault flags belong to the one-shot runs only.
    for flag in ("--worker-timeout", "--fault"):
        with pytest.raises(SystemExit):
            parser.parse_args(["daemon", flag, "1"])
