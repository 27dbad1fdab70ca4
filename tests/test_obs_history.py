"""Tests for the run-history store and perf-regression detection."""

import json
import os

import pytest

from repro.cli import main
from repro.obs.history import (
    SCHEMA_VERSION,
    HistoryStore,
    TrendThresholds,
    collect_run_record,
    compute_trend,
    findings_digest,
    fingerprint_paths,
    fingerprint_text,
    resolve_history_dir,
    write_bench_file,
)
from repro.obs.metrics import MetricsRegistry
from repro.robust.faults import reset_faults

UAF = """
fn main() {
    p = malloc();
    free(p);
    x = *p;
    return x;
}
"""


@pytest.fixture
def uaf_file(tmp_path):
    path = tmp_path / "uaf.pin"
    path.write_text(UAF)
    return str(path)


@pytest.fixture(autouse=True)
def _clean_faults():
    yield
    reset_faults()


def record(fingerprint="fp", command="check", wall=1.0, peak=10.0, findings=1):
    return {
        "schema": SCHEMA_VERSION,
        "ts": 0.0,
        "command": command,
        "label": "x",
        "fingerprint": fingerprint,
        "wall_seconds": wall,
        "peak_mb": peak,
        "exit_code": 0,
        "findings": {"total": findings, "digest": "d"},
        "robust": {"degradations": 0},
    }


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
def test_fingerprint_paths_order_independent(tmp_path):
    a = tmp_path / "a.pin"
    b = tmp_path / "b.pin"
    a.write_text("fn main() { return 0; }")
    b.write_text("fn helper() { return 1; }")
    assert fingerprint_paths([str(a), str(b)]) == fingerprint_paths([str(b), str(a)])


def test_fingerprint_paths_tracks_content_not_path(tmp_path):
    a = tmp_path / "a.pin"
    a.write_text("v1")
    first = fingerprint_paths([str(a)])
    a.write_text("v2")
    assert fingerprint_paths([str(a)]) != first


def test_fingerprint_paths_tolerates_missing_file(tmp_path):
    fp = fingerprint_paths([str(tmp_path / "nope.pin")])
    assert len(fp) == 16


def test_findings_digest_order_independent():
    keys = [("uaf", "main", 3), ("leak", "main", 1)]
    assert findings_digest(keys) == findings_digest(list(reversed(keys)))
    assert findings_digest(keys) != findings_digest(keys[:1])


# ----------------------------------------------------------------------
# Record collection
# ----------------------------------------------------------------------
def test_collect_run_record_pulls_registry_figures():
    registry = MetricsRegistry()
    seconds = registry.counter("engine.seconds", "t")
    seconds.inc(0.25, phase="seg")
    seconds.inc(0.5, phase="checker", checker="uaf")
    seconds.inc(0.25, phase="checker", checker="leak")
    registry.counter("cache.hits", "h").inc(3)
    registry.counter("cache.misses", "m").inc(2)
    hist = registry.histogram("smt.solve_seconds", "s", buckets=(0.1, 1.0))
    hist.observe(0.05)
    hist.observe(0.5)
    rec = collect_run_record(
        registry,
        command="check",
        label="prog.pin",
        fingerprint="abc",
        wall_seconds=1.234567891,
        peak_mb=12.5,
        exit_code=1,
        findings=2,
        findings_by_checker={"uaf": 2},
        digest="dig",
        clock=lambda: 1700000000.0,
    )
    assert rec["schema"] == SCHEMA_VERSION
    assert rec["stages"] == {"seg": 0.25, "checker": 0.75}
    assert rec["cache"] == {"hits": 3, "misses": 2, "writes": 0}
    assert rec["findings"] == {"total": 2, "by_checker": {"uaf": 2}, "digest": "dig"}
    assert "p50" in rec["quantiles"]["smt.solve_seconds"]
    assert rec["ts_iso"].endswith("Z")
    # non-default profile payload stays out of the record unless given
    assert "profile" not in rec


def test_collect_run_record_empty_registry():
    rec = collect_run_record(
        MetricsRegistry(), command="check", label="", fingerprint="f"
    )
    assert rec["stages"] == {}
    assert rec["quantiles"] == {}
    assert rec["sched"] == {"waves": 0, "retries": 0}


# ----------------------------------------------------------------------
# HistoryStore
# ----------------------------------------------------------------------
def test_store_append_assigns_sequential_ids(tmp_path):
    store = HistoryStore(str(tmp_path / "hist"))
    assert store.append(record()) == "r00001"
    assert store.append(record()) == "r00002"
    records = store.records()
    assert [r["run_id"] for r in records] == ["r00001", "r00002"]
    assert [e["run_id"] for e in store.index()] == ["r00001", "r00002"]
    assert store.latest()["run_id"] == "r00002"
    assert store.get("r00001")["run_id"] == "r00001"
    assert store.get("r99999") is None


def test_store_empty_dir(tmp_path):
    store = HistoryStore(str(tmp_path / "hist"))
    assert store.records() == []
    assert store.index() == []
    assert store.latest() is None


def test_store_tolerates_torn_tail(tmp_path):
    store = HistoryStore(str(tmp_path))
    store.append(record())
    store.append(record())
    with open(store.runs_path, "a", encoding="utf-8") as handle:
        handle.write('{"schema": 1, "torn...')
    assert len(store.records()) == 2


def test_store_skips_newer_schema_records(tmp_path):
    store = HistoryStore(str(tmp_path))
    store.append(record())
    future = record()
    future["schema"] = SCHEMA_VERSION + 1
    with open(store.runs_path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(future) + "\n")
    assert len(store.records()) == 1


def test_store_index_rejects_newer_schema(tmp_path):
    store = HistoryStore(str(tmp_path))
    store.append(record())
    with open(store.index_path, "w", encoding="utf-8") as handle:
        json.dump({"schema": SCHEMA_VERSION + 1, "runs": [{}] * 9}, handle)
    assert store.index() == []


def test_store_reindex_rebuilds_lost_index(tmp_path):
    store = HistoryStore(str(tmp_path))
    store.append(record())
    store.append(record())
    os.unlink(store.index_path)
    assert store.index() == []
    assert store.reindex() == 2
    assert [e["run_id"] for e in store.index()] == ["r00001", "r00002"]


def test_resolve_history_dir_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_HISTORY_DIR", raising=False)
    assert resolve_history_dir() is None
    assert resolve_history_dir("/x") == "/x"
    monkeypatch.setenv("REPRO_HISTORY_DIR", "/env")
    assert resolve_history_dir() == "/env"
    assert resolve_history_dir("/flag") == "/flag"


# ----------------------------------------------------------------------
# Trend / regression detection
# ----------------------------------------------------------------------
def test_trend_no_runs_is_ok():
    report = compute_trend([])
    assert report.ok and "no runs" in report.reason


def test_trend_insufficient_history_is_ok():
    report = compute_trend([record()], TrendThresholds(min_runs=1))
    assert report.ok and "insufficient history" in report.reason
    assert report.baseline_count == 0


def test_trend_within_thresholds():
    runs = [record(wall=1.0), record(wall=1.1), record(wall=1.05)]
    report = compute_trend(runs)
    assert report.ok
    assert report.baseline == {"wall_seconds": 1.05, "peak_mb": 10.0, "findings": 1}
    assert report.baseline_count == 2


def test_trend_wall_regression_needs_ratio_and_floor():
    thresholds = TrendThresholds(wall_ratio=1.5, wall_floor_seconds=0.5)
    # 3x slower but below the absolute floor: not a regression.
    tiny = [record(wall=0.1), record(wall=0.1), record(wall=0.3)]
    assert compute_trend(tiny, thresholds).ok
    # 3x slower and well past the floor: regression.
    big = [record(wall=1.0), record(wall=1.0), record(wall=3.0)]
    report = compute_trend(big, thresholds)
    assert not report.ok
    (reg,) = report.regressions
    assert reg["metric"] == "wall_seconds"
    assert reg["ratio"] == 3.0


def test_trend_memory_regression():
    thresholds = TrendThresholds(mem_ratio=1.5, mem_floor_mb=5.0)
    runs = [record(peak=10.0), record(peak=10.0), record(peak=40.0)]
    report = compute_trend(runs, thresholds)
    assert not report.ok
    assert report.regressions[0]["metric"] == "peak_mb"


def test_trend_findings_drift_regresses_both_directions():
    for latest in (0, 2):
        runs = [record(findings=1), record(findings=1), record(findings=latest)]
        report = compute_trend(runs)
        assert not report.ok
        assert any(r["metric"] == "findings" for r in report.regressions)


def test_trend_filters_by_fingerprint_and_command():
    runs = [
        record(fingerprint="other", wall=0.01),  # different source: excluded
        record(command="bench", wall=0.01),  # different command: excluded
        record(wall=1.0),
        record(wall=1.0),
        record(wall=1.0),
    ]
    report = compute_trend(runs)
    assert report.ok
    assert report.baseline_count == 2
    assert report.baseline["wall_seconds"] == 1.0


def test_trend_baseline_uses_last_n_runs():
    runs = [record(wall=100.0)] + [record(wall=1.0)] * 5 + [record(wall=1.0)]
    report = compute_trend(runs, TrendThresholds(baseline_runs=5))
    assert report.ok  # the 100 s outlier aged out of the window
    assert report.baseline["wall_seconds"] == 1.0


def test_trend_baseline_ignores_records_of_another_schema():
    # Schema 1 measured under tracemalloc; its figures are no baseline
    # for a schema-2 record, whose peak is the (larger) resident set.
    old = dict(record(wall=4.0, peak=29.0), schema=1)
    report = compute_trend([old, old, record(wall=1.0, peak=59.0)])
    assert report.ok
    assert report.baseline_count == 0
    assert "insufficient history" in report.reason


def test_trend_median_shrugs_off_one_noisy_run():
    runs = [record(wall=1.0), record(wall=50.0), record(wall=1.0), record(wall=1.1)]
    report = compute_trend(runs)
    assert report.ok


def test_trend_report_as_dict_round_trips():
    runs = [record(wall=1.0), record(wall=1.0), record(wall=9.0)]
    data = compute_trend(runs).as_dict()
    assert json.loads(json.dumps(data)) == data
    assert data["ok"] is False
    assert data["regressions"][0]["metric"] == "wall_seconds"


def test_write_bench_file(tmp_path):
    store = HistoryStore(str(tmp_path))
    store.append(record(wall=1.0))
    store.append(record(wall=1.2))
    target = tmp_path / "BENCH_pinpoint.json"
    document = write_bench_file(str(target), store.records(), compute_trend(store.records()))
    on_disk = json.loads(target.read_text())
    assert on_disk == document
    assert on_disk["benchmark"] == "pinpoint"
    assert [p["run_id"] for p in on_disk["runs"]] == ["r00001", "r00002"]
    assert on_disk["trend"]["ok"] is True


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
def test_check_records_history(uaf_file, tmp_path, capsys):
    hist = str(tmp_path / "hist")
    assert main(["check", uaf_file, "--history-dir", hist]) == 1
    assert main(["check", uaf_file, "--history-dir", hist]) == 1
    out = capsys.readouterr().out
    assert "[history] recorded r00001" in out
    assert "[history] recorded r00002" in out
    records = HistoryStore(hist).records()
    assert len(records) == 2
    first, second = records
    assert first["command"] == "check"
    assert first["fingerprint"] == second["fingerprint"]
    assert first["findings"]["total"] == 1
    assert first["findings"]["digest"] == second["findings"]["digest"]
    assert first["wall_seconds"] > 0
    assert "seg" in first["stages"]


def test_records_count_each_quarantined_unit_once(tmp_path, capsys):
    # One unparsable function: every checker's EngineStats counts it,
    # but the analysis quarantined one unit.
    path = tmp_path / "broken.pin"
    path.write_text(UAF + "fn broken( { return 0; }\n")
    hist = str(tmp_path / "hist")
    assert main(["check", str(path), "--all", "--history-dir", hist]) == 3
    assert main(["check", str(path), "--history-dir", hist]) == 3
    assert main(["profile", str(path), "--history-dir", hist]) == 0
    records = HistoryStore(hist).records()
    assert [r["command"] for r in records] == ["check", "check", "profile"]
    for rec in records:
        assert rec["robust"]["quarantined"] == 1
        assert len(rec["robust"]["diagnostics"]) == 1
    # The per-checker stats still count the module's quarantines.
    capsys.readouterr()
    main(["check", str(path), "--all", "--json"])
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert len(stats) == 6
    assert all(fields["quarantined_units"] == 1 for fields in stats.values())


def test_record_pta_counts_equal_stats_cold_and_warm(tmp_path, capsys):
    # The record's pta section counts each admitted function's kept
    # points-to result once, as --stats does: not Mod/Ref's own analysis,
    # and on a warm run also what the artifact store served.
    from repro.synth.generator import GeneratorConfig, generate_program

    path = tmp_path / "subject.pin"
    path.write_text(
        generate_program(
            GeneratorConfig(seed=1, target_lines=600, taint_period=7)
        ).source
    )
    hist, cache = str(tmp_path / "hist"), str(tmp_path / "cache")
    stats = []
    for _ in range(2):
        main(
            ["check", str(path), "--all", "--json", "--cache-dir", cache,
             "--history-dir", hist]
        )
        document = json.loads(capsys.readouterr().out)
        # The second run is served from the store.
        assert not stats or document["metrics"]["cache.hits"]["value"] > 0
        stats.append(document["stats"]["use-after-free"])
    records = HistoryStore(hist).records()
    assert len(records) == 2
    for rec, fields in zip(records, stats):
        assert rec["pta"]["strong_updates"] == fields["strong_updates"] > 0
        assert rec["pta"]["weak_updates"] == fields["weak_updates"]


def test_pta_facts_counter_counts_kept_results():
    # Cold, and warm with every function served from the session's
    # memory: the counters are the sums over the kept results.
    from repro.core.engine import Pinpoint
    from repro.core.incremental import IncrementalAnalyzer
    from repro.obs.metrics import get_registry, set_registry

    source = UAF + "fn set(p, v) { *p = v; return 0; }\n"
    analyzer = IncrementalAnalyzer()
    analyzer.analyze(source)
    runs = []
    for build in (
        lambda: Pinpoint.from_source(source),
        lambda: analyzer.analyze(source),
    ):
        set_registry(MetricsRegistry())
        engine = build()
        runs.append((engine, get_registry()))
    assert len(runs[1][0].module.cached) == len(runs[1][0].module.order)
    for engine, registry in runs:
        results = [pf.points_to for pf in engine.module]
        kept = sum(
            len(entries) for result in results for entries in result.points_to.values()
        )
        assert kept > 0
        assert registry.counter("pta.facts").total() == kept
        for series, field in (
            ("pta.strong_updates", "strong_updates"),
            ("pta.weak_updates", "weak_updates"),
        ):
            assert registry.counter(series).value(tier="fi") == sum(
                getattr(result, field) for result in results
            )


def test_check_history_via_env(uaf_file, tmp_path, monkeypatch):
    hist = str(tmp_path / "hist")
    monkeypatch.setenv("REPRO_HISTORY_DIR", hist)
    main(["check", uaf_file])
    assert len(HistoryStore(hist).records()) == 1


def test_check_without_history_dir_records_nothing(uaf_file, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("REPRO_HISTORY_DIR", raising=False)
    main(["check", uaf_file])
    assert "[history]" not in capsys.readouterr().out


def test_history_list_and_show(uaf_file, tmp_path, capsys):
    hist = str(tmp_path / "hist")
    main(["check", uaf_file, "--history-dir", hist])
    capsys.readouterr()
    assert main(["history", "list", "--history-dir", hist]) == 0
    out = capsys.readouterr().out
    assert "r00001" in out and "check" in out

    assert main(["history", "show", "--history-dir", hist]) == 0
    shown = json.loads(capsys.readouterr().out)
    assert shown["run_id"] == "r00001"
    assert shown["schema"] == SCHEMA_VERSION

    assert main(["history", "show", "r00001", "--history-dir", hist]) == 0
    assert json.loads(capsys.readouterr().out)["run_id"] == "r00001"

    assert main(["history", "show", "r00099", "--history-dir", hist]) == 2


def test_history_list_json(uaf_file, tmp_path, capsys):
    hist = str(tmp_path / "hist")
    main(["check", uaf_file, "--history-dir", hist])
    capsys.readouterr()
    main(["history", "list", "--history-dir", hist, "--json"])
    entries = json.loads(capsys.readouterr().out)
    assert entries[0]["run_id"] == "r00001"


def test_history_requires_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("REPRO_HISTORY_DIR", raising=False)
    assert main(["history", "list"]) == 2
    assert "--history-dir" in capsys.readouterr().err


def test_history_diff(uaf_file, tmp_path, capsys):
    hist = str(tmp_path / "hist")
    main(["check", uaf_file, "--history-dir", hist])
    main(["check", uaf_file, "--history-dir", hist])
    capsys.readouterr()
    assert main(["history", "diff", "--history-dir", hist]) == 0
    out = capsys.readouterr().out
    assert "r00001" in out and "r00002" in out
    assert "wall_seconds" in out

    main(["history", "diff", "r00001", "r00002", "--history-dir", hist, "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["same_fingerprint"] is True
    assert payload["same_findings_digest"] is True


def test_history_trend_check_passes_and_writes_bench(uaf_file, tmp_path, capsys):
    hist = str(tmp_path / "hist")
    bench = str(tmp_path / "BENCH_pinpoint.json")
    main(["check", uaf_file, "--history-dir", hist])
    main(["check", uaf_file, "--history-dir", hist])
    capsys.readouterr()
    code = main(
        ["history", "trend", "--history-dir", hist, "--check", "--bench-out", bench]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "trend: OK" in out
    trajectory = json.loads(open(bench).read())
    assert len(trajectory["runs"]) == 2
    assert trajectory["trend"]["ok"] is True


def test_injected_slowdown_fails_trend_with_exit_5(uaf_file, tmp_path, capsys):
    """The acceptance-criteria flow: a deterministic slow fault inflates
    the latest run's wall time past the rolling baseline, and ``history
    trend --check`` exits with the documented regression code (5)."""
    hist = str(tmp_path / "hist")
    bench = str(tmp_path / "BENCH_pinpoint.json")
    main(["check", uaf_file, "--history-dir", hist])
    main(["check", uaf_file, "--history-dir", hist])
    main(["check", uaf_file, "--history-dir", hist, "--fault", "slow:0.4"])
    capsys.readouterr()
    code = main(
        ["history", "trend", "--history-dir", hist, "--check", "--bench-out", bench]
    )
    out = capsys.readouterr().out
    assert code == 5
    assert "REGRESSION" in out
    assert "wall_seconds" in out
    assert json.loads(open(bench).read())["trend"]["ok"] is False
    # Without --check the same regression only reports, exit stays 0.
    assert (
        main(["history", "trend", "--history-dir", hist, "--bench-out", bench]) == 0
    )


def test_history_trend_json(uaf_file, tmp_path, capsys):
    hist = str(tmp_path / "hist")
    main(["check", uaf_file, "--history-dir", hist])
    capsys.readouterr()
    main(
        [
            "history",
            "trend",
            "--history-dir",
            hist,
            "--json",
            "--bench-out",
            str(tmp_path / "b.json"),
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert "insufficient history" in payload["reason"]


def test_selfcheck_records_history(tmp_path, capsys):
    hist = str(tmp_path / "hist")
    main(["selfcheck", "--seeds", "3", "--history-dir", hist])
    (rec,) = HistoryStore(hist).records()
    assert rec["command"] == "selfcheck"
    assert rec["wall_seconds"] > 0


def test_profile_records_history_with_profile_payload(uaf_file, tmp_path, capsys):
    hist = str(tmp_path / "hist")
    main(["profile", uaf_file, "--history-dir", hist])
    (rec,) = HistoryStore(hist).records()
    assert rec["command"] == "profile"
    assert "passes" in rec["profile"]


def test_profile_record_carries_the_findings_digest(uaf_file, tmp_path, capsys):
    hist = str(tmp_path / "hist")
    main(["check", uaf_file, "--all", "--history-dir", hist])
    main(["profile", uaf_file, "--history-dir", hist])
    capsys.readouterr()
    checked, profiled = HistoryStore(hist).records()
    assert profiled["findings"] == checked["findings"]
    assert profiled["findings"]["digest"]
    assert main(["history", "diff", "--history-dir", hist]) == 0
    assert "findings digest changed" not in capsys.readouterr().out


def test_recorded_runs_do_not_trace_memory(uaf_file, tmp_path, capsys, monkeypatch):
    import tracemalloc

    from repro.core.engine import Pinpoint

    seen = []
    check = Pinpoint.check

    def spy(self, checker):
        seen.append(tracemalloc.is_tracing())
        return check(self, checker)

    monkeypatch.setattr(Pinpoint, "check", spy)
    hist = str(tmp_path / "hist")
    main(["check", uaf_file, "--history-dir", hist])
    main(["profile", uaf_file, "--checker", "use-after-free"])
    main(["selfcheck", "--seeds", "3", "--lines", "150", "--history-dir", hist])
    capsys.readouterr()
    assert seen and not any(seen)
    recorded = [r["command"] for r in HistoryStore(hist).records()]
    assert recorded == ["check", "selfcheck"]


def test_recorded_wall_and_peak_are_clock_and_rss(uaf_file, tmp_path, capsys):
    import time

    hist = str(tmp_path / "hist")
    started = time.perf_counter()
    main(["check", uaf_file, "--history-dir", hist])
    elapsed = time.perf_counter() - started
    (rec,) = HistoryStore(hist).records()
    assert 0 < rec["wall_seconds"] <= elapsed
    # An interpreter with repro imported holds well over 8 MB resident.
    assert rec["peak_mb"] > 8.0


def test_trend_check_passes_over_an_older_schema_history(uaf_file, tmp_path, capsys):
    hist = str(tmp_path / "hist")
    store = HistoryStore(hist)
    for _ in range(3):
        old = record(fingerprint=fingerprint_text(UAF), wall=0.001, peak=0.5)
        store.append(dict(old, schema=1))
    main(["check", uaf_file, "--history-dir", hist])
    capsys.readouterr()
    code = main(
        ["history", "trend", "--history-dir", hist, "--check",
         "--bench-out", str(tmp_path / "b.json")]
    )
    assert code == 0
    assert "insufficient history" in capsys.readouterr().out


def test_history_reads_records_with_the_dropped_dispatch_keys(
    uaf_file, tmp_path, capsys
):
    """Records from before the forked wave workers carry payload pickling,
    unpickling, queueing and warm-up figures under ``sched.dispatch``,
    and a ``repro.profile/1`` document with ``task_sums``.  Records from
    before the wave-loop-only profile carry ``sched.critical_path_seconds``
    and ``sched.overhead_ratio``, and a ``repro.profile/2`` document with
    ``shares``, ``critical_path``, ``waves`` and ``overhead``.  Diff and
    trend read them next to new records, and a high ``overhead_ratio``
    gates nothing."""
    argv = ["profile", uaf_file, "--json"]
    main(argv + ["--history-dir", str(tmp_path / "seed")])
    (seed,) = HistoryStore(str(tmp_path / "seed")).records()
    old = dict(seed)
    del old["run_id"]
    # Slower than any run of this tiny program, so timing noise cannot
    # trip the trend gate below.
    old["wall_seconds"] = 60.0
    old["sched"] = dict(
        seed["sched"],
        dispatch={
            "serialize_seconds": 0.11,
            "serialize_bytes": 9_000_000,
            "deserialize_seconds": 0.3,
            "result_bytes": 2_900_000,
            "queue_seconds": 0.05,
            "warmup_seconds": 0.02,
        },
    )
    old["profile"] = dict(
        seed["profile"],
        schema="repro.profile/1",
        task_sums={"tasks": 4, "summed": {"queue_seconds": 0.05}, "mean": {}},
    )
    modelled = dict(
        old,
        sched=dict(seed["sched"], critical_path_seconds=0.017, overhead_ratio=0.1),
        profile=dict(
            seed["profile"],
            schema="repro.profile/2",
            accounted_seconds=60.0,
            shares={"compute": 0.58, "dispatch_overhead": 0.42},
            critical_path=[{"name": "sched.wave", "unit": "0", "seconds": 0.004}],
            critical_path_seconds=0.017,
            waves=[{"index": 0, "seconds": 0.25, "functions": 1,
                    "dispatched": 1, "cached": 0, "straggler": "main",
                    "straggler_seconds": 0.01, "barrier_waste_seconds": 0.24}],
            overhead={"decode_seconds": 0.1, "result_bytes": 1000,
                      "barrier_waste_seconds": 0.237, "total_seconds": 0.1},
            parallel=dict(seed["profile"]["parallel"], critical_path_seconds=0.017,
                          overhead_ratio=0.1, speedup_bound=17.5),
        ),
    )
    hist = str(tmp_path / "hist")
    store = HistoryStore(hist)
    store.append(old)
    store.append(modelled)
    main(argv + ["--history-dir", hist])
    # The latest run's overhead ratio is 9.5x the prior median, which the
    # deleted overhead gate would have failed.
    fresh = dict(store.latest())
    del fresh["run_id"]
    store.append(dict(fresh, sched=dict(modelled["sched"], overhead_ratio=0.95)))
    capsys.readouterr()

    for old_id, new_id in (("r00001", "r00002"), ("r00002", "r00003"),
                           ("r00002", "r00004")):
        span = [old_id, new_id, "--history-dir", hist]
        assert main(["history", "diff", *span]) == 0
        out = capsys.readouterr().out
        assert f"{old_id} (" in out and f"{new_id} (" in out
        assert "pass " in out and "utilization" not in out
        assert main(["history", "diff", *span, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["same_findings_digest"] is True
        assert payload["passes"] and "shares" not in payload
        assert "attr" not in payload
    code = main(
        ["history", "trend", "--history-dir", hist, "--check",
         "--bench-out", str(tmp_path / "b.json")]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert "vs median of 3 prior runs" in out


def test_profile_records_the_tier_that_ran(uaf_file, tmp_path, capsys):
    hist = str(tmp_path / "hist")
    argv = [uaf_file, "--pta", "fs", "--history-dir", hist]
    main(["profile", *argv])
    main(["check", "--all", *argv])
    profiled, checked = HistoryStore(hist).records()
    assert profiled["command"] == "profile"
    assert profiled["config"]["pta"] == "fs"
    assert profiled["pta"]["tier"] == "fs"
    # Both commands record the same config fields, with the same values.
    assert profiled["config"] == checked["config"]


def test_bench_harness_records_history(tmp_path, monkeypatch, capsys):
    """benchmarks/conftest.py appends a command='bench' record per result."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "bench_conftest",
        os.path.join(os.path.dirname(__file__), "..", "benchmarks", "conftest.py"),
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    hist = str(tmp_path / "hist")
    monkeypatch.setenv("REPRO_HISTORY_DIR", hist)
    module._record_bench_history("table1", "col | val", 0.5)
    (rec,) = HistoryStore(hist).records()
    assert rec["command"] == "bench"
    assert rec["label"] == "table1"
    assert rec["wall_seconds"] == 0.5


def test_check_all_record_counts_shared_stages_once(tmp_path, capsys):
    # Prepare and SEG work is shared by every checker: counted once per
    # checker, a six-checker record would exceed its own wall time.
    from repro.synth.generator import GeneratorConfig, generate_program

    path = tmp_path / "subject.pin"
    path.write_text(
        generate_program(GeneratorConfig(seed=3, target_lines=600)).source
    )
    hist = str(tmp_path / "hist")
    main(["check", str(path), "--all", "--history-dir", hist])
    capsys.readouterr()
    (record,) = HistoryStore(hist).records()
    assert {"prepare", "seg", "search"} <= set(record["stages"])
    assert sum(record["stages"].values()) <= record["wall_seconds"]


def test_check_record_counts_solving_time_once(
    uaf_file, tmp_path, capsys, monkeypatch
):
    # Solving happens inside the checker's search: the record's stages
    # must add it once, or a slow solve pushes them past the wall time.
    import time

    from repro.smt.linear_solver import LinearSolver

    filter_candidate = LinearSolver.is_obviously_unsat

    def slow_filter(self, condition):
        time.sleep(0.05)
        return filter_candidate(self, condition)

    monkeypatch.setattr(LinearSolver, "is_obviously_unsat", slow_filter)
    hist = str(tmp_path / "hist")
    main(["check", uaf_file, "--history-dir", hist])
    capsys.readouterr()
    (record,) = HistoryStore(hist).records()
    assert record["stages"]["solving"] >= 0.05
    assert sum(record["stages"].values()) <= record["wall_seconds"]
