"""Command-line interface.

Usage examples::

    python -m repro check program.pin --checker use-after-free
    python -m repro check program.pin --all --json
    python -m repro check program.pin --trace t.json --metrics-out m.prom
    python -m repro profile program.pin --top 15
    python -m repro run program.pin --entry main --args 3,4
    python -m repro dump-seg program.pin --function foo
    python -m repro generate --lines 1000 --seed 7 -o program.pin

The file extension is conventional; any text in the analyzed language
works.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List

from repro import (
    DataTransmissionChecker,
    DoubleFreeChecker,
    EngineConfig,
    MemoryLeakChecker,
    NullDereferenceChecker,
    PathTraversalChecker,
    Pinpoint,
    UseAfterFreeChecker,
)
from repro.lang.parser import ParseError
from repro.obs import (
    atomic_write,
    configure_logging,
    cost_breakdown,
    get_progress,
    get_registry,
    get_tracer,
    measure,
    profile_dict,
    render_profile,
    render_why_slow,
)
from repro.obs.history import (
    BENCH_FILE,
    HistoryStore,
    TrendThresholds,
    collect_run_record,
    compute_trend,
    findings_digest,
    fingerprint_text,
    resolve_history_dir,
    write_bench_file,
)
from repro.robust import ResourceBudget, install_faults
from repro.robust.diagnostics import STAGE_VERIFY
from repro.robust.faults import slow_point

# Exit codes (see EXIT_CODE_TABLE below, shown in --help and README):
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2
EXIT_DEGRADED = 3
EXIT_VERIFY = 4
EXIT_REGRESSION = 5

EXIT_CODE_TABLE = """\
exit codes:
  0  clean — no findings, full coverage
  1  findings reported
  2  hard error (unparseable input, bad usage)
  3  degraded coverage (quarantines/budget exhaustion; findings may be
     incomplete)
  4  verification failure (--verify found a broken internal invariant,
     or selfcheck missed a seeded defect / reported a safe twin)
  5  performance regression ('history trend --check': the latest
     recorded run is slower/bigger than its rolling baseline)

4 dominates 3 dominates 1: a run that both finds bugs and trips the
verifier exits 4.  Gating CI on nonzero still catches every failure.
"""

CHECKERS = {
    "use-after-free": UseAfterFreeChecker,
    "double-free": DoubleFreeChecker,
    "null-deref": NullDereferenceChecker,
    "memory-leak": MemoryLeakChecker,
    "path-traversal": PathTraversalChecker,
    "data-transmission": DataTransmissionChecker,
}


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _report_dict(report) -> Dict:
    from repro.core.report import report_as_dict

    return report_as_dict(report)


def _build_budget(args: argparse.Namespace) -> ResourceBudget:
    return ResourceBudget(
        wall_seconds=args.deadline or None,
        max_steps=args.max_steps or None,
        smt_seconds=args.smt_deadline or None,
    )


def _setup_obs(args: argparse.Namespace, force_trace: bool = False) -> None:
    """Arm the instrumentation layer per the common obs flags.

    Each CLI run gets a *fresh* tracer and registry, so repeated in-process
    invocations (tests, embedding) never bleed spans or counts into each
    other."""
    from repro.obs import (
        MetricsRegistry,
        ProgressTracker,
        Tracer,
        set_progress,
        set_registry,
        set_tracer,
    )

    set_registry(MetricsRegistry())
    set_tracer(Tracer(enabled=force_trace or bool(getattr(args, "trace", ""))))
    set_progress(ProgressTracker())
    if getattr(args, "log_level", "") or getattr(args, "log_json", False):
        configure_logging(
            level=getattr(args, "log_level", "") or "warning",
            json_mode=getattr(args, "log_json", False),
        )


def _export_obs(args: argparse.Namespace) -> None:
    """Write the requested trace/metrics artifacts."""
    if getattr(args, "trace", ""):
        get_tracer().write_chrome_trace(args.trace)
    if getattr(args, "metrics_out", ""):
        get_registry().write(args.metrics_out)


def _start_monitor(args: argparse.Namespace):
    """Start the live monitor when ``--monitor-port`` was given (0 picks
    an ephemeral port); enables progress tracking for the run."""
    port = getattr(args, "monitor_port", None)
    if port is None:
        return None
    from repro.obs import MonitorServer

    progress = get_progress()
    progress.enabled = True
    monitor = MonitorServer(port=port)
    bound = monitor.start()
    # `repro serve` announces the bound port on *stdout* so scripts
    # started with --port 0 can read it (unless stdout carries the
    # machine report); `check --monitor-port` keeps stdout pristine.
    announce_stdout = getattr(args, "_announce_port_stdout", False) and not (
        getattr(args, "json", False) or getattr(args, "sarif", False)
    )
    print(
        f"[monitor] serving on http://127.0.0.1:{bound}",
        file=sys.stdout if announce_stdout else sys.stderr,
        flush=True,
    )
    return monitor


def _finish_monitor(monitor, args: argparse.Namespace, exit_code: int) -> None:
    """Emit the final progress event, honour ``--linger``, stop serving."""
    get_progress().finish(exit_code)
    if monitor is None:
        return
    if getattr(args, "linger", False):
        import time as _time

        print(
            "[monitor] analysis done; still serving (Ctrl-C to stop)",
            file=sys.stderr,
        )
        try:
            while monitor.running:
                _time.sleep(0.2)
        except KeyboardInterrupt:
            pass
    monitor.stop()


def _record_history(
    args: argparse.Namespace,
    *,
    command: str,
    label: str,
    fingerprint: str,
    config: Dict,
    wall_seconds: float,
    peak_mb: float,
    exit_code: int,
    findings: int = 0,
    findings_by_checker=None,
    digest: str = "",
    diagnostics=None,
    profile=None,
    quiet: bool = False,
) -> str:
    """Append a run record when history recording is on; returns the
    run id ('' when recording is off)."""
    history_dir = resolve_history_dir(getattr(args, "history_dir", ""))
    if not history_dir:
        return ""
    record = collect_run_record(
        get_registry(),
        command=command,
        label=label,
        fingerprint=fingerprint,
        config=config,
        wall_seconds=wall_seconds,
        peak_mb=peak_mb,
        exit_code=exit_code,
        findings=findings,
        findings_by_checker=findings_by_checker,
        digest=digest,
        diagnostics=diagnostics,
        profile=profile,
    )
    run_id = HistoryStore(history_dir).append(record)
    if not quiet:
        print(f"[history] recorded {run_id} in {history_dir}")
    return run_id


def _print_stats(stats) -> None:
    """Every EngineStats field, generated from as_dict() so a new field
    can never be silently missing from --stats output."""
    data = stats.as_dict()
    timings = {k: v for k, v in data.items() if k.startswith("seconds_")}
    robust_keys = ("degraded_candidates", "smt_deadline_hits", "quarantined_units")
    core = {
        k: v
        for k, v in data.items()
        if k not in timings and k not in robust_keys
    }
    print("  [stats] " + " ".join(f"{k}={v}" for k, v in core.items()))
    print(
        "  [timing] "
        + " ".join(f"{k[len('seconds_'):]}={v:.3f}s" for k, v in timings.items())
    )
    if any(data[k] for k in robust_keys):
        print("  [robust] " + " ".join(f"{k}={data[k]}" for k in robust_keys))
    from repro.obs.metrics import Counter

    retries = get_registry().get("sched.retries")
    if isinstance(retries, Counter) and retries.total():
        print(f"  [sched] retries={int(retries.total())}")
    from repro.obs import Histogram

    smt_hist = get_registry().get("smt.solve_seconds")
    if isinstance(smt_hist, Histogram) and smt_hist.total_count():
        quantiles = smt_hist.merged_quantiles()
        print(
            "  [quantiles] smt.solve_seconds "
            + " ".join(
                f"{key}={value * 1000:.2f}ms" for key, value in quantiles.items()
            )
        )


def cmd_check(args: argparse.Namespace) -> int:
    _setup_obs(args)
    if args.fault:
        install_faults(args.fault)
    source = _read(args.file)
    config = EngineConfig(
        max_call_depth=args.depth,
        use_smt=not args.no_smt,
        use_linear_filter=not args.no_linear_filter,
        verify=args.verify,
        pta_tier=getattr(args, "pta", "") or "",
    )
    names = list(CHECKERS) if args.all else [args.checker]
    history_on = bool(resolve_history_dir(getattr(args, "history_dir", "")))
    monitor = _start_monitor(args)
    get_progress().begin_run("check", label=args.file)

    def analyze():
        slow_point()
        engine = Pinpoint.from_source(
            source,
            config,
            budget=_build_budget(args),
            recover=not args.strict,
            jobs=args.jobs or None,
            cache_dir=args.cache_dir or None,
            worker_timeout=args.worker_timeout,
        )
        return engine, [engine.check(CHECKERS[name]()) for name in names]

    # Wall time and peak memory are only captured when a history record
    # will want them — tracemalloc has real overhead, and a plain check
    # should stay as fast as before this feature existed.
    if history_on:
        (engine, results), measurement = measure(analyze)
        wall_seconds, peak_mb = measurement.seconds, measurement.peak_mb
    else:
        engine, results = analyze()
        wall_seconds = peak_mb = 0.0

    baseline = None
    if args.baseline:
        from repro.core.baseline import Baseline

        try:
            baseline = Baseline.load(args.baseline)
        except FileNotFoundError:
            baseline = Baseline()
    exit_code = EXIT_CLEAN
    payload: List[Dict] = []
    diagnostics: List = []
    diag_seen = set()
    for name, result in zip(names, results):
        for diag in result.diagnostics:
            key = (diag.stage, diag.unit, diag.reason, diag.line, diag.detail)
            if key not in diag_seen:
                diag_seen.add(key)
                diagnostics.append(diag)
        if baseline is not None:
            new_reports = baseline.filter_new(result)
            suppressed = len(result.reports) - len(new_reports)
            result.reports = new_reports
            if suppressed and not (args.json or args.sarif):
                print(f"[baseline] suppressed {suppressed} known {name} finding(s)")
        if result.reports:
            exit_code = EXIT_FINDINGS
        if args.sarif:
            continue
        if args.json:
            payload.extend(_report_dict(r) for r in result)
        else:
            print(result.summary_line())
            for report in result:
                print()
                print(report)
        if args.stats and not args.json:
            _print_stats(result.stats)
    if args.update_baseline:
        from repro.core.baseline import Baseline as _Baseline

        merged = _Baseline.from_results(results)
        if baseline is not None:
            merged = merged.merge(baseline)
        merged.save(args.update_baseline)
        if not (args.json or args.sarif):
            print(f"[baseline] wrote {len(merged)} finding(s) to {args.update_baseline}")
    tracer = get_tracer()
    if args.sarif:
        from repro.core.sarif import to_sarif_json

        artifact = args.file if args.file != "-" else "stdin.pin"
        print(
            to_sarif_json(
                results,
                artifact,
                metrics=get_registry().as_dict(),
                trace_summary=tracer.summary() if tracer.enabled else None,
            )
        )
    elif args.json:
        document = {
            "reports": payload,
            "diagnostics": [diag.as_dict() for diag in diagnostics],
            "stats": {result.checker: result.stats.as_dict() for result in results},
            "metrics": get_registry().as_dict(),
        }
        if tracer.enabled:
            document["trace"] = tracer.summary()
        json.dump(document, sys.stdout, indent=2)
        print()
    else:
        for diag in diagnostics:
            print(f"[diagnostic] {diag}")
    if args.dump_on_verify_fail and engine.verify_failures:
        from repro.viz.dot import write_verify_dumps

        written = write_verify_dumps(
            args.dump_on_verify_fail, engine.verify_failures, diagnostics
        )
        stream = sys.stderr if (args.json or args.sarif) else sys.stdout
        print(
            f"[verify] dumped {len(written)} offending graph(s) to "
            f"{args.dump_on_verify_fail}",
            file=stream,
        )
    _export_obs(args)
    # Degraded coverage dominates findings: they may be incomplete, and
    # CI must distinguish "clean but partial" from "clean".  A broken
    # internal invariant dominates both — those findings are untrusted.
    if diagnostics:
        exit_code = EXIT_DEGRADED
    if any(diag.stage == STAGE_VERIFY for diag in diagnostics):
        exit_code = EXIT_VERIFY
    _record_history(
        args,
        command="check",
        label=args.file,
        fingerprint=fingerprint_text(source),
        config={
            "checkers": names,
            "jobs": args.jobs or 0,
            "cache": bool(args.cache_dir),
            "depth": args.depth,
            "smt": not args.no_smt,
            "verify": args.verify,
            "fault": args.fault,
            "pta": engine.pta_tier,
        },
        wall_seconds=wall_seconds,
        peak_mb=peak_mb,
        exit_code=exit_code,
        findings=sum(len(result.reports) for result in results),
        findings_by_checker={
            result.checker: len(result.reports) for result in results
        },
        digest=findings_digest(
            [report.key() for result in results for report in result]
        ),
        diagnostics=[diag.as_dict() for diag in diagnostics],
        quiet=args.json or args.sarif,
    )
    _finish_monitor(monitor, args, exit_code)
    return exit_code


def cmd_profile(args: argparse.Namespace) -> int:
    """Run the checkers with tracing on and print where time/memory/SMT
    effort went — per pass and per function (paper Figs. 7-10)."""
    if getattr(args, "compare", None):
        return _profile_compare(args)
    if not args.file:
        print(
            "error: profile needs a program file (or --compare OLD NEW)",
            file=sys.stderr,
        )
        return EXIT_ERROR
    _setup_obs(args, force_trace=True)
    tracer = get_tracer()
    source = _read(args.file)
    config = EngineConfig(
        max_call_depth=args.depth,
        use_smt=not args.no_smt,
        pta_tier=getattr(args, "pta", "") or "",
    )
    names = [args.checker] if args.checker else list(CHECKERS)

    def analyze():
        engine = Pinpoint.from_source(
            source,
            config,
            budget=_build_budget(args),
            recover=True,
            jobs=args.jobs or None,
            cache_dir=args.cache_dir or None,
            worker_timeout=args.worker_timeout,
        )
        return [engine.check(CHECKERS[name]()) for name in names]

    get_progress().begin_run("profile", label=args.file)
    results, measurement = measure(analyze)
    reports = sum(len(result.reports) for result in results)
    degraded = sum(len(result.diagnostics) for result in results)
    document = profile_dict(
        tracer,
        get_registry(),
        measurement,
        source_label=args.file,
        top=args.top,
    )
    document["checkers"] = names
    document["reports"] = reports
    document["diagnostics"] = degraded
    if args.json:
        json.dump(document, sys.stdout, indent=2)
        print()
    else:
        print(
            render_profile(
                tracer,
                get_registry(),
                measurement,
                source_label=args.file,
                top=args.top,
            )
        )
        print()
        print(
            f"checkers: {', '.join(names)} — {reports} report(s), "
            f"{degraded} diagnostic(s)"
        )
    _export_obs(args)
    _record_history(
        args,
        command="profile",
        label=args.file,
        fingerprint=fingerprint_text(source),
        config={"checkers": names, "top": args.top, "smt": not args.no_smt},
        wall_seconds=measurement.seconds,
        peak_mb=measurement.peak_mb,
        exit_code=EXIT_CLEAN,
        findings=reports,
        profile=document,
        quiet=args.json,
    )
    get_progress().finish(EXIT_CLEAN)
    return EXIT_CLEAN


def _delta_line(label: str, a: float, b: float, unit: str = "") -> str:
    """One ``old -> new`` comparison line, shared by ``history diff``
    and ``profile --compare``."""
    change = b - a
    pct = f" ({change / a * 100:+.1f}%)" if a else ""
    return f"  {label:<16} {a:>10.3f} -> {b:>10.3f}{unit} {change:+.3f}{pct}"


def _load_profile_document(path: str) -> Dict:
    """Load a profile-shaped JSON artifact for ``profile --compare``.

    Accepts a ``profile --json`` dump, a ``why-slow --out`` artifact, or
    a full run record from ``history show`` (whose embedded ``profile``
    document is unwrapped, inheriting the record's wall time/label)."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict):
        raise ValueError(f"{path}: expected a JSON object")
    if isinstance(document.get("profile"), dict):  # run record
        inner = dict(document["profile"])
        inner.setdefault("wall_seconds", document.get("wall_seconds", 0.0))
        inner.setdefault("label", document.get("label", ""))
        document = inner
    return document


def _profile_stage_map(document: Dict) -> Dict[str, float]:
    """pass/stage name -> self seconds, across the accepted doc shapes."""
    stages: Dict[str, float] = {}
    for row in document.get("passes", []):
        if isinstance(row, dict) and row.get("name"):
            stages[str(row["name"])] = float(row.get("self_seconds", 0.0))
    return stages


def _profile_function_map(document: Dict) -> Dict[str, float]:
    functions: Dict[str, float] = {}
    for row in document.get("functions", document.get("top_functions", [])):
        if isinstance(row, dict) and row.get("unit"):
            functions[str(row["unit"])] = float(row.get("self_seconds", 0.0))
    return functions


def _profile_compare(args: argparse.Namespace) -> int:
    """``repro profile --compare OLD NEW``: per-stage deltas between two
    profile/why-slow/history JSON artifacts — the one-command before/after
    view of a perf PR."""
    old_path, new_path = args.compare
    try:
        old = _load_profile_document(old_path)
        new = _load_profile_document(new_path)
    except (OSError, ValueError) as error:
        print(f"error: cannot read profile document: {error}", file=sys.stderr)
        return EXIT_ERROR

    stages = sorted(set(_profile_stage_map(old)) | set(_profile_stage_map(new)))
    old_stages, new_stages = _profile_stage_map(old), _profile_stage_map(new)
    old_funcs, new_funcs = _profile_function_map(old), _profile_function_map(new)
    functions = sorted(
        set(old_funcs) | set(new_funcs),
        key=lambda unit: max(old_funcs.get(unit, 0.0), new_funcs.get(unit, 0.0)),
        reverse=True,
    )[: args.top]

    if args.json:
        document = {
            "old": {"path": old_path, "label": old.get("label", "")},
            "new": {"path": new_path, "label": new.get("label", "")},
            "wall_seconds": [
                float(old.get("wall_seconds", 0.0)),
                float(new.get("wall_seconds", 0.0)),
            ],
            "traced_seconds": [
                float(old.get("traced_seconds", 0.0)),
                float(new.get("traced_seconds", 0.0)),
            ],
            "passes": {
                name: [old_stages.get(name, 0.0), new_stages.get(name, 0.0)]
                for name in stages
            },
            "functions": {
                unit: [old_funcs.get(unit, 0.0), new_funcs.get(unit, 0.0)]
                for unit in functions
            },
        }
        if old.get("shares") or new.get("shares"):
            document["shares"] = {
                key: [
                    float(old.get("shares", {}).get(key, 0.0)),
                    float(new.get("shares", {}).get(key, 0.0)),
                ]
                for key in ("compute", "dispatch_overhead")
            }
        json.dump(document, sys.stdout, indent=2)
        print()
        return EXIT_CLEAN

    print(f"{old_path} ({old.get('label', '?')}) -> {new_path} ({new.get('label', '?')})")
    print(
        _delta_line(
            "wall_seconds",
            float(old.get("wall_seconds", 0.0)),
            float(new.get("wall_seconds", 0.0)),
            "s",
        )
    )
    print(
        _delta_line(
            "traced_seconds",
            float(old.get("traced_seconds", 0.0)),
            float(new.get("traced_seconds", 0.0)),
            "s",
        )
    )
    if old.get("peak_mb") or new.get("peak_mb"):
        print(
            _delta_line(
                "peak_mb",
                float(old.get("peak_mb", 0.0)),
                float(new.get("peak_mb", 0.0)),
                "MB",
            )
        )
    for name in stages:
        print(
            _delta_line(
                f"pass {name}",
                old_stages.get(name, 0.0),
                new_stages.get(name, 0.0),
                "s",
            )
        )
    if functions:
        print("hottest functions (self seconds):")
        for unit in functions:
            print(
                _delta_line(
                    f"fn {unit}",
                    old_funcs.get(unit, 0.0),
                    new_funcs.get(unit, 0.0),
                    "s",
                )
            )
    if old.get("shares") or new.get("shares"):
        for key in ("compute", "dispatch_overhead"):
            print(
                _delta_line(
                    f"share {key}",
                    float(old.get("shares", {}).get(key, 0.0)),
                    float(new.get("shares", {}).get(key, 0.0)),
                )
            )
    return EXIT_CLEAN


def cmd_why_slow(args: argparse.Namespace) -> int:
    """Run the checkers with tracing forced on, then answer "where did
    the wall time go": critical path through the wave barriers, per-wave
    stragglers, compute-vs-dispatch-overhead split, top functions and
    SMT consumers (repro.obs.attr)."""
    _setup_obs(args, force_trace=True)
    tracer = get_tracer()
    source = _read(args.file)
    config = EngineConfig(
        max_call_depth=args.depth,
        use_smt=not args.no_smt,
        pta_tier=getattr(args, "pta", "") or "",
    )
    names = [args.checker] if args.checker else list(CHECKERS)

    def analyze():
        engine = Pinpoint.from_source(
            source,
            config,
            budget=_build_budget(args),
            recover=True,
            jobs=args.jobs or None,
            cache_dir=args.cache_dir or None,
            worker_timeout=args.worker_timeout,
        )
        return [engine.check(CHECKERS[name]()) for name in names]

    get_progress().begin_run("why-slow", label=args.file)
    results, measurement = measure(analyze)
    reports = sum(len(result.reports) for result in results)
    document = cost_breakdown(
        tracer,
        get_registry(),
        measurement,
        source_label=args.file,
        top=args.top,
    )
    document["checkers"] = names
    document["reports"] = reports
    if args.json:
        json.dump(document, sys.stdout, indent=2)
        print()
    else:
        print(render_why_slow(document, top=args.top))
    if args.out:
        atomic_write(args.out, json.dumps(document, indent=2, sort_keys=True) + "\n")
        if not args.json:
            print(f"[why-slow] wrote {args.out}")
    _export_obs(args)
    _record_history(
        args,
        command="why-slow",
        label=args.file,
        fingerprint=fingerprint_text(source),
        config={"checkers": names, "jobs": args.jobs or 0, "top": args.top},
        wall_seconds=measurement.seconds,
        peak_mb=measurement.peak_mb,
        exit_code=EXIT_CLEAN,
        findings=reports,
        profile=document,
        quiet=args.json,
    )
    get_progress().finish(EXIT_CLEAN)
    return EXIT_CLEAN


def cmd_run(args: argparse.Namespace) -> int:
    from repro.lang.interp import run_function

    source = _read(args.file)
    try:
        values = [int(v) for v in args.args.split(",")] if args.args else []
    except ValueError:
        print(
            f"error: --args expects comma-separated integers, got {args.args!r}",
            file=sys.stderr,
        )
        return EXIT_ERROR
    interp = run_function(
        source, args.entry, *values, halt_on_violation=not args.keep_going
    )
    for violation in interp.violations:
        print(f"violation: {violation}")
    if not interp.violations:
        print("run completed with no memory-safety violations")
    if interp.taint_sink_hits:
        for event in interp.taint_sink_hits:
            print(
                f"taint reached sink {event.detail} at "
                f"{event.function}:{event.line}"
            )
    return 1 if interp.violations else 0


def cmd_dump_seg(args: argparse.Namespace) -> int:
    from repro.viz.dot import seg_to_dot

    source = _read(args.file)
    engine = Pinpoint.from_source(
        source, jobs=args.jobs or None, cache_dir=args.cache_dir or None
    )
    if args.function not in engine.functions:
        print(f"no such function: {args.function}", file=sys.stderr)
        return 2
    print(seg_to_dot(engine.functions[args.function].seg))
    return 0


def cmd_dump_cfg(args: argparse.Namespace) -> int:
    from repro.viz.dot import cfg_to_dot

    source = _read(args.file)
    engine = Pinpoint.from_source(
        source, jobs=args.jobs or None, cache_dir=args.cache_dir or None
    )
    if args.function not in engine.functions:
        print(f"no such function: {args.function}", file=sys.stderr)
        return 2
    print(cfg_to_dot(engine.functions[args.function].prepared.function))
    return 0


def _open_cache(args: argparse.Namespace):
    """The store named by --cache-dir / REPRO_CACHE_DIR, or None (after
    printing a usage error)."""
    from repro.cache import open_store, resolve_cache_dir

    resolved = resolve_cache_dir(args.cache_dir)
    if not resolved:
        print(
            "error: no cache directory (pass --cache-dir or set "
            "REPRO_CACHE_DIR)",
            file=sys.stderr,
        )
        return None
    return open_store(resolved)


def cmd_cache_stats(args: argparse.Namespace) -> int:
    store = _open_cache(args)
    if store is None:
        return EXIT_ERROR
    data = store.stats()
    if args.json:
        json.dump(data, sys.stdout, indent=2)
        print()
    else:
        print(f"cache root:      {data['root']}")
        print(f"schema version:  v{data['schema_version']}")
        print(f"entries:         {data['entries']}")
        print(f"bytes on disk:   {data['bytes']}")
        if data["pruned_stale_versions"]:
            print(f"stale entries pruned on open: {data['pruned_stale_versions']}")
    return EXIT_CLEAN


def cmd_cache_clear(args: argparse.Namespace) -> int:
    store = _open_cache(args)
    if store is None:
        return EXIT_ERROR
    removed = store.clear()
    print(f"removed {removed} cached artifact(s) from {store.root}")
    return EXIT_CLEAN


def cmd_cache_warm(args: argparse.Namespace) -> int:
    """Prepare (and persist) every function of a program without running
    any checker — so the next `repro check --cache-dir ...` starts hot."""
    from repro.core.pipeline import prepare_source
    from repro.obs import MetricsRegistry, Tracer, set_registry, set_tracer
    from repro.sched import resolve_jobs

    store = _open_cache(args)
    if store is None:
        return EXIT_ERROR
    set_registry(MetricsRegistry())
    set_tracer(Tracer())
    source = _read(args.file)
    module = prepare_source(
        source, recover=True, jobs=resolve_jobs(args.jobs or None), store=store
    )
    registry = get_registry()
    hits = int(registry.counter("cache.hits").total())
    writes = int(registry.counter("cache.writes").total())
    print(
        f"warmed {len(module.functions)} function(s): "
        f"{hits} already cached, {writes} newly written"
    )
    return EXIT_CLEAN


def cmd_generate(args: argparse.Namespace) -> int:
    from repro.synth.generator import GeneratorConfig, generate_program

    config = GeneratorConfig(
        seed=args.seed,
        target_lines=args.lines,
        taint_period=7 if args.taint else 0,
    )
    program = generate_program(config)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(program.source)
        print(
            f"wrote {program.line_count} lines "
            f"({len(program.true_bugs())} seeded bugs, "
            f"{len(program.traps())} traps) to {args.output}"
        )
    else:
        sys.stdout.write(program.source)
    return 0


def cmd_selfcheck(args: argparse.Namespace) -> int:
    """Differential sanitizer harness: seeded synth corpus, static
    engine with the verifier on, cross-checked against the interpreter
    oracle (see docs/verification.md)."""
    from repro.verify.selfcheck import parse_seed_spec, run_selfcheck

    _setup_obs(args)
    seeds = parse_seed_spec(args.seeds)
    history_on = bool(resolve_history_dir(getattr(args, "history_dir", "")))
    monitor = _start_monitor(args)
    get_progress().begin_run("selfcheck", label=args.seeds)

    def analyze():
        slow_point()
        return run_selfcheck(
            seeds,
            lines=args.lines,
            mode=args.verify or "full",
            oracle=not args.no_oracle,
            jobs=args.jobs or None,
            cache_dir=args.cache_dir or None,
        )

    if history_on:
        report, measurement = measure(analyze)
        wall_seconds, peak_mb = measurement.seconds, measurement.peak_mb
    else:
        report = analyze()
        wall_seconds = peak_mb = 0.0
    document = report.as_dict()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
    if args.json:
        json.dump(document, sys.stdout, indent=2)
        print()
    else:
        print(
            f"selfcheck: {len(report.outcomes)} seed(s) x {args.lines} lines, "
            f"checker={report.checker}, verify={report.mode}, "
            f"oracle={'on' if report.oracle else 'off'}"
        )
        for kind, recall in document["recall_by_kind"].items():
            print(f"  recall {kind}: {recall:.2f}")
        print(
            f"  trap reports: {document['trap_reports']}  "
            f"range-trap reports: {document['range_trap_reports']}  "
            f"other FPs: {document['other_false_positives']}"
        )
        print(
            f"  verifier violations: {document['verify_violations']}  "
            f"oracle disagreements: {document['oracle_disagreements']}"
        )
        for outcome in report.outcomes:
            if outcome.ok:
                continue
            problems = (
                [f"missed {m}" for m in outcome.missed]
                + [f"trap report {t}" for t in outcome.trap_reports]
                + [f"oracle {o}" for o in outcome.oracle_disagreements]
                + (
                    [f"{outcome.verify_violations} verifier violation(s)"]
                    if outcome.verify_violations
                    else []
                )
            )
            print(f"  seed {outcome.seed}: FAIL — {'; '.join(problems)}")
        print(f"result: {'PASS' if report.ok else 'FAIL'}")
    _export_obs(args)
    exit_code = EXIT_CLEAN if report.ok else EXIT_VERIFY
    _record_history(
        args,
        command="selfcheck",
        label=args.seeds,
        fingerprint=fingerprint_text(f"selfcheck:{args.seeds}:{args.lines}"),
        config={
            "seeds": args.seeds,
            "lines": args.lines,
            "verify": args.verify or "full",
            "oracle": not args.no_oracle,
            "jobs": args.jobs or 0,
        },
        wall_seconds=wall_seconds,
        peak_mb=peak_mb,
        exit_code=exit_code,
        findings=document.get("trap_reports", 0)
        + document.get("other_false_positives", 0),
        quiet=args.json,
    )
    _finish_monitor(monitor, args, exit_code)
    return exit_code


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro check`` with the live monitor on: serve /healthz /metrics
    /status /events while the analysis runs (and afterwards, with
    --linger)."""
    args.monitor_port = args.port
    args._announce_port_stdout = True
    return cmd_check(args)


def cmd_daemon(args: argparse.Namespace) -> int:
    """Run the persistent analysis service until SIGTERM/SIGINT (see
    docs/service.md).  Prints the bound port on stdout — with --port 0
    scripts read the ephemeral port from that line."""
    import signal
    import threading
    import time as time_mod

    from repro.cache import resolve_cache_dir as _resolve_cache
    from repro.service import ServiceConfig, ServiceServer

    _setup_obs(args)
    get_progress().enabled = True
    get_progress().begin_run("daemon", label=f"workers={args.workers}")
    config = ServiceConfig(
        workers=args.workers,
        queue_max=args.queue_max,
        max_sessions=args.max_sessions,
        depth=args.depth,
        no_smt=args.no_smt,
        verify=args.verify,
        pta=getattr(args, "pta", "") or "",
        deadline=args.deadline,
        smt_deadline=args.smt_deadline,
        max_steps=args.max_steps,
        cache_dir=_resolve_cache(args.cache_dir),
        history_dir=resolve_history_dir(getattr(args, "history_dir", "")),
    )
    server = ServiceServer(config)
    port = server.start(args.port)
    print(f"[daemon] listening on http://127.0.0.1:{port}", flush=True)

    stop_requested = threading.Event()
    try:
        signal.signal(signal.SIGTERM, lambda *_: stop_requested.set())
        signal.signal(signal.SIGINT, lambda *_: stop_requested.set())
    except ValueError:
        pass  # not the main thread (in-process tests drive stop() directly)
    started = time_mod.monotonic()
    try:
        while not stop_requested.is_set() and server.running:
            stop_requested.wait(timeout=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    uptime = time_mod.monotonic() - started
    counts = server.jobs.counts()
    _export_obs(args)
    get_progress().finish(EXIT_CLEAN)
    _record_history(
        args,
        command="daemon",
        label=f"port:{port}",
        fingerprint=fingerprint_text(
            f"daemon:workers={args.workers}:queue={args.queue_max}"
        ),
        config={
            "workers": args.workers,
            "queue_max": args.queue_max,
            "max_sessions": args.max_sessions,
            "depth": args.depth,
            "smt": not args.no_smt,
            "pta": getattr(args, "pta", "") or "",
            "cache": bool(config.cache_dir),
        },
        wall_seconds=uptime,
        peak_mb=0.0,
        exit_code=EXIT_CLEAN,
    )
    print(
        f"[daemon] stopped after {uptime:.1f}s "
        f"({sum(counts.values())} job(s): "
        + (
            " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
            or "none"
        )
        + ")",
        flush=True,
    )
    return EXIT_CLEAN


def cmd_client(args: argparse.Namespace) -> int:
    """Talk to a running daemon; prints the JSON response.  For check
    and edit, the exit code mirrors the one-shot `repro check` codes
    (0 clean, 1 findings, 3 degraded, 4 verify) from the result."""
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.port, host=args.host, timeout=args.timeout)
    action = args.client_command
    checkers: object = "all"
    if getattr(args, "checker", "") and not getattr(args, "all", False):
        checkers = [args.checker]
    try:
        if action == "health":
            document = client.health()
        elif action == "sessions":
            document = {"sessions": client.sessions()}
        elif action == "check":
            document = client.check(
                _read(args.file),
                checkers=checkers,
                session=args.session,
                wait=not args.no_wait,
            )
        elif action == "edit":
            document = client.edit(
                args.session,
                _read(args.file),
                checkers=checkers,
                function=args.function,
            )
        elif action == "job":
            document = client.job(args.id)
        else:  # result
            document = client.result(args.id)
    except ServiceError as error:
        print(json.dumps(error.payload, indent=2, sort_keys=True), file=sys.stderr)
        if error.overloaded:
            print(
                f"error: daemon overloaded; retry after "
                f"{error.retry_after}s",
                file=sys.stderr,
            )
        else:
            print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as error:
        print(
            f"error: cannot reach daemon at {args.host}:{args.port}: {error}",
            file=sys.stderr,
        )
        return EXIT_ERROR
    json.dump(document, sys.stdout, indent=2, sort_keys=True)
    print()
    if action in ("check", "edit"):
        status = document.get("status", "")
        if status == "done":
            return int(document.get("exit_code", EXIT_CLEAN))
        if status in ("failed", "aborted"):
            return EXIT_ERROR
    return EXIT_CLEAN


def cmd_loadgen(args: argparse.Namespace) -> int:
    """Drive a running daemon with concurrent mixed cold/warm/edit
    traffic and report per-kind latency quantiles (docs/service.md)."""
    from repro.service.loadgen import LoadConfig, run_load

    _setup_obs(args)
    registry = get_registry()
    histogram = registry.histogram(
        "service.request_seconds",
        "Client-visible daemon request latency (loadgen measurement)",
    )

    def on_sample(sample) -> None:
        histogram.observe(sample["seconds"], kind=sample["kind"])

    config = LoadConfig(
        clients=args.clients,
        edits_per_client=args.edits,
        target_lines=args.lines,
        seed=args.seed,
    )
    try:
        report = run_load(
            args.port, config, host=args.host, on_sample=on_sample
        )
    except OSError as error:
        print(
            f"error: cannot reach daemon at {args.host}:{args.port}: {error}",
            file=sys.stderr,
        )
        return EXIT_ERROR
    summary = report.summary()
    document = {"summary": summary, "samples": report.samples}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.json:
        json.dump(document if args.samples else {"summary": summary},
                  sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        print(
            f"loadgen: {summary['requests']} request(s) from "
            f"{args.clients} client(s) in {summary['wall_seconds']}s "
            f"({summary['rejected']} rejected, {summary['errors']} error(s))"
        )
        for kind, stats in summary["kinds"].items():
            print(
                f"  {kind:<5} n={stats['count']:<4} "
                f"p50={stats['p50'] * 1000:8.2f}ms "
                f"p95={stats['p95'] * 1000:8.2f}ms "
                f"p99={stats['p99'] * 1000:8.2f}ms "
                f"max={stats['max'] * 1000:8.2f}ms"
            )
        if args.out:
            print(f"  trajectory written to {args.out}")
    for error in report.errors:
        print(f"error: {error}", file=sys.stderr)
    _export_obs(args)
    _record_history(
        args,
        command="loadgen",
        label=f"clients={args.clients} edits={args.edits}",
        fingerprint=fingerprint_text(
            f"loadgen:{args.clients}:{args.edits}:{args.lines}:{args.seed}"
        ),
        config={
            "clients": args.clients,
            "edits": args.edits,
            "lines": args.lines,
            "seed": args.seed,
        },
        wall_seconds=report.wall_seconds,
        peak_mb=0.0,
        exit_code=EXIT_CLEAN if not report.errors else EXIT_ERROR,
        quiet=args.json,
    )
    return EXIT_CLEAN if not report.errors else EXIT_ERROR


def _open_history(args: argparse.Namespace):
    """The store named by --history-dir / REPRO_HISTORY_DIR, or None
    (after printing a usage error)."""
    resolved = resolve_history_dir(getattr(args, "history_dir", ""))
    if not resolved:
        print(
            "error: no history directory (pass --history-dir or set "
            "REPRO_HISTORY_DIR)",
            file=sys.stderr,
        )
        return None
    return HistoryStore(resolved)


def cmd_history_list(args: argparse.Namespace) -> int:
    store = _open_history(args)
    if store is None:
        return EXIT_ERROR
    index = store.index()
    if args.json:
        json.dump(index, sys.stdout, indent=2)
        print()
        return EXIT_CLEAN
    if not index:
        print(f"no runs recorded in {store.directory}")
        return EXIT_CLEAN
    header = (
        f"{'run':<8} {'when':<20} {'command':<10} {'wall':>9} {'peak':>9} "
        f"{'finds':>5} {'exit':>4}  label"
    )
    print(header)
    print("-" * len(header))
    for entry in index:
        print(
            f"{entry['run_id']:<8} {entry['ts_iso']:<20} "
            f"{entry['command']:<10} {entry['wall_seconds']:>8.3f}s "
            f"{entry['peak_mb']:>7.1f}MB {entry['findings']:>5} "
            f"{entry['exit_code']:>4}  {entry['label']}"
        )
    return EXIT_CLEAN


def cmd_history_show(args: argparse.Namespace) -> int:
    store = _open_history(args)
    if store is None:
        return EXIT_ERROR
    record = store.get(args.run) if args.run else store.latest()
    if record is None:
        which = args.run or "latest"
        print(f"error: no such run: {which}", file=sys.stderr)
        return EXIT_ERROR
    json.dump(record, sys.stdout, indent=2, sort_keys=True)
    print()
    return EXIT_CLEAN


def cmd_history_diff(args: argparse.Namespace) -> int:
    store = _open_history(args)
    if store is None:
        return EXIT_ERROR
    if not args.old and not args.new:
        records = store.records()
        if len(records) < 2:
            print("error: need at least two recorded runs to diff", file=sys.stderr)
            return EXIT_ERROR
        args.old = records[-2]["run_id"]
        args.new = records[-1]["run_id"]
    old = store.get(args.old)
    new = store.get(args.new)
    missing = [rid for rid, rec in ((args.old, old), (args.new, new)) if rec is None]
    if missing:
        print(f"error: no such run: {', '.join(missing)}", file=sys.stderr)
        return EXIT_ERROR

    delta = _delta_line

    if args.json:
        document = {
            "old": old["run_id"],
            "new": new["run_id"],
            "wall_seconds": [old["wall_seconds"], new["wall_seconds"]],
            "peak_mb": [old["peak_mb"], new["peak_mb"]],
            "findings": [
                old["findings"]["total"], new["findings"]["total"]
            ],
            "stages": {
                stage: [
                    old.get("stages", {}).get(stage, 0.0),
                    new.get("stages", {}).get(stage, 0.0),
                ]
                for stage in sorted(
                    set(old.get("stages", {})) | set(new.get("stages", {}))
                )
            },
            "same_fingerprint": old["fingerprint"] == new["fingerprint"],
            "same_findings_digest": old["findings"].get("digest")
            == new["findings"].get("digest"),
            "retries": [
                int(old.get("sched", {}).get("retries", 0)),
                int(new.get("sched", {}).get("retries", 0)),
            ],
            "attr": {
                "critical_path_seconds": [
                    float(old.get("sched", {}).get("critical_path_seconds", 0.0)),
                    float(new.get("sched", {}).get("critical_path_seconds", 0.0)),
                ],
                "overhead_ratio": [
                    float(old.get("sched", {}).get("overhead_ratio", 0.0)),
                    float(new.get("sched", {}).get("overhead_ratio", 0.0)),
                ],
                "utilization": [
                    float(old.get("sched", {}).get("utilization", 0.0)),
                    float(new.get("sched", {}).get("utilization", 0.0)),
                ],
            },
            "pta": {
                "tier": [
                    str(old.get("pta", {}).get("tier", "fi")),
                    str(new.get("pta", {}).get("tier", "fi")),
                ],
                "strong_updates": [
                    int(old.get("pta", {}).get("strong_updates", 0)),
                    int(new.get("pta", {}).get("strong_updates", 0)),
                ],
                "weak_updates": [
                    int(old.get("pta", {}).get("weak_updates", 0)),
                    int(new.get("pta", {}).get("weak_updates", 0)),
                ],
                "escalations": [
                    int(old.get("pta", {}).get("escalations", 0)),
                    int(new.get("pta", {}).get("escalations", 0)),
                ],
            },
        }
        json.dump(document, sys.stdout, indent=2)
        print()
        return EXIT_CLEAN
    print(f"{old['run_id']} ({old['ts_iso']}) -> {new['run_id']} ({new['ts_iso']})")
    if old["fingerprint"] != new["fingerprint"]:
        print(
            "  NOTE: different source fingerprints "
            f"({old['fingerprint']} vs {new['fingerprint']}); timings are "
            "not comparable"
        )
    print(delta("wall_seconds", old["wall_seconds"], new["wall_seconds"], "s"))
    print(delta("peak_mb", old["peak_mb"], new["peak_mb"], "MB"))
    for stage in sorted(set(old.get("stages", {})) | set(new.get("stages", {}))):
        print(
            delta(
                f"stage {stage}",
                old.get("stages", {}).get(stage, 0.0),
                new.get("stages", {}).get(stage, 0.0),
                "s",
            )
        )
    old_f = old["findings"]["total"]
    new_f = new["findings"]["total"]
    print(f"  {'findings':<16} {old_f:>10} -> {new_f:>10} {new_f - old_f:+d}")
    if old["findings"].get("digest") != new["findings"].get("digest"):
        print("  findings digest changed (different bug sets)")
    # A tier change explains wall/findings deltas — surface it loudly so
    # an fi-vs-fs comparison never reads as silent perf/precision drift.
    old_p = old.get("pta", {})
    new_p = new.get("pta", {})
    old_tier = str(old_p.get("tier", "fi"))
    new_tier = str(new_p.get("tier", "fi"))
    if old_tier != new_tier:
        print(
            f"  NOTE: PTA tier changed ({old_tier} -> {new_tier}); wall and "
            "findings deltas reflect the precision tier, not drift"
        )
    pta_bits = []
    for key in ("strong_updates", "weak_updates", "escalations"):
        a, b = int(old_p.get(key, 0)), int(new_p.get(key, 0))
        if a or b:
            pta_bits.append(f"{key} {a} -> {b}")
    if pta_bits:
        print(f"  pta[{old_tier} -> {new_tier}] " + "; ".join(pta_bits))
    old_s = old.get("sched", {})
    new_s = new.get("sched", {})
    if old_s.get("retries") or new_s.get("retries"):
        print(f"  retries {old_s.get('retries', 0)} -> {new_s.get('retries', 0)}")
    # Cost attribution (parallel runs): the dispatch-overhead share and
    # critical path, so "did the perf PR move the split" is one diff.
    if old_s.get("critical_path_seconds") or new_s.get("critical_path_seconds"):
        print(
            delta(
                "critical_path",
                float(old_s.get("critical_path_seconds", 0.0)),
                float(new_s.get("critical_path_seconds", 0.0)),
                "s",
            )
        )
        print(
            delta(
                "overhead_ratio",
                float(old_s.get("overhead_ratio", 0.0)),
                float(new_s.get("overhead_ratio", 0.0)),
            )
        )
        print(
            delta(
                "utilization",
                float(old_s.get("utilization", 0.0)),
                float(new_s.get("utilization", 0.0)),
            )
        )
    return EXIT_CLEAN


def cmd_history_trend(args: argparse.Namespace) -> int:
    store = _open_history(args)
    if store is None:
        return EXIT_ERROR
    records = store.records()
    thresholds = TrendThresholds(
        wall_ratio=args.max_wall_ratio,
        mem_ratio=args.max_mem_ratio,
        baseline_runs=args.baseline_runs,
        min_runs=args.min_runs,
    )
    trend = compute_trend(records, thresholds)
    bench_path = args.bench_out or BENCH_FILE
    write_bench_file(bench_path, records, trend)
    if args.json:
        json.dump(trend.as_dict(), sys.stdout, indent=2)
        print()
    else:
        verdict = "OK" if trend.ok else "REGRESSION"
        print(f"trend: {verdict} — {trend.reason}")
        if trend.baseline:
            print(
                f"  baseline (median of {trend.baseline_count}): "
                f"wall={trend.baseline['wall_seconds']:.3f}s "
                f"peak={trend.baseline['peak_mb']:.1f}MB "
                f"findings={trend.baseline['findings']}"
            )
        if trend.latest is not None:
            print(
                f"  latest ({trend.latest.get('run_id', '?')}): "
                f"wall={trend.latest.get('wall_seconds', 0.0):.3f}s "
                f"peak={trend.latest.get('peak_mb', 0.0):.1f}MB "
                f"findings={trend.latest.get('findings', {}).get('total', 0)}"
            )
        for regression in trend.regressions:
            detail = f"  REGRESSED {regression['metric']}: "
            detail += f"{regression['baseline']} -> {regression['latest']}"
            if regression.get("ratio") is not None:
                detail += (
                    f" ({regression['ratio']}x, threshold "
                    f"{regression['threshold_ratio']}x)"
                )
            print(detail)
        print(f"  trajectory written to {bench_path}")
    if args.check and not trend.ok:
        return EXIT_REGRESSION
    return EXIT_CLEAN


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Pinpoint (PLDI 2018) reproduction: sparse value-flow analysis.",
        epilog=EXIT_CODE_TABLE,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags shared by every analysis-running subcommand: they arm the
    # instrumentation layer (repro.obs) and pick where it exports to.
    obs = argparse.ArgumentParser(add_help=False)
    obs.add_argument(
        "--trace",
        default="",
        metavar="FILE",
        help="write a Chrome trace_event JSON of the run (open in "
        "chrome://tracing or Perfetto)",
    )
    obs.add_argument(
        "--metrics-out",
        default="",
        metavar="FILE",
        help="write the metrics registry here (.json for JSON, anything "
        "else for Prometheus text format)",
    )
    obs.add_argument(
        "--log-level",
        default="",
        choices=["debug", "info", "warning", "error"],
        help="enable structured logging at this level",
    )
    obs.add_argument(
        "--log-json",
        action="store_true",
        help="emit log records as JSON lines (implies logging enabled)",
    )
    obs.add_argument(
        "--history-dir",
        default="",
        metavar="DIR",
        help="append a run record (timings, memory, cache traffic, "
        "findings digest) to the history store here (default: the "
        "REPRO_HISTORY_DIR environment variable, else off); see the "
        "'history' subcommand",
    )
    obs.add_argument(
        "--monitor-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve the live monitor (/healthz /metrics /status /events) "
        "on this port while the run is in flight (0 picks a free port)",
    )

    # Flags shared by every analysis-running subcommand: the parallel
    # wave scheduler and the persistent artifact cache (repro.sched /
    # repro.cache).  Reports are byte-identical whatever the job count
    # or cache state.
    par = argparse.ArgumentParser(add_help=False)
    par.add_argument(
        "--jobs",
        type=int,
        default=0,
        metavar="N",
        help="prepare call-graph waves on N worker processes (default: "
        "the REPRO_JOBS environment variable, else 1 = serial)",
    )
    par.add_argument(
        "--cache-dir",
        default="",
        metavar="DIR",
        help="persist per-function artifacts here and reuse them across "
        "runs (default: the REPRO_CACHE_DIR environment variable, else "
        "off); see also the 'cache' subcommand",
    )
    par.add_argument(
        "--worker-timeout",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="per-function ceiling for worker tasks under --jobs; a task "
        "past it walks the retry ladder (backoff, isolation) and is "
        "quarantined (exit 3) only when that is exhausted",
    )

    check = sub.add_parser(
        "check", help="statically check a program", parents=[obs, par]
    )
    check.add_argument("file", help="program file ('-' for stdin)")
    check.add_argument(
        "--checker",
        choices=sorted(CHECKERS),
        default="use-after-free",
    )
    check.add_argument("--all", action="store_true", help="run every checker")
    check.add_argument("--json", action="store_true", help="JSON output")
    check.add_argument("--sarif", action="store_true", help="SARIF 2.1.0 output")
    check.add_argument(
        "--baseline", default="", help="suppress findings recorded in this JSON file"
    )
    check.add_argument(
        "--update-baseline",
        default="",
        help="write the (remaining) findings to this JSON baseline file",
    )
    check.add_argument("--stats", action="store_true", help="print engine stats")
    check.add_argument("--depth", type=int, default=6, help="max calling contexts")
    check.add_argument(
        "--pta",
        default="",
        choices=["fi", "fs"],
        help="points-to precision tier: fi (flow-insensitive baseline, "
        "default) or fs (sparse flow-sensitive strong updates; functions "
        "implicated in reports are escalated and re-confirmed; default: "
        "the REPRO_PTA environment variable, else fi)",
    )
    check.add_argument("--no-smt", action="store_true", help="path-insensitive mode")
    check.add_argument(
        "--no-linear-filter", action="store_true", help="skip the linear pre-filter"
    )
    check.add_argument(
        "--deadline",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="wall-clock budget; past it the analysis degrades precision "
        "instead of running on (exit 3 reports degraded coverage)",
    )
    check.add_argument(
        "--smt-deadline",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="per-query SMT ceiling; a query past it falls back to the "
        "linear solver's verdict with verdict=unknown",
    )
    check.add_argument(
        "--max-steps",
        type=int,
        default=0,
        metavar="N",
        help="cooperative step budget for points-to + value-flow search",
    )
    check.add_argument(
        "--strict",
        action="store_true",
        help="fail on the first parse error instead of quarantining the "
        "malformed function and continuing",
    )
    check.add_argument(
        "--fault",
        default="",
        metavar="SPEC",
        help="deterministic fault injection, e.g. 'prepare:foo' or 'smt*1' "
        "(also via REPRO_FAULTS; for testing the degradation paths)",
    )
    check.add_argument(
        "--verify",
        default="",
        choices=["off", "fast", "full"],
        help="self-verification: check IR/SEG (fast) plus call interfaces "
        "and summaries (full) after each pipeline stage; violations "
        "quarantine the function and exit 4 (default: the REPRO_VERIFY "
        "environment variable, else off)",
    )
    check.add_argument(
        "--dump-on-verify-fail",
        default="",
        metavar="DIR",
        help="write the Graphviz dot of each artifact the verifier "
        "quarantined (CFG or SEG, with the violated rules as comments) "
        "into this directory",
    )
    check.set_defaults(func=cmd_check)

    profile = sub.add_parser(
        "profile",
        help="run the checkers and print the hottest passes/functions",
        parents=[obs, par],
    )
    profile.add_argument(
        "file",
        nargs="?",
        default="",
        help="program file ('-' for stdin); omit with --compare",
    )
    profile.add_argument(
        "--compare",
        nargs=2,
        metavar=("OLD", "NEW"),
        default=None,
        help="instead of running, diff two profile/why-slow/history JSON "
        "artifacts and print per-stage deltas (before/after of a perf PR)",
    )
    profile.add_argument(
        "--checker",
        choices=sorted(CHECKERS),
        default="",
        help="profile a single checker (default: all of them)",
    )
    profile.add_argument(
        "--top", type=int, default=10, help="rows per table (default 10)"
    )
    profile.add_argument(
        "--json",
        action="store_true",
        help="emit the profile as JSON (the machine twin of the tables)",
    )
    profile.add_argument("--depth", type=int, default=6, help="max calling contexts")
    profile.add_argument(
        "--pta",
        default="",
        choices=["fi", "fs"],
        help="points-to precision tier (fi | fs; default REPRO_PTA, else fi)",
    )
    profile.add_argument(
        "--no-smt", action="store_true", help="path-insensitive mode"
    )
    profile.add_argument("--deadline", type=float, default=0.0, metavar="SECONDS")
    profile.add_argument("--smt-deadline", type=float, default=0.0, metavar="SECONDS")
    profile.add_argument("--max-steps", type=int, default=0, metavar="N")
    profile.set_defaults(func=cmd_profile)

    why_slow = sub.add_parser(
        "why-slow",
        help="run the checkers and attribute the wall time: critical "
        "path, per-wave stragglers, compute vs dispatch overhead",
        parents=[obs, par],
    )
    why_slow.add_argument("file", help="program file ('-' for stdin)")
    why_slow.add_argument(
        "--checker",
        choices=sorted(CHECKERS),
        default="",
        help="analyze a single checker (default: all of them)",
    )
    why_slow.add_argument(
        "--top", type=int, default=10, help="rows per table (default 10)"
    )
    why_slow.add_argument(
        "--json",
        action="store_true",
        help="emit the breakdown as JSON instead of tables",
    )
    why_slow.add_argument(
        "--out",
        default="",
        metavar="FILE",
        help="also write the breakdown JSON artifact here (atomic)",
    )
    why_slow.add_argument("--depth", type=int, default=6, help="max calling contexts")
    why_slow.add_argument(
        "--pta",
        default="",
        choices=["fi", "fs"],
        help="points-to precision tier (fi | fs; default REPRO_PTA, else fi)",
    )
    why_slow.add_argument(
        "--no-smt", action="store_true", help="path-insensitive mode"
    )
    why_slow.add_argument("--deadline", type=float, default=0.0, metavar="SECONDS")
    why_slow.add_argument(
        "--smt-deadline", type=float, default=0.0, metavar="SECONDS"
    )
    why_slow.add_argument("--max-steps", type=int, default=0, metavar="N")
    why_slow.set_defaults(func=cmd_why_slow)

    run = sub.add_parser("run", help="execute a program in the interpreter")
    run.add_argument("file")
    run.add_argument("--entry", default="main")
    run.add_argument("--args", default="", help="comma-separated integer arguments")
    run.add_argument(
        "--keep-going", action="store_true", help="record violations and continue"
    )
    run.set_defaults(func=cmd_run)

    seg = sub.add_parser(
        "dump-seg",
        help="print a function's SEG as Graphviz dot",
        parents=[par],
    )
    seg.add_argument("file")
    seg.add_argument("--function", required=True)
    seg.set_defaults(func=cmd_dump_seg)

    cfg = sub.add_parser(
        "dump-cfg",
        help="print a function's CFG as Graphviz dot",
        parents=[par],
    )
    cfg.add_argument("file")
    cfg.add_argument("--function", required=True)
    cfg.set_defaults(func=cmd_dump_cfg)

    cache = sub.add_parser(
        "cache",
        help="inspect or manage the on-disk artifact cache (--cache-dir)",
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_dir_help = (
        "the cache directory (default: the REPRO_CACHE_DIR environment "
        "variable)"
    )
    cache_stats = cache_sub.add_parser(
        "stats", help="print entry count, bytes on disk, and schema version"
    )
    cache_stats.add_argument("--cache-dir", default="", metavar="DIR", help=cache_dir_help)
    cache_stats.add_argument("--json", action="store_true", help="JSON output")
    cache_stats.set_defaults(func=cmd_cache_stats)
    cache_clear = cache_sub.add_parser(
        "clear", help="remove every cached artifact (all schema versions)"
    )
    cache_clear.add_argument("--cache-dir", default="", metavar="DIR", help=cache_dir_help)
    cache_clear.set_defaults(func=cmd_cache_clear)
    cache_warm = cache_sub.add_parser(
        "warm",
        help="prepare a program into the cache without running checkers",
    )
    cache_warm.add_argument("file", help="program file ('-' for stdin)")
    cache_warm.add_argument("--cache-dir", default="", metavar="DIR", help=cache_dir_help)
    cache_warm.add_argument(
        "--jobs", type=int, default=0, metavar="N",
        help="worker processes for the warm-up (default REPRO_JOBS, else 1)",
    )
    cache_warm.set_defaults(func=cmd_cache_warm)

    selfcheck = sub.add_parser(
        "selfcheck",
        help="differential sanitizer harness: seeded synth programs, "
        "static results cross-checked against the interpreter oracle",
        parents=[obs, par],
    )
    selfcheck.add_argument(
        "--seeds",
        default="0..19",
        help="seed spec: comma-separated integers and inclusive a..b "
        "ranges (default 0..19)",
    )
    selfcheck.add_argument(
        "--lines", type=int, default=400, help="approximate program size per seed"
    )
    selfcheck.add_argument(
        "--verify",
        default="full",
        choices=["off", "fast", "full"],
        help="verification mode for the analysis runs (default full)",
    )
    selfcheck.add_argument(
        "--no-oracle",
        action="store_true",
        help="skip the dynamic-oracle cross-check of the ground-truth labels",
    )
    selfcheck.add_argument("--json", action="store_true", help="JSON output")
    selfcheck.add_argument(
        "--out", default="", metavar="FILE", help="also write the JSON report here"
    )
    selfcheck.set_defaults(func=cmd_selfcheck)

    serve = sub.add_parser(
        "serve",
        help="run 'check' with the live monitor serving /healthz /metrics "
        "/status /events during (and, with --linger, after) the analysis",
        parents=[obs, par],
    )
    serve.add_argument("file", help="program file ('-' for stdin)")
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        metavar="PORT",
        help="monitor port (default 0 = pick a free port, printed to "
        "stderr)",
    )
    serve.add_argument(
        "--linger",
        action="store_true",
        help="keep serving after the analysis finishes (Ctrl-C to stop)",
    )
    serve.add_argument(
        "--checker", choices=sorted(CHECKERS), default="use-after-free"
    )
    serve.add_argument("--all", action="store_true", help="run every checker")
    serve.add_argument("--json", action="store_true", help="JSON output")
    serve.add_argument("--sarif", action="store_true", help="SARIF 2.1.0 output")
    serve.add_argument("--baseline", default="", help=argparse.SUPPRESS)
    serve.add_argument("--update-baseline", default="", help=argparse.SUPPRESS)
    serve.add_argument("--stats", action="store_true", help="print engine stats")
    serve.add_argument("--depth", type=int, default=6, help="max calling contexts")
    serve.add_argument(
        "--pta",
        default="",
        choices=["fi", "fs"],
        help="points-to precision tier (fi | fs; default REPRO_PTA, else fi)",
    )
    serve.add_argument("--no-smt", action="store_true", help="path-insensitive mode")
    serve.add_argument(
        "--no-linear-filter", action="store_true", help=argparse.SUPPRESS
    )
    serve.add_argument("--deadline", type=float, default=0.0, metavar="SECONDS")
    serve.add_argument("--smt-deadline", type=float, default=0.0, metavar="SECONDS")
    serve.add_argument("--max-steps", type=int, default=0, metavar="N")
    serve.add_argument("--strict", action="store_true", help=argparse.SUPPRESS)
    serve.add_argument("--fault", default="", metavar="SPEC", help=argparse.SUPPRESS)
    serve.add_argument(
        "--verify", default="", choices=["off", "fast", "full"],
        help="self-verification mode (as in 'check')",
    )
    serve.add_argument(
        "--dump-on-verify-fail", default="", metavar="DIR", help=argparse.SUPPRESS
    )
    serve.set_defaults(func=cmd_serve)

    daemon = sub.add_parser(
        "daemon",
        help="run the persistent analysis service: queued jobs, warm "
        "incremental sessions, /v1/check and /v1/edit over HTTP "
        "(see docs/service.md)",
        parents=[obs],
    )
    daemon.add_argument(
        "--port",
        type=int,
        default=0,
        metavar="PORT",
        help="port to bind on 127.0.0.1 (default 0 = pick a free port; "
        "the chosen port is printed on stdout and shown in /healthz)",
    )
    daemon.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="analysis worker threads (default %(default)s)",
    )
    daemon.add_argument(
        "--queue-max",
        type=int,
        default=16,
        metavar="N",
        help="admission-control queue bound; requests past it get "
        "429 + Retry-After (default %(default)s)",
    )
    daemon.add_argument(
        "--max-sessions",
        type=int,
        default=32,
        metavar="N",
        help="warm sessions kept resident (LRU past this; default "
        "%(default)s)",
    )
    daemon.add_argument(
        "--cache-dir",
        default="",
        metavar="DIR",
        help="on-disk artifact store sessions fall through to on a warm "
        "miss (default: the REPRO_CACHE_DIR environment variable, else "
        "off)",
    )
    daemon.add_argument("--depth", type=int, default=6, help="max calling contexts")
    daemon.add_argument(
        "--pta",
        default="",
        choices=["fi", "fs"],
        help="points-to precision tier (fi | fs; default REPRO_PTA, else fi)",
    )
    daemon.add_argument("--no-smt", action="store_true", help="path-insensitive mode")
    daemon.add_argument(
        "--verify", default="", choices=["off", "fast", "full"],
        help="self-verification mode for every job (as in 'check')",
    )
    daemon.add_argument(
        "--deadline",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="default per-request wall budget (requests may tighten, "
        "never widen it)",
    )
    daemon.add_argument(
        "--smt-deadline", type=float, default=0.0, metavar="SECONDS",
        help="default per-request per-query SMT ceiling",
    )
    daemon.add_argument(
        "--max-steps", type=int, default=0, metavar="N",
        help="default per-request step budget",
    )
    daemon.set_defaults(func=cmd_daemon)

    client = sub.add_parser(
        "client",
        help="talk to a running 'repro daemon' (check, edit, job, "
        "result, health, sessions)",
    )
    client.add_argument(
        "--port", type=int, required=True, metavar="PORT",
        help="daemon port (from its startup line or /healthz)",
    )
    client.add_argument("--host", default="127.0.0.1", help=argparse.SUPPRESS)
    client.add_argument(
        "--timeout", type=float, default=600.0, metavar="SECONDS",
        help="HTTP timeout per request (default %(default)s)",
    )
    client_sub = client.add_subparsers(dest="client_command", required=True)
    c_check = client_sub.add_parser(
        "check", help="submit a full-program check (POST /v1/check)"
    )
    c_check.add_argument("file", help="program file ('-' for stdin)")
    c_check.add_argument(
        "--session",
        default="",
        metavar="NAME",
        help="warm session to run in (re-checks in the same session "
        "reuse unchanged functions; default: a fresh anonymous session)",
    )
    c_check.add_argument(
        "--checker", choices=sorted(CHECKERS), default="",
        help="run one checker (default: all of them)",
    )
    c_check.add_argument("--all", action="store_true", help="run every checker")
    c_check.add_argument(
        "--no-wait", action="store_true",
        help="return the job id immediately instead of the result",
    )
    c_edit = client_sub.add_parser(
        "edit",
        help="re-check after editing one function (POST /v1/edit)",
    )
    c_edit.add_argument("session", help="warm session holding the program")
    c_edit.add_argument(
        "file", help="file with the edited function's text ('-' for stdin)"
    )
    c_edit.add_argument(
        "--function", default="", metavar="NAME",
        help="expected function name (rejected if the text defines another)",
    )
    c_edit.add_argument(
        "--checker", choices=sorted(CHECKERS), default="",
        help="run one checker (default: all of them)",
    )
    c_edit.add_argument("--all", action="store_true", help="run every checker")
    c_job = client_sub.add_parser("job", help="job status (GET /v1/jobs/<id>)")
    c_job.add_argument("id", help="job id")
    c_result = client_sub.add_parser(
        "result", help="job result (GET /v1/results/<id>)"
    )
    c_result.add_argument("id", help="job id")
    client_sub.add_parser("health", help="daemon health (GET /healthz)")
    client_sub.add_parser(
        "sessions", help="resident warm sessions (GET /v1/sessions)"
    )
    client.set_defaults(func=cmd_client)

    loadgen = sub.add_parser(
        "loadgen",
        help="drive a running daemon with concurrent mixed "
        "cold/warm/edit traffic and report latency quantiles",
        parents=[obs],
    )
    loadgen.add_argument(
        "--port", type=int, required=True, metavar="PORT", help="daemon port"
    )
    loadgen.add_argument("--host", default="127.0.0.1", help=argparse.SUPPRESS)
    loadgen.add_argument(
        "--clients", type=int, default=4, metavar="N",
        help="concurrent clients, one warm session each (default %(default)s)",
    )
    loadgen.add_argument(
        "--edits", type=int, default=8, metavar="N",
        help="single-function edit re-checks per client (default %(default)s)",
    )
    loadgen.add_argument(
        "--lines", type=int, default=250, metavar="N",
        help="approximate generated program size per client "
        "(default %(default)s)",
    )
    loadgen.add_argument("--seed", type=int, default=7, help="workload seed")
    loadgen.add_argument("--json", action="store_true", help="JSON output")
    loadgen.add_argument(
        "--samples", action="store_true",
        help="include per-request samples in --json output",
    )
    loadgen.add_argument(
        "--out", default="", metavar="FILE",
        help="write the full latency trajectory (summary + samples) here",
    )
    loadgen.set_defaults(func=cmd_loadgen)

    history = sub.add_parser(
        "history",
        help="inspect the run-history store (--history-dir / "
        "REPRO_HISTORY_DIR) and check for perf regressions",
    )
    history_sub = history.add_subparsers(dest="history_command", required=True)
    history_dir_help = (
        "the history directory (default: the REPRO_HISTORY_DIR environment "
        "variable)"
    )
    h_list = history_sub.add_parser("list", help="one line per recorded run")
    h_list.add_argument("--history-dir", default="", metavar="DIR", help=history_dir_help)
    h_list.add_argument("--json", action="store_true", help="JSON output")
    h_list.set_defaults(func=cmd_history_list)
    h_show = history_sub.add_parser("show", help="print one full run record")
    h_show.add_argument(
        "run", nargs="?", default="", help="run id (default: the latest run)"
    )
    h_show.add_argument("--history-dir", default="", metavar="DIR", help=history_dir_help)
    h_show.set_defaults(func=cmd_history_show)
    h_diff = history_sub.add_parser(
        "diff", help="compare two recorded runs (timings, stages, findings)"
    )
    h_diff.add_argument(
        "old", nargs="?", default="", help="run id of the baseline run "
        "(default: second-newest run)"
    )
    h_diff.add_argument(
        "new", nargs="?", default="", help="run id of the run to compare "
        "(default: newest run)"
    )
    h_diff.add_argument("--history-dir", default="", metavar="DIR", help=history_dir_help)
    h_diff.add_argument("--json", action="store_true", help="JSON output")
    h_diff.set_defaults(func=cmd_history_diff)
    h_trend = history_sub.add_parser(
        "trend",
        help="compare the latest run against the rolling baseline (median "
        "of prior runs on the same source fingerprint) and write the "
        "BENCH_pinpoint.json trajectory",
    )
    h_trend.add_argument("--history-dir", default="", metavar="DIR", help=history_dir_help)
    h_trend.add_argument(
        "--check",
        action="store_true",
        help=f"exit {EXIT_REGRESSION} when the latest run regressed "
        "(CI gate)",
    )
    h_trend.add_argument(
        "--max-wall-ratio",
        type=float,
        default=TrendThresholds.wall_ratio,
        metavar="R",
        help="wall-time regression threshold: latest > baseline*R "
        "(default %(default)s)",
    )
    h_trend.add_argument(
        "--max-mem-ratio",
        type=float,
        default=TrendThresholds.mem_ratio,
        metavar="R",
        help="peak-memory regression threshold (default %(default)s)",
    )
    h_trend.add_argument(
        "--baseline-runs",
        type=int,
        default=TrendThresholds.baseline_runs,
        metavar="N",
        help="baseline = median of up to N prior comparable runs "
        "(default %(default)s)",
    )
    h_trend.add_argument(
        "--min-runs",
        type=int,
        default=TrendThresholds.min_runs,
        metavar="N",
        help="pass trivially with fewer than N comparable prior runs "
        "(default %(default)s)",
    )
    h_trend.add_argument(
        "--bench-out",
        default="",
        metavar="FILE",
        help=f"trajectory file path (default ./{BENCH_FILE})",
    )
    h_trend.add_argument("--json", action="store_true", help="JSON output")
    h_trend.set_defaults(func=cmd_history_trend)

    gen = sub.add_parser("generate", help="generate a synthetic workload")
    gen.add_argument("--lines", type=int, default=500)
    gen.add_argument("--seed", type=int, default=1)
    gen.add_argument("--taint", action="store_true", help="seed taint flows too")
    gen.add_argument("-o", "--output", default="")
    gen.set_defaults(func=cmd_generate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as error:
        source = getattr(args, "file", "<input>")
        print(f"{source}:{error.line}: {error.message}", file=sys.stderr)
        return EXIT_ERROR
    except ValueError as error:
        # Configuration errors (EngineConfig/ResourceBudget validation,
        # malformed --fault specs) are usage errors, not crashes.
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as error:
        # Unreadable input / unwritable output paths are hard errors
        # (exit 2), not tracebacks.
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
