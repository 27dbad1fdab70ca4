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
import time
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
from repro.core.report import EXIT_CLEAN, EXIT_VERIFY, aggregate_results
from repro.lang.parser import ParseError
from repro.obs import (
    configure_logging,
    cost_breakdown,
    get_progress,
    get_registry,
    get_tracer,
    peak_rss_mb,
    render_profile,
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
from repro.robust.faults import slow_point
from repro.robust.heap import hold_full_collections

# Exit codes (see EXIT_CODE_TABLE below, shown in --help and README);
# the check ladder 0 < 1 < 3 < 4 lives in repro.core.report.
EXIT_ERROR = 2
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
    an ephemeral port); enables progress tracking for the run.  The
    bound port is announced on stderr, so stdout carries only the
    report."""
    if args.monitor_port is None:
        return None
    from repro.obs import MonitorServer

    get_progress().enabled = True
    monitor = MonitorServer(port=args.monitor_port)
    bound = monitor.start()
    print(f"[monitor] serving on http://127.0.0.1:{bound}", file=sys.stderr, flush=True)
    return monitor


def _finish_monitor(monitor, args: argparse.Namespace, exit_code: int) -> None:
    """Emit the final progress event, honour ``--linger``, stop serving."""
    get_progress().finish(exit_code)
    if monitor is None:
        return
    if getattr(args, "linger", False):
        print(
            "[monitor] analysis done; still serving (Ctrl-C to stop)",
            file=sys.stderr,
        )
        try:
            while monitor.running:
                time.sleep(0.2)
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
    exit_code: int,
    findings: int = 0,
    findings_by_checker=None,
    digest: str = "",
    diagnostics=None,
    profile=None,
    quiet: bool = False,
) -> str:
    """Append a run record when history recording is on; returns the
    run id ('' when recording is off).  ``wall_seconds`` is clock time;
    the record's ``peak_mb`` is this process's resident-set high-water
    mark."""
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
        peak_mb=peak_rss_mb(),
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


def _print_stats(result) -> None:
    """Every EngineStats field, generated from as_dict() so a new field
    can never be silently missing from --stats output, then the stage
    times from the ``engine.seconds`` counter: the shared prepare and
    seg phases and this checker's search and solving."""
    data = result.stats.as_dict()
    robust_keys = ("degraded_candidates", "smt_deadline_hits", "quarantined_units")
    core = {k: v for k, v in data.items() if k not in robust_keys}
    print("  [stats] " + " ".join(f"{k}={v}" for k, v in core.items()))
    seconds = get_registry().counter("engine.seconds")
    timings = {
        "prepare": seconds.value(phase="prepare"),
        "seg": seconds.value(phase="seg"),
        "search": seconds.value(phase="search", checker=result.checker),
        "solving": seconds.value(phase="solving", checker=result.checker),
    }
    print("  [timing] " + " ".join(f"{k}={v:.3f}s" for k, v in timings.items()))
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


def _run_checkers(
    args: argparse.Namespace,
    command: str,
    source: str,
    names: List[str],
    *,
    verify: str = "",
    use_linear_filter: bool = True,
    recover: bool = True,
):
    """The analysis ``check`` and ``profile`` share: build the engine
    config from the shared engine flags, start the monitor when
    ``--monitor-port`` asks, prepare ``source`` and run the ``names``
    checkers, timed by the clock.

    Returns ``(engine, results, wall_seconds, monitor, run_config)``;
    ``run_config`` is the run record's config, so both commands record
    the tier that ran."""
    if args.fault:
        install_faults(args.fault)
    config = EngineConfig(
        max_call_depth=args.depth,
        use_smt=not args.no_smt,
        use_linear_filter=use_linear_filter,
        verify=verify,
        pta_tier=args.pta,
    )
    monitor = _start_monitor(args)
    get_progress().begin_run(command, label=args.file)

    started = time.perf_counter()
    slow_point()
    engine = Pinpoint.from_source(
        source,
        config,
        budget=_build_budget(args),
        recover=recover,
        cache_dir=args.cache_dir or None,
    )
    results = [engine.check(CHECKERS[name]()) for name in names]
    wall_seconds = time.perf_counter() - started
    run_config = {
        "checkers": names,
        "cache": bool(args.cache_dir),
        "depth": args.depth,
        "smt": not args.no_smt,
        "verify": verify,
        "fault": args.fault,
        "pta": engine.pta_tier,
    }
    return engine, results, wall_seconds, monitor, run_config


def _findings_fields(results) -> Dict:
    """The run record's findings figures for ``results``, the same for
    ``check`` and ``profile`` so their records compare in ``history
    diff``."""
    return {
        "findings": sum(len(result.reports) for result in results),
        "findings_by_checker": {
            result.checker: len(result.reports) for result in results
        },
        "digest": findings_digest(
            [report.key() for result in results for report in result]
        ),
    }


@hold_full_collections()
def cmd_check(args: argparse.Namespace) -> int:
    _setup_obs(args)
    source = _read(args.file)
    names = list(CHECKERS) if args.all else [args.checker]
    engine, results, wall_seconds, monitor, run_config = _run_checkers(
        args,
        "check",
        source,
        names,
        verify=args.verify,
        use_linear_filter=not args.no_linear_filter,
        recover=not args.strict,
    )

    baseline = None
    if args.baseline:
        from repro.core.baseline import Baseline

        try:
            baseline = Baseline.load(args.baseline)
        except FileNotFoundError:
            baseline = Baseline()
    payload: List[Dict] = []
    for name, result in zip(names, results):
        if baseline is not None:
            new_reports = baseline.filter_new(result)
            suppressed = len(result.reports) - len(new_reports)
            result.reports = new_reports
            if suppressed and not (args.json or args.sarif):
                print(f"[baseline] suppressed {suppressed} known {name} finding(s)")
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
            _print_stats(result)
    # After the baseline filter, so suppressed findings set no exit code.
    diagnostics, exit_code = aggregate_results(results)
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
    _record_history(
        args,
        command="check",
        label=args.file,
        fingerprint=fingerprint_text(source),
        config=run_config,
        wall_seconds=wall_seconds,
        exit_code=exit_code,
        diagnostics=[diag.as_dict() for diag in diagnostics],
        quiet=args.json or args.sarif,
        **_findings_fields(results),
    )
    _finish_monitor(monitor, args, exit_code)
    return exit_code


@hold_full_collections()
def cmd_profile(args: argparse.Namespace) -> int:
    """Run the checkers with tracing on and print where the time,
    memory and SMT effort went: per pass, per function and in the SMT
    solver (paper Figs. 7-10; :mod:`repro.obs.attr`).  ``history diff``
    compares two profiles recorded with ``--history-dir``."""
    _setup_obs(args, force_trace=True)
    source = _read(args.file)
    names = [args.checker] if args.checker else list(CHECKERS)
    _, results, wall_seconds, monitor, run_config = _run_checkers(
        args, "profile", source, names
    )
    findings = _findings_fields(results)
    reports = findings["findings"]
    # Every checker repeats the module's diagnostics; count each once.
    diagnostics, _ = aggregate_results(results)
    document = cost_breakdown(
        get_tracer(),
        get_registry(),
        wall_seconds,
        peak_rss_mb(),
        source_label=args.file,
        top=args.top,
    )
    document["checkers"] = names
    document["reports"] = reports
    document["diagnostics"] = len(diagnostics)
    if args.json:
        json.dump(document, sys.stdout, indent=2)
        print()
    else:
        print(render_profile(document, top=args.top))
        print()
        print(
            f"checkers: {', '.join(names)} — {reports} report(s), "
            f"{len(diagnostics)} diagnostic(s)"
        )
    _export_obs(args)
    _record_history(
        args,
        command="profile",
        label=args.file,
        fingerprint=fingerprint_text(source),
        config=run_config,
        wall_seconds=wall_seconds,
        exit_code=EXIT_CLEAN,
        diagnostics=[diag.as_dict() for diag in diagnostics],
        profile=document,
        quiet=args.json,
        **findings,
    )
    _finish_monitor(monitor, args, EXIT_CLEAN)
    return EXIT_CLEAN


def _delta_line(label: str, a: float, b: float, unit: str = "") -> str:
    """One ``old -> new`` comparison line of ``history diff``."""
    change = b - a
    pct = f" ({change / a * 100:+.1f}%)" if a else ""
    return f"  {label:<16} {a:>10.3f} -> {b:>10.3f}{unit} {change:+.3f}{pct}"


def _profile_deltas(old: Dict, new: Dict) -> Dict[str, Dict[str, List[float]]]:
    """Pass and function deltas between two profile documents, each
    entry ``name -> [old, new]``: passes by name, functions hottest
    first."""

    def self_seconds(document: Dict, section: str, key: str) -> Dict[str, float]:
        return {
            str(row[key]): float(row.get("self_seconds", 0.0))
            for row in document.get(section, [])
            if isinstance(row, dict) and row.get(key)
        }

    deltas: Dict[str, Dict[str, List[float]]] = {}
    for section, key in (("passes", "name"), ("functions", "unit")):
        a, b = self_seconds(old, section, key), self_seconds(new, section, key)
        names = sorted(set(a) | set(b))
        if section == "functions":
            names.sort(key=lambda n: max(a.get(n, 0.0), b.get(n, 0.0)), reverse=True)
        deltas[section] = {n: [a.get(n, 0.0), b.get(n, 0.0)] for n in names}
    return deltas


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
    engine = Pinpoint.from_source(source, cache_dir=args.cache_dir or None)
    if args.function not in engine.functions:
        print(f"no such function: {args.function}", file=sys.stderr)
        return 2
    print(seg_to_dot(engine.functions[args.function].seg))
    return 0


def cmd_dump_cfg(args: argparse.Namespace) -> int:
    from repro.viz.dot import cfg_to_dot

    source = _read(args.file)
    engine = Pinpoint.from_source(source, cache_dir=args.cache_dir or None)
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

    store = _open_cache(args)
    if store is None:
        return EXIT_ERROR
    set_registry(MetricsRegistry())
    set_tracer(Tracer())
    source = _read(args.file)
    module = prepare_source(source, recover=True, store=store)
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
    monitor = _start_monitor(args)
    get_progress().begin_run("selfcheck", label=args.seeds)
    started = time.perf_counter()
    slow_point()
    report = run_selfcheck(
        seeds,
        lines=args.lines,
        mode=args.verify or "full",
        oracle=not args.no_oracle,
        cache_dir=args.cache_dir or None,
    )
    wall_seconds = time.perf_counter() - started
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
        },
        wall_seconds=wall_seconds,
        exit_code=exit_code,
        findings=document.get("trap_reports", 0)
        + document.get("other_false_positives", 0),
        quiet=args.json,
    )
    _finish_monitor(monitor, args, exit_code)
    return exit_code


def cmd_daemon(args: argparse.Namespace) -> int:
    """Run the persistent analysis service until SIGTERM/SIGINT (see
    docs/service.md).  Prints the bound port on stdout — with --port 0
    scripts read the ephemeral port from that line."""
    import signal
    import threading

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
        pta=args.pta,
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
    started = time.monotonic()
    try:
        while not stop_requested.is_set() and server.running:
            stop_requested.wait(timeout=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    uptime = time.monotonic() - started
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
            "pta": args.pta,
            "cache": bool(config.cache_dir),
        },
        wall_seconds=uptime,
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
    # Two profile records also compare their passes and functions.
    profiles = (
        _profile_deltas(old["profile"], new["profile"])
        if isinstance(old.get("profile"), dict) and isinstance(new.get("profile"), dict)
        else {}
    )

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
            },
            **profiles,
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
    if old.get("schema") != new.get("schema"):
        print(
            f"  NOTE: record schemas differ ({old.get('schema')} vs "
            f"{new.get('schema')}); wall and peak figures measure different things"
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
    for key in ("strong_updates", "weak_updates"):
        a, b = int(old_p.get(key, 0)), int(new_p.get(key, 0))
        if a or b:
            pta_bits.append(f"{key} {a} -> {b}")
    if pta_bits:
        print(f"  pta[{old_tier} -> {new_tier}] " + "; ".join(pta_bits))
    old_s = old.get("sched", {})
    new_s = new.get("sched", {})
    if old_s.get("retries") or new_s.get("retries"):
        print(f"  retries {old_s.get('retries', 0)} -> {new_s.get('retries', 0)}")
    if profiles:
        for name, (a, b) in profiles["passes"].items():
            print(delta(f"pass {name}", a, b, "s"))
        if profiles["functions"]:
            print("hottest functions (self seconds):")
            for unit, (a, b) in profiles["functions"].items():
                print(delta(f"fn {unit}", a, b, "s"))
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

    # The live monitor, for the commands that start it (repro.obs.monitor).
    monitor = argparse.ArgumentParser(add_help=False)
    monitor.add_argument(
        "--monitor-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve the live monitor (/healthz /metrics /status /events) "
        "on this port while the run is in flight (0 picks a free port, "
        "announced on stderr)",
    )

    # The persistent artifact cache (repro.cache).  Reports are
    # byte-identical whatever the cache state.
    cache_flag = argparse.ArgumentParser(add_help=False)
    cache_flag.add_argument(
        "--cache-dir",
        default="",
        metavar="DIR",
        help="persist per-function artifacts here and reuse them across "
        "runs (default: the REPRO_CACHE_DIR environment variable, else "
        "off); see also the 'cache' subcommand",
    )

    # The engine and budget flags of the commands that run the
    # checkers: 'check', 'profile' and 'daemon'.
    engine = argparse.ArgumentParser(add_help=False)
    engine.add_argument("--depth", type=int, default=6, help="max calling contexts")
    engine.add_argument(
        "--pta",
        default="fi",
        choices=["fi", "fs"],
        help="points-to precision tier every function is prepared at: fi "
        "(flow-insensitive baseline, default) or fs (adds sparse "
        "flow-sensitive strong updates)",
    )
    engine.add_argument("--no-smt", action="store_true", help="path-insensitive mode")
    engine.add_argument(
        "--deadline",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="wall-clock budget per analysis (a daemon request may tighten "
        "it, never widen it); past it the analysis degrades precision "
        "instead of running on (exit 3 reports degraded coverage)",
    )
    engine.add_argument(
        "--smt-deadline",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="per-query SMT ceiling; a query past it falls back to the "
        "linear solver's verdict with verdict=unknown",
    )
    engine.add_argument(
        "--max-steps",
        type=int,
        default=0,
        metavar="N",
        help="cooperative step budget for points-to + value-flow search",
    )

    # The fault flag of the one-shot runs, 'check' and 'profile'.
    oneshot = argparse.ArgumentParser(add_help=False)
    oneshot.add_argument(
        "--fault",
        default="",
        metavar="SPEC",
        help="deterministic fault injection, e.g. 'prepare:foo' or 'smt*1' "
        "(also via REPRO_FAULTS; for testing the degradation paths)",
    )

    check = sub.add_parser(
        "check",
        help="statically check a program",
        parents=[obs, monitor, cache_flag, engine, oneshot],
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
    check.add_argument(
        "--no-linear-filter", action="store_true", help="skip the linear pre-filter"
    )
    check.add_argument(
        "--strict",
        action="store_true",
        help="fail on the first parse error instead of quarantining the "
        "malformed function and continuing",
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
    check.add_argument(
        "--linger",
        action="store_true",
        help="with --monitor-port, keep serving after the analysis "
        "finishes (Ctrl-C to stop)",
    )
    check.set_defaults(func=cmd_check)

    profile = sub.add_parser(
        "profile",
        help="run the checkers and print where the time went: the "
        "hottest passes, functions and SMT consumers",
        parents=[obs, monitor, cache_flag, engine, oneshot],
    )
    profile.add_argument("file", help="program file ('-' for stdin)")
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
    profile.set_defaults(func=cmd_profile)

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
        parents=[cache_flag],
    )
    seg.add_argument("file")
    seg.add_argument("--function", required=True)
    seg.set_defaults(func=cmd_dump_seg)

    cfg = sub.add_parser(
        "dump-cfg",
        help="print a function's CFG as Graphviz dot",
        parents=[cache_flag],
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
    cache_warm.set_defaults(func=cmd_cache_warm)

    selfcheck = sub.add_parser(
        "selfcheck",
        help="differential sanitizer harness: seeded synth programs, "
        "static results cross-checked against the interpreter oracle",
        parents=[obs, monitor, cache_flag],
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

    daemon = sub.add_parser(
        "daemon",
        help="run the persistent analysis service: queued jobs, warm "
        "incremental sessions, /v1/check and /v1/edit over HTTP "
        "(see docs/service.md)",
        parents=[obs, engine],
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
    daemon.add_argument(
        "--verify", default="", choices=["off", "fast", "full"],
        help="self-verification mode for every job (as in 'check')",
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
        "diff",
        help="compare two recorded runs (timings, stages, findings; "
        "passes and functions when both are profile runs)",
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
