"""Seeded end-to-end and per-layer benchmark of ``repro check``.

Run from the repository root::

    python3 benchmarks/perf/run.py --workload all-5k --seed 1 --seconds 30 --trace 0

Each workload generates four subject programs (``edit-2k``: six) from
``--seed`` with ``repro.synth.generator`` (subject i is the program of
``repro generate --lines N --seed S+1000i --taint``), then runs
repetitions in fresh child processes (``rep.py``), the subjects in
turn, until the next one would end after ``--seconds``; every subject
runs at least once.  The child receives only the program text; the
generator's ground truth stays here and is the correctness oracle.
Times are scaled to the host's reference speed
(``rep.SpeedReference``), and each end-to-end metric is the geometric
mean over subjects of each subject's median.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each
subject untraced and then traced, and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every operation succeeded and every correctness check
held.  See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
REP = HERE / "rep.py"

ALL_CHECKERS = (
    "use-after-free",
    "double-free",
    "null-deref",
    "memory-leak",
    "path-traversal",
    "data-transmission",
)
UAF = "use-after-free"


#: Subjects per run.  Programs of one size differ in cost by several
#: percent, so a run measures several and averages over all of them:
#: one unusual program moves it less.
SUBJECTS = 4


@dataclass(frozen=True)
class Workload:
    """One benchmark configuration.  ``edits > 0`` makes every
    repetition a warm session: a cold analysis plus ``edits``
    single-function edits, each re-checked."""

    name: str
    lines: int
    checkers: Tuple[str, ...]
    jobs: int = 1
    edits: int = 0
    subjects: int = SUBJECTS


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("all-5k", 5_000, ALL_CHECKERS),
        Workload("all-5k-jobs2", 5_000, ALL_CHECKERS, jobs=2),
        # Its repetitions are short enough for six subjects in a run,
        # and 2k-line programs differ in cost more than 5k-line ones:
        # over ten seeds, six subjects spread check_s and
        # recheck_p50_ms about 0.04 where four spread them about 0.07.
        Workload("edit-2k", 2_000, ALL_CHECKERS, edits=20, subjects=6),
    )
}

#: End-to-end metrics (name -> unit), printed with ``--trace 0``.
END_TO_END = {
    "setup_s": "s",
    "check_s": "s",
    "recheck_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
TIMINGS = ("setup_s", "check_s", "recheck_p50_ms")

_LAYER_SECONDS = (
    "repro.import_s", "lang.parse_s", "ir.lower_s", "ir.ssa_s", "ir.gating_s",
    "ir.controldep_s", "ir.dominance_s", "ir.callgraph_s", "transform.modref_s",
    "transform.connectors_s", "pta.local_s", "pipeline.prepare_self_s",
    "seg.build_s", "seg.cond_dd_s", "seg.cond_pc_s", "seg.cond_cd_s",
    "core.engine_init_self_s", "core.check_self_s", "core.search_self_s",
    "core.clone_s", "smt.solve_s", "smt.linear_s", "bench.unattributed_s",
)
_LAYER_COUNTS = (
    "ir.lower_calls", "pta.local_runs", "pipeline.functions", "seg.vertices",
    "seg.edges", "seg.cond_dd_calls", "seg.cond_pc_calls", "seg.cond_cd_calls",
    "core.clone_calls", "core.search_steps",
    *(f"core.search_steps.{name}" for name in ALL_CHECKERS),
    "core.candidates", "core.summaries_rv", "core.summaries_vf", "smt.queries",
    "smt.linear_queries", "core.pruned_linear", "core.pruned_smt",
    "sched.tasks", "sched.waves", "incremental.reprepared", "incremental.reused",
    "core.check_cache_hit", "core.check_cache_miss",
)
#: Per-layer metrics (name -> unit), printed with ``--trace 1``.
PER_LAYER = {
    **{name: "s" for name in _LAYER_SECONDS},
    **{name: "count" for name in _LAYER_COUNTS},
    "sched.serialize_bytes": "bytes",
    "core.candidate_yield": "ratio",
    "smt.linear_prune_share": "ratio",
    "bench.trace_overhead": "ratio",
}

#: Subjects of a ``--trace 1`` run, which repeats each subject twice.
TRACE_SUBJECTS = 2
#: Subject i of seed S is generated with seed S + SUBJECT_STRIDE * i, so
#: subject 0 is ``repro generate --seed S`` itself.
SUBJECT_STRIDE = 1000
#: No new repetition starts after this many seconds, whatever --seconds
#: says, so a run always ends well inside three minutes.
HARD_CAP_S = 100.0
#: Every repetition must end this long after the run's start, or within
#: ten seconds of its own start if that is later.
CHILD_TIMEOUT_S = 120.0
#: Environment variables that would change what a child measures: a
#: history dir turns on tracemalloc, a cache dir or REPRO_JOBS changes
#: the prepare path, and so on.  Every REPRO_* variable is dropped.
_SCRUB_PREFIX = "REPRO_"


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith(_SCRUB_PREFIX)}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(spec: dict, timeout: float) -> dict:
    """Run one repetition; a failure comes back as ``{"error": ...}``."""
    proc = subprocess.Popen(
        [sys.executable, str(REP)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=str(ROOT),
        env=child_env(),
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(json.dumps(spec), timeout=timeout)
    except subprocess.TimeoutExpired:
        # The child's own scheduler workers share its process group.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"repetition timed out after {timeout:.0f}s"}
    except BaseException:
        # Interrupted or terminated: stop the repetition and its workers.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"repetition exited {proc.returncode}: {tail[0]}"}
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as error:
        return {"error": f"unreadable repetition output: {error}"}


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def uaf_quality(pairs, truths) -> Tuple[float, int]:
    """(recall of seeded true bugs, unexpected false positives) of one
    use-after-free result, judged against the generator's ground truth."""
    from repro.synth.generator import classify_reports, split_false_positives

    reports = [
        SimpleNamespace(
            source=SimpleNamespace(function=src), sink=SimpleNamespace(function=sink)
        )
        for src, sink in pairs
    ]
    _true_pos, false_pos, missed = classify_reports(reports, truths)
    seeded = sum(1 for t in truths if t.is_true_bug)
    recall = 1.0 - len(missed) / seeded if seeded else 1.0
    _expected, unexpected = split_false_positives(false_pos, truths)
    return recall, len(unexpected)


def score(workload: Workload, reps: List[dict], truths: List[list]) -> dict:
    """Count operations and failed operations over ``reps``; each rep
    names its subject, whose ground truth is ``truths[subject]``.

    An op is one engine build, one ``check`` call or one edit re-check.
    It fails when its repetition crashed, when it returned diagnostics,
    when its findings digest differs from the first repetition's on the
    same subject (for a parallel workload, subject 0's use-after-free
    reference comes from a serial repetition), when a use-after-free
    result misses a seeded bug or reports an unexpected false positive,
    when an edit changes the session's findings, or when a session's
    final warm findings differ from a cold analysis of the same program
    (charged to the last edit)."""
    ops_per_rep = 1 + len(workload.checkers) + workload.edits
    attempted = failed = 0
    reference: Dict[Tuple[int, str], str] = {}
    recalls: List[float] = []
    unexpected_fp = 0
    errors: List[str] = []
    for rep in reps:
        if "error" in rep:
            attempted += ops_per_rep
            failed += ops_per_rep
            errors.append(rep["error"])
            continue
        attempted += 1
        failed += rep["build_diagnostics"] > 0
        for check in rep["checks"]:
            attempted += 1
            key = (rep["subject"], check["checker"])
            expected = reference.setdefault(key, check["digest"])
            bad = check["diagnostics"] > 0 or check["digest"] != expected
            if check["checker"] == UAF:
                recall, unexpected = uaf_quality(check["pairs"], truths[rep["subject"]])
                recalls.append(recall)
                unexpected_fp += unexpected
                bad = bad or recall < 1.0 or unexpected > 0
            failed += bad
        edits = rep["edits"]
        for index, edit in enumerate(edits):
            attempted += 1
            bad = edit["diagnostics"] > 0 or edit["digest"] != rep["session_digest"]
            if index == len(edits) - 1 and "final_cold_digest" in rep:
                bad = bad or rep["final_cold_digest"] != rep["final_warm_digest"]
            failed += bad
    return {
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "uaf_recall": min(recalls) if recalls else 0.0,
        "uaf_unexpected_fp": unexpected_fp,
        "errors": errors,
    }


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def work_s(rep: dict, key: str = "seconds") -> float:
    """Seconds of one repetition's timed operations: wall seconds less
    the speed ticks, or with ``key="ref_seconds"`` seconds at the
    reference speed, or with ``key="tick_s"`` the ticks alone."""
    return sum(op[key] for op in [rep["import"], rep["build"], *rep["checks"], *rep["edits"]])


def percentile(samples: List[float], pct: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def subject_medians(subjects: List[int], samples: List[float]) -> List[float]:
    """Each subject's median sample; ``subjects[k]`` ran ``samples[k]``."""
    groups: Dict[int, List[float]] = {}
    for subject, sample in zip(subjects, samples):
        groups.setdefault(subject, []).append(sample)
    return [statistics.median(groups[subject]) for subject in sorted(groups)]


def balanced_median(subjects: List[int], samples: List[float]) -> float:
    """Median over subjects of each subject's median sample: every
    subject weighs the same, however many repetitions it got."""
    return statistics.median(subject_medians(subjects, samples))


def balanced_mean(subjects: List[int], samples: List[float]) -> float:
    """Geometric mean over subjects of each subject's median sample.

    The median drops a repetition the host slowed.  The geometric mean
    weighs every subject the same, however many repetitions it got,
    moves by x% when every subject does, and varies up to half as much
    from seed to seed as the median of four subjects."""
    return statistics.geometric_mean(subject_medians(subjects, samples))


def end_to_end(
    workload: Workload, reps: List[dict], key: str = "ref_seconds"
) -> Tuple[dict, dict]:
    """(metric values, their samples) over successful untraced reps.
    Times are seconds at the reference speed (see rep.SpeedReference),
    or wall seconds with ``key="seconds"``."""
    subjects = [r["subject"] for r in reps]
    setups = [r["import"][key] + r["build"][key] for r in reps]
    checks = [sum(c[key] for c in r["checks"]) for r in reps]
    if workload.edits:
        recheck_subjects = [r["subject"] for r in reps for _ in r["edits"]]
        rechecks = [e[key] * 1e3 for r in reps for e in r["edits"]]
    else:
        # Without a warm session, a changed program costs a whole cold run.
        recheck_subjects = subjects
        rechecks = [(s + c) * 1e3 for s, c in zip(setups, checks)]
    rss = [r["peak_rss_mb"] for r in reps]
    values = {
        "setup_s": balanced_mean(subjects, setups),
        "check_s": balanced_mean(subjects, checks),
        "recheck_p50_ms": balanced_mean(recheck_subjects, rechecks),
        "peak_rss_mb": balanced_mean(subjects, rss),
    }
    samples = {
        "setup_s": setups,
        "check_s": checks,
        "recheck_p50_ms": rechecks,
        "peak_rss_mb": rss,
    }
    return values, samples


def per_layer(traced: List[dict], untraced: List[dict]) -> Tuple[dict, dict]:
    """(metric values, their samples): balanced medians over traced
    reps, plus the tracing overhead against the untraced reps of the
    same subjects.
    Layer times are wall seconds; the overhead compares reference-speed
    seconds, so host-speed drift between the reps cancels."""
    untraced_work: Dict[int, List[float]] = {}
    for rep in untraced:
        untraced_work.setdefault(rep["subject"], []).append(work_s(rep, "ref_seconds"))
    samples = {
        # A checker the workload does not run searched zero steps.
        name: [r["layers"].get(name, 0) if name.startswith("core.search_steps.")
               else r["layers"][name] for r in traced]
        for name in PER_LAYER
        if name not in ("bench.unattributed_s", "bench.trace_overhead")
    }
    # Layer spans also cover the speed ticks that interrupt them.
    samples["bench.unattributed_s"] = [
        work_s(r) + work_s(r, "tick_s")
        - r["import"]["seconds"] - r["import"]["tick_s"]
        - r["layers"]["own_layer_s"]
        for r in traced
    ]
    samples["bench.trace_overhead"] = [
        work_s(r, "ref_seconds") / statistics.median(untraced_work[r["subject"]]) - 1.0
        for r in traced
    ]
    subjects = [r["subject"] for r in traced]
    values = {name: balanced_median(subjects, samples[name]) for name in PER_LAYER}
    return values, samples


# ----------------------------------------------------------------------
def subject_seeds(seed: int, subjects: int = SUBJECTS) -> List[int]:
    return [seed + SUBJECT_STRIDE * i for i in range(subjects)]


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    spans: bool = False,
    subjects: Optional[int] = None,
) -> dict:
    """Generate the workload's subjects from ``seed``, run repetitions
    for ``seconds``, and return the scored result (see :func:`score`)."""
    from repro.synth.generator import GeneratorConfig, generate_program

    subjects = subjects or (TRACE_SUBJECTS if trace else workload.subjects)
    seeds = subject_seeds(seed, subjects)
    programs = [
        generate_program(GeneratorConfig(seed=s, target_lines=workload.lines, taint_period=7))
        for s in seeds
    ]
    run_started = time.perf_counter()

    def spec(subject: int, **extra) -> dict:
        return {
            "source": programs[subject].source,
            "checkers": list(workload.checkers),
            "jobs": workload.jobs,
            "edits": workload.edits,
            "seed": seeds[subject],
            **extra,
        }

    def rep(subject: int, **extra) -> dict:
        timeout = max(10.0, CHILD_TIMEOUT_S - (time.perf_counter() - run_started))
        result = run_child(spec(subject, **extra), timeout)
        result["subject"] = subject
        result["traced"] = bool(extra.get("trace"))
        return result

    # Serial oracle: parallel findings must be byte-identical to it.  It
    # runs one checker on subject 0 only, so that it takes little of the
    # run's time.
    scored = [rep(0, jobs=1, checkers=[UAF])] if workload.jobs > 1 else []

    # The subjects take turns, each turn one repetition (with --trace 1,
    # an untraced one and then a traced one).  Every subject has a turn;
    # then turns continue while the next one, at the mean turn's length,
    # would end within ``seconds`` of the run's start.  The oracles'
    # time counts, so a run lasts about ``seconds`` on any host where
    # the first turns fit.
    reps: List[dict] = []
    turns: List[float] = []
    while True:
        i = len(turns) % subjects
        first = len(turns) == 0
        turn_started = time.perf_counter()
        for traced in (False, True) if trace else (False,):
            reps.append(
                rep(
                    i,
                    trace=traced,
                    spans=spans and traced and first,
                    trace_id=f"{workload.name}/seed{seeds[i]}/rep{len(reps)}",
                    # Untimed, but a traced rep would count its spans.
                    verify_final=bool(workload.edits) and first and not traced,
                )
            )
        turns.append(time.perf_counter() - turn_started)
        elapsed = time.perf_counter() - run_started
        if len(turns) >= subjects and (
            elapsed + statistics.mean(turns) > seconds or elapsed > HARD_CAP_S
        ):
            break
    scored.extend(reps)

    result = {
        "workload": workload.name,
        "seed": seed,
        "subject_seeds": seeds,
        "trace": trace,
        "reps": len(reps),
    }
    result.update(score(workload, scored, [p.ground_truth for p in programs]))
    ok = [r for r in reps if "error" not in r]
    untraced = [r for r in ok if not r["traced"]]
    traced_reps = [r for r in ok if r["traced"]]
    if not untraced or (trace and not traced_reps):
        result["metrics"], result["samples"] = {}, {}
    elif trace:
        result["metrics"], result["samples"] = per_layer(traced_reps, untraced)
        result["traced_wall_s"] = statistics.median(
            work_s(r) + work_s(r, "tick_s") for r in traced_reps
        )
        if spans:
            result["spans"] = traced_reps[0].get("spans", [])
    else:
        result["metrics"], result["samples"] = end_to_end(workload, untraced)
        # The same timings as wall time, and each repetition's median
        # speed tick, for the record.
        wall = end_to_end(workload, untraced, "seconds")[0]
        result["wall_metrics"] = {name: wall[name] for name in TIMINGS}
        result["tick_median_s"] = [r["tick_median_s"] for r in untraced]
        result["rep_subjects"] = [r["subject"] for r in untraced]
        if workload.edits:
            # Reported, not gated: every gated metric must exist on every
            # workload, and a few cold repetitions have no 90th percentile.
            result["recheck_p90_ms"] = percentile(
                result["samples"]["recheck_p50_ms"], 90
            )
    result["correct"] = (
        result["failed"] == 0
        and result["uaf_recall"] == 1.0
        and result["uaf_unexpected_fp"] == 0
        and bool(result["metrics"])
    )
    return result


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def stamp(seed: int) -> dict:
    """Where and how a stored result was measured."""
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(ROOT), capture_output=True, text=True, timeout=10,
        )
        git_head = head.stdout.strip() if head.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        git_head = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_head": git_head,
        "loadavg": list(os.getloadavg()),
        "seed": seed,
    }


def append_result(path: Path, record: dict) -> None:
    """Add ``record`` to the ``{"runs": [...]}`` document at ``path``,
    one run per line."""
    runs = json.loads(path.read_text())["runs"] if path.exists() else []
    runs.append(record)
    path.write_text('{"runs": [\n' + ",\n".join(json.dumps(r) for r in runs) + "\n]}\n")


def fmt(value) -> str:
    return f"{value:16d}" if isinstance(value, int) else f"{value:16.6f}"


def layer_table(result: dict) -> str:
    """The per-layer metrics as text; times also as a share of the
    traced repetition's wall."""
    wall = result["traced_wall_s"]
    lines = [
        f"# {result['workload']} seed={result['seed']}: medians over "
        f"{len(result['samples']['bench.trace_overhead'])} traced repetition(s), "
        f"traced wall {wall:.3f} s",
        "# times are self seconds; on a parallel workload they include the workers'",
        f"{'metric':34} {'value':>16} {'unit':6} share",
    ]
    for name, unit in PER_LAYER.items():
        value = result["metrics"][name]
        share = f"{value / wall:6.1%}" if unit == "s" else ""
        lines.append(f"{name:34} {fmt(value)} {unit:6} {share}")
    return "\n".join(lines) + "\n"


def report(workload: Workload, args: argparse.Namespace) -> int:
    """Run one workload, print its metrics and store what was asked for;
    returns the exit code for this workload."""
    started_at = time.time()
    result = run_workload(
        workload, args.seed, args.seconds, bool(args.trace),
        spans=bool(args.trace and args.trace_out),
    )
    units = PER_LAYER if args.trace else END_TO_END
    for error in result["errors"]:
        print(f"[{workload.name}] failed repetition: {error}", file=sys.stderr)
    print(
        f"{workload.name} seed={args.seed} subjects={result['subject_seeds']} "
        f"reps={result['reps']} "
        f"attempted={result['attempted']} failed={result['failed']} "
        f"error_rate={result['error_rate']:.4f} uaf_recall={result['uaf_recall']:.3f} "
        f"uaf_unexpected_fp={result['uaf_unexpected_fp']}"
    )
    for name, value in result["metrics"].items():
        print(f"  {name:34} {fmt(value)} {units[name]:6} (n={len(result['samples'][name])})")
    if "recheck_p90_ms" in result:
        print(f"  {'recheck_p90_ms (not gated)':34} {fmt(result['recheck_p90_ms'])} ms")
    for name, value in result.get("wall_metrics", {}).items():
        print(f"  {name + ' as wall time':34} {fmt(value)} {units[name]:6} (not gated)")

    if args.trace_out and args.trace and result["metrics"]:
        args.trace_out.mkdir(parents=True, exist_ok=True)
        chrome = {
            "traceEvents": result.pop("spans", []),
            "displayTimeUnit": "ms",
            "otherData": {
                "workload": workload.name,
                "seed": args.seed,
                "note": "spans shorter than 1 ms and hot-leaf calls are "
                "aggregated in the layer table, not drawn",
            },
        }
        trace_path = args.trace_out / f"{workload.name}.trace.json"
        trace_path.write_text(json.dumps(chrome) + "\n")
        (args.trace_out / f"{workload.name}.layers.txt").write_text(layer_table(result))
    metrics = {
        name: {"value": value, "unit": units[name]}
        for name, value in result["metrics"].items()
    }
    if args.out:
        record = {
            key: result[key]
            for key in (
                "workload", "seed", "subject_seeds", "trace", "reps", "correct",
                "attempted", "failed", "error_rate", "uaf_recall", "uaf_unexpected_fp",
                "samples",
            )
        }
        for key in ("recheck_p90_ms", "wall_metrics", "tick_median_s", "rep_subjects"):
            if key in result:
                record[key] = result[key]
        record["metrics"] = metrics
        record["started_at"] = started_at
        record["stamp"] = stamp(args.seed)
        append_result(args.out, record)

    if not result["metrics"]:
        print(f"error: no repetition of {workload.name} completed", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if result["correct"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=sorted(WORKLOADS),
        help="run only this workload (default: all of them, one after another)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append the stamped result to this JSON file")
    parser.add_argument(
        "--trace-out", type=Path,
        help="with --trace 1: write <workload>.trace.json (Chrome trace) and "
        "<workload>.layers.txt here",
    )
    args = parser.parse_args(argv)

    # Measure the checkout's own source, never an installed copy.
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Unwind on SIGTERM too, so run_child stops the running repetition.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    names = [args.workload] if args.workload else list(WORKLOADS)
    codes = [report(WORKLOADS[name], args) for name in names]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
